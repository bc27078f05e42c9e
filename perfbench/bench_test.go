package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeServe answers /v1/evaluate with a chosen behaviour and records the
// bodies it received.
type fakeServe struct {
	mu     sync.Mutex
	bodies [][]byte
	reply  func(w http.ResponseWriter, id string)
}

func (f *fakeServe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	f.mu.Lock()
	f.bodies = append(f.bodies, body)
	f.mu.Unlock()
	f.reply(w, r.Header.Get("X-Beagle-Request-Id"))
}

func replyLnL(lnL float64) func(http.ResponseWriter, string) {
	return func(w http.ResponseWriter, id string) {
		json.NewEncoder(w).Encode(served{RequestID: id, LogLikelihood: lnL})
	}
}

// target points a serveTarget at a fake server with a one-request pool
// whose reference log likelihood is ref.
func target(t *testing.T, f *fakeServe, ref float64, timeout time.Duration) *serveTarget {
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	in, err := genServe(1)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient()
	c.Timeout = timeout
	refs := make([]float64, len(in.Requests))
	for i := range refs {
		refs[i] = ref
	}
	return &serveTarget{url: srv.URL, client: c, in: in, refs: refs, stop: func() {}}
}

// TestCheckerRejectsBadAnswers feeds the answer checker a perturbed log
// likelihood, a 429, a timeout and a wrong echoed id: each must count as a
// failed unit and leave the run not valid, while a correct reply passes.
func TestCheckerRejectsBadAnswers(t *testing.T) {
	const ref = -1234.5678
	cases := []struct {
		name    string
		reply   func(http.ResponseWriter, string)
		timeout time.Duration
		wantErr bool
	}{
		{"correct", replyLnL(ref), time.Second, false},
		{"perturbed", replyLnL(math.Nextafter(ref, 0)), time.Second, true},
		{"429", func(w http.ResponseWriter, _ string) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		}, time.Second, true},
		{"timeout", func(w http.ResponseWriter, id string) {
			time.Sleep(300 * time.Millisecond)
			replyLnL(ref)(w, id)
		}, 50 * time.Millisecond, true},
		{"wrong id", func(w http.ResponseWriter, _ string) {
			json.NewEncoder(w).Encode(served{RequestID: "someone-else", LogLikelihood: ref})
		}, time.Second, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg := target(t, &fakeServe{reply: tc.reply}, ref, tc.timeout)
			l := &ledger{}
			l.unit(nil) // one good unit first, so fail_frac is a share
			err := tg.do(0)
			l.unit(err)
			if !tc.wantErr {
				if err != nil || !l.valid() || l.failFrac() != 0 {
					t.Fatalf("correct reply rejected: err=%v valid=%v", err, l.valid())
				}
				return
			}
			if err == nil {
				t.Fatal("bad reply accepted")
			}
			if l.failFrac() != 0.5 || l.valid() {
				t.Fatalf("fail_frac %v valid %v, want 0.5 and not valid", l.failFrac(), l.valid())
			}
			if tc.name == "timeout" && err != errTimeout {
				t.Fatalf("timeout reported as %v", err)
			}
		})
	}
}

// TestCheckerRejectsPerturbedPeel covers the library-side checks: a peel
// answer one ulp off its serial reference, and an MC3 final tree outside
// the tolerance of the independent engine, each fail a unit.
func TestCheckerRejectsPerturbedPeel(t *testing.T) {
	const ref = -98765.4321
	l := &ledger{}
	l.unit(sameBits("eval", ref, ref))
	l.unit(sameBits("eval", math.Nextafter(ref, math.Inf(1)), ref))
	l.unit(within("native", ref*(1+1e-6), ref, nativeRelTol))
	l.unit(within("native", math.NaN(), ref, nativeRelTol))
	if l.failed != 3 || l.valid() {
		t.Fatalf("failed %d valid %v, want 3 failures and not valid", l.failed, l.valid())
	}
	l2 := &ledger{}
	l2.unit(nil)
	l2.markInvalid("generator fell behind")
	if l2.valid() {
		t.Fatal("a run marked invalid reported valid")
	}
}

// TestSeedDeterminesInputs: the same seed generates byte-identical inputs
// for every workload and a different seed different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := genInputs(w.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(w.name, 7)
		c, _ := genInputs(w.name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different inputs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", w.name)
		}
	}
	o1, i1 := arrivals(3, serveRate, time.Second)
	o2, i2 := arrivals(3, serveRate, time.Second)
	if fmt.Sprint(o1, i1) != fmt.Sprint(o2, i2) {
		t.Error("arrival schedule is not determined by its seed")
	}
}

// TestServerSeesOnlyGeneratedInputs drives the open-loop sender against a
// recording server: every body it receives is one of the generated request
// bodies, byte for byte, and every request id extends a generated id.
func TestServerSeesOnlyGeneratedInputs(t *testing.T) {
	f := &fakeServe{reply: replyLnL(0)}
	var ids []string
	var mu sync.Mutex
	f.reply = func(w http.ResponseWriter, id string) {
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
		replyLnL(0)(w, id)
	}
	tg := target(t, f, 0, time.Second)
	offs, idx := arrivals(tg.in.ArrivalsSeed, 200, 200*time.Millisecond)
	ss := tg.openLoop(offs, idx)
	if len(ss) == 0 || len(f.bodies) != len(ss) {
		t.Fatalf("sent %d, server saw %d", len(ss), len(f.bodies))
	}
	for _, body := range f.bodies {
		found := false
		for _, rq := range tg.in.Requests {
			if bytes.Equal(body, rq.Body) {
				found = true
			}
		}
		if !found {
			t.Fatalf("server received a body that was not generated: %.80s", body)
		}
	}
	for _, id := range ids {
		if !strings.HasPrefix(id, "pb-1-") {
			t.Fatalf("request id %q is not derived from the generated ids", id)
		}
	}
}

// TestWorkloadsSmoke runs the quicker workloads briefly, untraced and
// traced, and checks every answer passed and every metric was measured.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"mcmc", "shard"} {
		for _, traced := range []bool{false, true} {
			var w workload
			for _, x := range workloads {
				if x.name == name {
					w = x
				}
			}
			rep, err := w.run(runOpts{seed: 5, seconds: 0.5, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.ledger.valid() {
				t.Fatalf("%s traced=%v: not valid: %v %v", name, traced, rep.ledger.firstErr, rep.ledger.invalid)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := rep.metrics[m.name]; !ok {
					t.Errorf("%s traced=%v: missing %s", name, traced, m.name)
				}
			}
		}
	}
}

// genInputs generates a workload's inputs and returns their canonical
// encoding, for the seed self-test.
func genInputs(workload string, seed int64) ([]byte, error) {
	var v any
	var err error
	switch workload {
	case "mcmc":
		v, err = genMCMC(seed)
	case "peel-codon":
		v, err = genCodon(seed)
	case "serve":
		v, err = genServe(seed)
	case "shard":
		v, err = genShard(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
