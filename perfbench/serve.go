package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gobeagle/internal/serve"
)

// Fixed offered rates and limits of the serve workloads. Rates are never
// calibrated at run time: the operating point must not move with the code
// under test.
const (
	serveRate = 300.0 // req/s, about 60-75% of capacity on a 2-vCPU host
	// serveTailQ is p95, not p99: on the shared 2-vCPU host, p99 of served
	// latency read a quartile spread of 0.32-0.34 of its median across
	// seeds, p95 0.21, because each host stall delays every request due
	// during it.
	serveTailQ   = 0.95
	serveConns   = 2 // ≤ nproc connections
	requestLimit = 5 * time.Second
	// maxSendLagMs is how late (p99) the generator itself may send before
	// the run is not a valid open-loop measurement.
	maxSendLagMs = 20.0
)

// served is one decoded /v1/evaluate reply.
type served struct {
	RequestID     string  `json:"request_id"`
	LogLikelihood float64 `json:"log_likelihood"`
}

// sample is one sent request, timed from when it was due.
type sample struct {
	due, ready, sent, done time.Time
	err                    error
}

func (s sample) latencyMs() float64 { return float64(s.done.Sub(s.due).Nanoseconds()) / 1e6 }

// sendLagMs is how late the generator sent: time past the later of the
// due time and the moment a connection was free for it.
func (s sample) sendLagMs() float64 {
	from := s.due
	if s.ready.After(from) {
		from = s.ready
	}
	return float64(s.sent.Sub(from).Nanoseconds()) / 1e6
}

// serveTarget is a running server and the client and references used to
// load it.
type serveTarget struct {
	srv    *serve.Server
	url    string
	stop   func()
	client *http.Client
	in     *serveInputs
	refs   []float64
	seq    atomic.Int64 // unique per-send request ids
}

func startServer(opts serve.Options) (*serve.Server, string, func(), error) {
	srv := serve.NewServer(opts)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	select {
	case addr := <-ready:
		return srv, "http://" + addr.String(), func() { cancel(); <-errc }, nil
	case err := <-errc:
		cancel()
		return nil, "", nil, err
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: requestLimit,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
}

// do sends pool request idx with a fresh request id and checks the reply.
func (t *serveTarget) do(idx int) error {
	id := fmt.Sprintf("%s-%d", t.in.Requests[idx].ID, t.seq.Add(1))
	req, err := http.NewRequest(http.MethodPost, t.url+"/v1/evaluate", bytes.NewReader(t.in.Requests[idx].Body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Beagle-Request-Id", id)
	resp, err := t.client.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return errTimeout
		}
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var out served
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
	}
	return checkResponse(resp.StatusCode, id, out.RequestID, out.LogLikelihood, t.refs[idx])
}

// arrivals is the seeded Poisson schedule: offsets from the phase start
// and the pool request sent at each.
func arrivals(seed int64, rate float64, d time.Duration) (offs []time.Duration, idx []int) {
	rng := rand.New(rand.NewSource(seed))
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return offs, idx
		}
		offs = append(offs, time.Duration(t*float64(time.Second)))
		idx = append(idx, rng.Intn(servePool))
	}
}

// openLoop sends the schedule over serveConns connections. A request due
// while every connection is busy waits for one; its latency still counts
// from when it was due.
func (t *serveTarget) openLoop(offs []time.Duration, idx []int) []sample {
	out := make([]sample, len(offs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(offs) {
					return
				}
				s := sample{due: start.Add(offs[k]), ready: time.Now()}
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Now()
				s.err = t.do(idx[k])
				s.done = time.Now()
				out[k] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	lat, lag, rtt []float64 // ms
}

func summarize(ss []sample) phaseStats {
	var ps phaseStats
	for _, s := range ss {
		ps.lat = append(ps.lat, s.latencyMs())
		ps.lag = append(ps.lag, s.sendLagMs())
		ps.rtt = append(ps.rtt, float64(s.done.Sub(s.sent).Nanoseconds())/1e6)
	}
	return ps
}

// phase offers the fixed serveRate for d on the seeded schedule.
func (t *serveTarget) phase(d time.Duration, seed int64, l *ledger) phaseStats {
	offs, idx := arrivals(seed, serveRate, d)
	ss := t.openLoop(offs, idx)
	for _, s := range ss {
		l.unit(s.err)
	}
	return summarize(ss)
}

// saturate sends requests back to back over serveConns connections (a
// closed loop) for d and returns the goodput: the median over rateWindow
// windows of replies that passed their check per second.
func (t *serveTarget) saturate(d time.Duration, seed int64, l *ledger) float64 {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	var ends []time.Time
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wrng := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				err := t.do(wrng.Intn(servePool))
				done := time.Now()
				mu.Lock()
				l.unit(err)
				if err == nil {
					ends = append(ends, done)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return windowCountRate(ends, start, d)
}

// references evaluates every pool request on a dedicated-instance server
// (DisablePool): the bit-identity reference for served replies.
func serveReferences(in *serveInputs) ([]float64, error) {
	opts := serve.DefaultOptions()
	opts.DisablePool = true
	srv := serve.NewServer(opts)
	defer srv.Close()
	refs := make([]float64, len(in.Requests))
	for i, rq := range in.Requests {
		var req serve.EvaluateRequest
		if err := json.Unmarshal(rq.Body, &req); err != nil {
			return nil, err
		}
		resp, _, err := srv.Evaluate(context.Background(), &req)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", rq.ID, err)
		}
		refs[i] = resp.LogLikelihood
	}
	return refs, nil
}

// runServe drives serve.Server over loopback HTTP at a fixed offered rate,
// then saturates it.
func runServe(o runOpts) (*report, error) {
	in, err := genServe(o.seed)
	if err != nil {
		return nil, err
	}
	refs, err := serveReferences(in)
	if err != nil {
		return nil, err
	}
	t, setupS, err := timeSetup(func() (*serveTarget, error) {
		srv, url, stop, err := startServer(serve.DefaultOptions())
		if err != nil {
			return nil, err
		}
		t := &serveTarget{srv: srv, url: url, stop: stop, client: newClient(), in: in, refs: refs}
		// Warm-up: every pool request once, so calculators and the eigen
		// cache are built before timing.
		for i := range in.Requests {
			if err := t.do(i); err != nil {
				t.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return t, nil
	}, (*serveTarget).close)
	if err != nil {
		return nil, err
	}
	defer t.close()
	r := newReport()
	dur := time.Duration(o.seconds * float64(time.Second))
	// The fixed-rate phase takes three quarters of the run and saturation
	// the rest.
	fixed := dur * 3 / 4
	if !o.traced {
		ps := t.phase(fixed, in.ArrivalsSeed, r.ledger)
		t.checkGenerator(r, ps)
		latencyMetrics(r, ps.lat, serveTailQ, fmt.Sprintf("request at %.0f req/s", serveRate))
		capRate := t.saturate(dur-fixed, in.ArrivalsSeed+1, r.ledger)
		r.set("throughput", "1/s", capRate)
		r.set("gflops", "GFLOPS", capRate*serveGflopPerRequest())
		r.set("setup_s", "s", setupS)
		r.set("mem_mb", "MB", peakRSSMB())
		return r, nil
	}
	if err := t.tracedRun(r, fixed, in); err != nil {
		return nil, err
	}
	return r, nil
}

func (t *serveTarget) close() {
	t.stop()
	t.client.CloseIdleConnections()
}

// checkGenerator records the generator's send lag and invalidates the run
// when the generator itself fell behind its schedule.
func (t *serveTarget) checkGenerator(r *report, ps phaseStats) {
	lag, _ := percentile(ps.lag, 0.99)
	r.set("load.send_lag_p99_ms", "ms", lag)
	if lag > maxSendLagMs {
		r.ledger.markInvalid("load generator fell behind: p99 send lag %.3f ms > %.1f ms", lag, maxSendLagMs)
	}
}

// serveGflopPerRequest is the effective partials work, in GFLOP, of one
// request: 15 operations on 16 tips × 128 patterns × 4 categories × 4
// states (random sequences leave essentially every column unique).
func serveGflopPerRequest() float64 {
	return float64((serveTips-1)*gammaCategories*serveSites*4) * float64(4*4+1) / 1e9
}

// tracedRun measures the serve layers: an untraced and a traced phase at
// serveRate, the server's own counters and spans around the
// traced phase, in-process Evaluate allocations, and the probes of the
// layers below on a request-shaped instance.
func (t *serveTarget) tracedRun(r *report, d time.Duration, in *serveInputs) error {
	psU := t.phase(d/2, in.ArrivalsSeed, r.ledger)
	m0, err := scrapeMetrics(t.url)
	if err != nil {
		return err
	}
	a := gcRead()
	psT := t.phase(d/2, in.ArrivalsSeed+2, r.ledger)
	b := gcRead()
	m1, err := scrapeMetrics(t.url)
	if err != nil {
		return err
	}
	spans, err := scrapeSpans(t.url)
	if err != nil {
		return err
	}
	t.checkGenerator(r, psT)
	runtimeMetrics(r, a, b, len(psT.lat))
	r.set("trace.overhead_frac", "ratio", median(psT.lat)/median(psU.lat)-1)

	delta := func(name string) float64 { return m1[name] - m0[name] }
	ratio := func(hit, miss string) float64 {
		h, m := delta(hit), delta(miss)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	r.set("serve.pool_hit_rate", "ratio", ratio("beagled_pool_hits_total", "beagled_pool_misses_total"))
	r.set("serve.eigen_hit_rate", "ratio", ratio("beagled_eigen_cache_hits_total", "beagled_eigen_cache_misses_total"))
	if bt := delta("beagled_calc_batches_total"); bt > 0 {
		r.set("serve.batch_fill", "count", delta("beagled_calc_requests_total")/bt)
	}
	compile, wait, batch, evaluate := spans["serve compile"], spans["serve wait"], spans["serve batch"], spans["serve request"]
	r.set("serve.compile_us", "us", compile)
	r.set("serve.queue_us", "us", wait)
	r.set("serve.batch_us", "us", batch)
	r.set("serve.http_us", "us", mean(psT.rtt)*1e3-evaluate)
	r.set("unattributed_frac", "ratio", (evaluate-compile-wait-batch)/(mean(psT.lat)*1e3))

	allocs, err := evaluateAllocs(t.srv, in)
	if err != nil {
		return err
	}
	r.set("serve.evaluate_allocs", "count", allocs)

	// The layers below the server, probed on a request-shaped instance.
	pin, err := genPeel(in.ArrivalsSeed, serveTips, 4, serveSites)
	if err != nil {
		return err
	}
	p, err := newProblem(pin)
	if err != nil {
		return err
	}
	md, err := buildModel(pin)
	if err != nil {
		return err
	}
	opts := serve.DefaultOptions()
	inst, err := p.newInstance(md, opts.Flags, opts.Threads)
	if err != nil {
		return err
	}
	defer inst.Finalize()
	ct := &callTimes{}
	start := time.Now()
	for i := 0; time.Since(start) < probeBudget; i++ {
		if _, err := p.eval(inst, i, ct); err != nil {
			return err
		}
	}
	ct.metrics(r)
	if err := cpuLayer(r, p, md, opts.Flags, opts.Threads); err != nil {
		return err
	}
	modelLayer(r, md.m, p.tree)
	r.zeroBypassed()
	return nil
}

// evaluateAllocs is the mean heap allocation count of one in-process
// Server.Evaluate over the request pool, run sequentially.
func evaluateAllocs(srv *serve.Server, in *serveInputs) (float64, error) {
	reqs := make([]serve.EvaluateRequest, len(in.Requests))
	for i, rq := range in.Requests {
		if err := json.Unmarshal(rq.Body, &reqs[i]); err != nil {
			return 0, err
		}
	}
	a := readRuntime()
	for i := range reqs {
		if _, _, err := srv.Evaluate(context.Background(), &reqs[i]); err != nil {
			return 0, err
		}
	}
	b := readRuntime()
	return float64(b.mallocs-a.mallocs) / float64(len(reqs)), nil
}

// scrapeMetrics reads the server's Prometheus /metrics, summing samples of
// one metric name across labels.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// scrapeSpans reads the server's /debug/trace summary and returns each
// span kind's mean duration in microseconds.
func scrapeSpans(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/trace: %s", resp.Status)
	}
	var rows []struct {
		Kind    string `json:"kind"`
		Count   int    `json:"count"`
		TotalNs int64  `json:"total_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("decoding /debug/trace: %w", err)
	}
	out := map[string]float64{}
	for _, row := range rows {
		if row.Count > 0 {
			out[row.Kind] = float64(row.TotalNs) / float64(row.Count) / 1e3
		}
	}
	return out, nil
}
