package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"gobeagle"
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
	"gobeagle/internal/remoteimpl"
	"gobeagle/internal/trace"
)

// peelRun is the measured loop of a full-evaluation workload: one closed
// loop of evaluations on one instance, each checked for bit-identity.
type peelRun struct {
	p    *problem
	inst *gobeagle.Instance
	refs []float64
	r    *report
	next int // branch-length set of the next evaluation
}

// loop is one closed-loop phase: back-to-back units from start.
type loop struct {
	start time.Time
	ends  []time.Time
	secs  []float64 // unit durations
	wall  time.Duration
}

func (l *loop) add(t0, t1 time.Time) {
	l.ends = append(l.ends, t1)
	l.secs = append(l.secs, t1.Sub(t0).Seconds())
}

// rate is the phase's throughput in units per second (median of windows).
func (l *loop) rate() float64 { return windowUnitRate(l.ends, l.secs, l.start) }

// ms is the units' latencies in milliseconds.
func (l *loop) ms() []float64 {
	out := make([]float64, len(l.secs))
	for i, s := range l.secs {
		out[i] = s * 1e3
	}
	return out
}

// phase runs evaluations for d, checking each.
func (pr *peelRun) phase(d time.Duration, ct *callTimes) *loop {
	l := &loop{start: time.Now()}
	for time.Since(l.start) < d {
		t0 := time.Now()
		lnL, err := pr.p.eval(pr.inst, pr.next, ct)
		l.add(t0, time.Now())
		if err == nil {
			err = sameBits(fmt.Sprintf("evaluation %d", pr.next), lnL, pr.refs[pr.next%len(pr.refs)])
		}
		pr.r.ledger.unit(err)
		pr.next++
	}
	l.wall = time.Since(l.start)
	return l
}

// measure runs the workload's measured phase. Untraced, it reports the
// end-to-end metrics. Traced, it runs half the time untraced and half with
// per-call timing, and reports the API layer, runtime, overhead and
// unattributed share; the caller adds the other layers.
func (pr *peelRun) measure(o runOpts, tailQ float64, setupS float64) {
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.traced {
		l := pr.phase(dur, nil)
		rate := l.rate()
		pr.r.set("throughput", "1/s", rate)
		pr.r.set("gflops", "GFLOPS", pr.p.flopsPerEval()*rate/1e9)
		latencyMetrics(pr.r, l.ms(), tailQ, "full evaluation")
		pr.r.set("setup_s", "s", setupS)
		pr.r.set("mem_mb", "MB", peakRSSMB())
		return
	}
	lU := pr.phase(dur/2, nil)
	ct := &callTimes{}
	a := gcRead()
	lT := pr.phase(dur/2, ct)
	b := gcRead()
	runtimeMetrics(pr.r, a, b, len(lT.ends))
	ct.metrics(pr.r)
	pr.r.set("trace.overhead_frac", "ratio", 1-lT.rate()/lU.rate())
	pr.r.set("unattributed_frac", "ratio", 1-float64(ct.matrices+ct.partials+ct.root)/float64(lT.wall))
	rs := pr.inst.ReuseStats()
	pr.r.set("reuse.op_hit_rate", "ratio", rs.OpHitRate())
	pr.r.set("reuse.matrix_hit_rate", "ratio", rs.MatrixHitRate())
}

// runPeelCodon: repeated full post-order evaluations of a 61-state GY94+Γ4
// problem on one hybrid-threaded instance using every core.
func runPeelCodon(o runOpts) (*report, error) {
	in, err := genCodon(o.seed)
	if err != nil {
		return nil, err
	}
	p, err := newProblem(in)
	if err != nil {
		return nil, err
	}
	const flags = gobeagle.FlagThreadingThreadPoolHybrid
	threads := runtime.NumCPU()
	type built struct {
		md   *model
		inst *gobeagle.Instance
	}
	b, setupS, err := timeSetup(func() (*built, error) {
		md, err := buildModel(in)
		if err != nil {
			return nil, err
		}
		inst, err := p.newInstance(md, flags, threads)
		return &built{md, inst}, err
	}, func(b *built) { b.inst.Finalize() })
	if err != nil {
		return nil, err
	}
	defer b.inst.Finalize()
	refs, err := p.references(b.md)
	if err != nil {
		return nil, err
	}
	r := newReport()
	pr := &peelRun{p: p, inst: b.inst, refs: refs, r: r}
	// 60 to 80 evaluations of 0.3 to 0.4 s fit a 24 s run, so p80 is the
	// highest quantile that keeps ten samples beyond it.
	pr.measure(o, 0.80, setupS)
	if o.traced {
		if err := cpuLayer(r, p, b.md, flags, threads); err != nil {
			return nil, err
		}
		modelLayer(r, b.md.m, p.tree)
		r.zeroBypassed()
	}
	return r, nil
}

// startWorker boots an in-process remoteimpl worker hosting serial CPU
// engines behind a real loopback TCP listener.
func startWorker() (addr string, stop func(), err error) {
	w, err := remoteimpl.NewWorker(remoteimpl.WorkerOptions{
		Builder: func(g remoteimpl.Geometry, tr *trace.Tracer) (engine.Engine, error) {
			cfg := g.Config()
			cfg.Trace = tr
			return cpuimpl.New(cfg, cpuimpl.Serial)
		},
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Serve(ctx, ln)
	}()
	return ln.Addr().String(), func() { cancel(); <-done }, nil
}

// shardSetup is a distributed instance and the workers behind it.
type shardSetup struct {
	md    *model
	inst  *gobeagle.Instance
	stops []func()
}

func (s *shardSetup) close() {
	if s.inst != nil {
		s.inst.Finalize()
	}
	for _, stop := range s.stops {
		stop()
	}
}

// runShard: full evaluations on a distributed instance sharded evenly over
// two in-process workers behind loopback TCP.
func runShard(o runOpts) (*report, error) {
	in, err := genShard(o.seed)
	if err != nil {
		return nil, err
	}
	p, err := newProblem(in)
	if err != nil {
		return nil, err
	}
	s, setupS, err := timeSetup(func() (*shardSetup, error) {
		s := &shardSetup{}
		var addrs []string
		for i := 0; i < 2; i++ {
			addr, stop, err := startWorker()
			if err != nil {
				s.close()
				return nil, err
			}
			addrs = append(addrs, addr)
			s.stops = append(s.stops, stop)
		}
		if s.md, err = buildModel(in); err != nil {
			s.close()
			return nil, err
		}
		if s.inst, err = gobeagle.NewDistributedInstance(p.config(0, 0), addrs, nil, []float64{1, 1}); err != nil {
			s.close()
			return nil, err
		}
		if err := p.load(s.inst, s.md); err != nil {
			s.close()
			return nil, err
		}
		if _, err := p.eval(s.inst, 0, nil); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*shardSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	refs, err := p.references(s.md)
	if err != nil {
		return nil, err
	}
	r := newReport()
	pr := &peelRun{p: p, inst: s.inst, refs: refs, r: r}
	if !o.traced {
		pr.measure(o, 0.99, setupS)
		return r, nil
	}
	before := sumRemote(s.inst.RemoteStats())
	evals0 := pr.next
	pr.measure(o, 0.99, setupS)
	after := sumRemote(s.inst.RemoteStats())
	evals := float64(pr.next - evals0)
	r.set("remoteimpl.bytes_per_eval", "bytes", float64(after.BytesSent+after.BytesReceived-before.BytesSent-before.BytesReceived)/evals)
	r.set("remoteimpl.rpcs_per_eval", "count", float64(after.RPCs-before.RPCs)/evals)
	r.set("remoteimpl.retries", "count", float64(after.Retries+after.Redials))
	if err := shardLayers(r, p, s); err != nil {
		return nil, err
	}
	if err := cpuLayer(r, p, s.md, 0, 1); err != nil {
		return nil, err
	}
	modelLayer(r, s.md.m, p.tree)
	r.zeroBypassed()
	return r, nil
}

func sumRemote(ws []gobeagle.WorkerStats) gobeagle.WorkerStats {
	var t gobeagle.WorkerStats
	for _, w := range ws {
		t.RPCs += w.RPCs
		t.Retries += w.Retries
		t.Redials += w.Redials
		t.BytesSent += w.BytesSent
		t.BytesReceived += w.BytesReceived
		if w.FailedOver {
			t.FailedOver = true
		}
	}
	return t
}

// shardLayers measures the split itself, paired in one run: a single
// serial engine, a local two-device split and the distributed instance
// evaluate in rotation, and a local serial engine holding half the
// patterns gives the compute a worker does, so the rest of a shard
// evaluation is the wire.
func shardLayers(r *report, p *problem, s *shardSetup) error {
	single, err := p.newInstance(s.md, 0, 1)
	if err != nil {
		return err
	}
	defer single.Finalize()
	local2, err := gobeagle.NewMultiDeviceInstance(p.config(0, 1), []int{0, 0}, []float64{1, 1})
	if err != nil {
		return err
	}
	defer local2.Finalize()
	if err := p.load(local2, s.md); err != nil {
		return err
	}
	halfIn := *p.in
	halfIn.Patterns = p.in.Patterns[:len(p.in.Patterns)/2]
	halfP, err := newProblem(&halfIn)
	if err != nil {
		return err
	}
	half, err := halfP.newInstance(s.md, 0, 1)
	if err != nil {
		return err
	}
	defer half.Finalize()

	refs, err := p.references(s.md)
	if err != nil {
		return err
	}
	engines := []struct {
		inst *gobeagle.Instance
		p    *problem
		ms   []float64
	}{{inst: single, p: p}, {inst: local2, p: p}, {inst: s.inst, p: p}, {inst: half, p: halfP}}
	start := time.Now()
	for i := 0; i < 4*minReps || time.Since(start) < 2*time.Second; i++ {
		for k := range engines {
			e := &engines[k]
			t0 := time.Now()
			lnL, err := e.p.eval(e.inst, i, nil)
			e.ms = append(e.ms, msSince(t0))
			if err != nil {
				return err
			}
			if k < 3 {
				r.ledger.unit(sameBits(fmt.Sprintf("split %d evaluation %d", k, i), lnL, refs[i%len(refs)]))
			}
		}
	}
	single50, local50, dist50, half50 := median(engines[0].ms), median(engines[1].ms), median(engines[2].ms), median(engines[3].ms)
	r.set("multiimpl.local2_speedup", "ratio", single50/local50)
	r.set("remoteimpl.dist_speedup", "ratio", single50/dist50)
	r.set("remoteimpl.wire_ms", "ms", dist50-half50)
	return nil
}
