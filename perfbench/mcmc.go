package main

import (
	"fmt"
	"runtime"
	"time"

	"gobeagle"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/mcmc"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// MC3 settings of the mcmc workload.
const (
	mcmcChains   = 2
	mcmcHeat     = 0.1
	mcmcNNI      = 0.2
	segmentGens  = 500 // generations per mcmc.Run call
	mcmcFlags    = gobeagle.FlagReuse | gobeagle.FlagThreadingThreadPool
	mcmcThreads  = 1
	mcmcTailQ    = 0.99
	nativeRelTol = 1e-9
)

// timedEngine wraps a chain's likelihood engine and records when each call
// started and ended, so generation walls and likelihood time are measured
// from outside the sampler. In a traced phase (ct non-nil) it evaluates
// through the chain's instance with the same API calls BeagleEngine makes,
// timing the schedule build and each call.
type timedEngine struct {
	inner        *mcmc.BeagleEngine
	starts, ends []time.Time

	ct    *callTimes
	sched time.Duration
	mats  []int
	lens  []float64
	ops   []gobeagle.Operation
}

func (e *timedEngine) LogLikelihood(t *tree.Tree) (float64, error) {
	e.starts = append(e.starts, time.Now())
	var l float64
	var err error
	if e.ct == nil {
		l, err = e.inner.LogLikelihood(t)
	} else {
		l, err = e.tracedLogLikelihood(t)
	}
	e.ends = append(e.ends, time.Now())
	return l, err
}

func (e *timedEngine) tracedLogLikelihood(t *tree.Tree) (float64, error) {
	t0 := time.Now()
	sched := t.FullSchedule()
	e.sched += time.Since(t0)
	e.mats, e.lens, e.ops = e.mats[:0], e.lens[:0], e.ops[:0]
	for _, mu := range sched.Matrices {
		e.mats = append(e.mats, mu.Matrix)
		e.lens = append(e.lens, mu.Length)
	}
	for _, op := range sched.Ops {
		e.ops = append(e.ops, gobeagle.Operation{Destination: op.Dest, DestScaleWrite: gobeagle.None,
			DestScaleRead: gobeagle.None, Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat})
	}
	inst := e.inner.Instance()
	t1 := time.Now()
	if err := inst.UpdateTransitionMatrices(0, e.mats, e.lens); err != nil {
		return 0, err
	}
	t2 := time.Now()
	if err := inst.UpdatePartials(e.ops); err != nil {
		return 0, err
	}
	t3 := time.Now()
	l, err := inst.CalculateRootLogLikelihoods(sched.Root, gobeagle.None)
	e.ct.n++
	e.ct.matrices += t2.Sub(t1)
	e.ct.partials += t3.Sub(t2)
	e.ct.root += time.Since(t3)
	return l, err
}

func (e *timedEngine) Close() error { return nil }

func (e *timedEngine) reset() { e.starts, e.ends = e.starts[:0], e.ends[:0] }

// mcmcData is the parsed data set of the mcmc workload.
type mcmcData struct {
	in   *mcmcInputs
	tree *tree.Tree
	ps   *seqgen.PatternSet
}

func (d *mcmcData) model() (*substmodel.Model, *substmodel.SiteRates, error) {
	m, err := substmodel.NewHKY85(d.in.Kappa, d.in.Freqs)
	if err != nil {
		return nil, nil, err
	}
	rates, err := substmodel.GammaRates(d.in.Alpha, gammaCategories)
	return m, rates, err
}

// newChainEngines builds one BeagleEngine per chain. mcmc.NewBeagleEngine
// takes no thread count and the CPU engine sizes its pool from GOMAXPROCS,
// so the pool is built under GOMAXPROCS(1): one worker per chain keeps
// chains × threads within the host's cores.
func (d *mcmcData) newChainEngines() ([]*timedEngine, error) {
	m, rates, err := d.model()
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(mcmcThreads)
	defer runtime.GOMAXPROCS(prev)
	var out []*timedEngine
	for i := 0; i < mcmcChains; i++ {
		e, err := mcmc.NewBeagleEngine(m, rates, d.ps, d.tree, 0, mcmcFlags)
		if err != nil {
			closeChains(out)
			return nil, err
		}
		out = append(out, &timedEngine{inner: e})
	}
	return out, nil
}

func closeChains(es []*timedEngine) {
	for _, e := range es {
		e.inner.Close()
	}
}

// segment is one mcmc.Run call and its measurements.
type segment struct {
	res      *mcmc.Result
	genWall  []time.Duration // per generation
	genEnd   []time.Time
	critLik  []time.Duration // likelihood time of the chain that finished last
	start    *tree.Tree
	seed     int64
	lnLCalls []time.Duration
}

// runSegment runs segmentGens generations from start and derives, from the
// wrapped engines' call times, each generation's wall time (between
// consecutive ends of the slower chain's likelihood call) and the
// likelihood time on that critical path.
func runSegment(chains []*timedEngine, start *tree.Tree, seed int64, sequential bool) (*segment, error) {
	engines := make([]mcmc.LikelihoodEngine, len(chains))
	for i, c := range chains {
		c.reset()
		engines[i] = c
	}
	t0 := time.Now()
	res, err := mcmc.Run(mcmc.Config{
		Tree: start, Engines: engines, Generations: segmentGens,
		HeatLambda: mcmcHeat, NNIProbability: mcmcNNI, Seed: seed, Sequential: sequential,
	})
	seg := &segment{res: res, start: start, seed: seed}
	if err != nil {
		return seg, err
	}
	prevEnd := t0
	for g := 0; g <= segmentGens; g++ {
		var end time.Time
		var lik time.Duration
		for _, c := range chains {
			if c.ends[g].After(end) {
				end, lik = c.ends[g], c.ends[g].Sub(c.starts[g])
			}
			if g > 0 {
				seg.lnLCalls = append(seg.lnLCalls, c.ends[g].Sub(c.starts[g]))
			}
		}
		if g > 0 { // call 0 is the segment's initial likelihood
			seg.genWall = append(seg.genWall, end.Sub(prevEnd))
			seg.genEnd = append(seg.genEnd, end)
			seg.critLik = append(seg.critLik, lik)
		}
		prevEnd = end
	}
	return seg, nil
}

// checkSegment re-evaluates the cold chain's final tree with the
// independent native engine.
func checkSegment(seg *segment, native *mcmc.NativeEngine) error {
	want, err := native.LogLikelihood(seg.res.FinalTree)
	if err != nil {
		return err
	}
	got := seg.res.Trace[len(seg.res.Trace)-1]
	return within(fmt.Sprintf("segment seed %d final tree", seg.seed), got, want, nativeRelTol)
}

func runMCMC(o runOpts) (*report, error) {
	in, err := genMCMC(o.seed)
	if err != nil {
		return nil, err
	}
	t, err := tree.ParseNewick(in.Newick)
	if err != nil {
		return nil, err
	}
	d := &mcmcData{in: in, tree: t, ps: &seqgen.PatternSet{
		StateCount: 4, TipCount: t.TipCount, Patterns: in.Patterns, Weights: ones(len(in.Patterns)),
	}}
	chains, setupS, err := timeSetup(func() ([]*timedEngine, error) {
		cs, err := d.newChainEngines()
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			if _, err := c.LogLikelihood(d.tree); err != nil {
				closeChains(cs)
				return nil, err
			}
		}
		return cs, nil
	}, closeChains)
	if err != nil {
		return nil, err
	}
	defer closeChains(chains)
	m, rates, err := d.model()
	if err != nil {
		return nil, err
	}
	native, err := mcmc.NewNativeEngine(m, rates, d.ps, false)
	if err != nil {
		return nil, err
	}
	r := newReport()

	// phase runs segments for dur, checking each one's final tree. Every
	// segment starts from the generated tree, so segments are alike and a
	// run's cost does not drift with how far the chains have wandered.
	segIdx := 0
	var first *segment
	phase := func(dur time.Duration) (segs []*segment, l *loop) {
		start := time.Now()
		l = &loop{start: start}
		for time.Since(start) < dur {
			seg, err := runSegment(chains, d.tree, in.SamplerSeed+int64(segIdx), false)
			segIdx++
			if err == nil {
				err = checkSegment(seg, native)
			}
			r.ledger.units(segmentGens, err)
			if err != nil {
				break
			}
			if first == nil {
				first = seg
			}
			segs = append(segs, seg)
			for g := range seg.genWall {
				l.ends = append(l.ends, seg.genEnd[g])
				l.secs = append(l.secs, seg.genWall[g].Seconds())
			}
		}
		l.wall = time.Since(start)
		return segs, l
	}
	gens := func(segs []*segment) int { return len(segs) * segmentGens }

	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.traced {
		misses0 := opMisses(chains)
		segs, l := phase(dur)
		flopsPerGen := flops.PartialsOp(d.dims()) * float64(opMisses(chains)-misses0) / float64(gens(segs))
		rate := l.rate()
		r.set("throughput", "1/s", rate)
		r.set("gflops", "GFLOPS", flopsPerGen*rate/1e9)
		latencyMetrics(r, l.ms(), mcmcTailQ, "generation")
		r.set("setup_s", "s", setupS)
		r.set("mem_mb", "MB", peakRSSMB())
	} else {
		_, lU := phase(dur / 2)
		reuse0 := sumReuse(chains)
		// Each chain runs on its own goroutine, so each gets its own
		// call-time accumulator.
		for _, c := range chains {
			c.ct = &callTimes{}
		}
		a := gcRead()
		segsT, lT := phase(dur / 2)
		b := gcRead()
		ct := &callTimes{}
		var sched time.Duration
		for _, c := range chains {
			ct.add(c.ct)
			c.ct = nil
			sched += c.sched
		}
		runtimeMetrics(r, a, b, gens(segsT))
		reuse := sumReuse(chains)
		reuse.OpHits -= reuse0.OpHits
		reuse.OpMisses -= reuse0.OpMisses
		reuse.MatrixHits -= reuse0.MatrixHits
		reuse.MatrixMisses -= reuse0.MatrixMisses
		r.set("reuse.op_hit_rate", "ratio", reuse.OpHitRate())
		r.set("reuse.matrix_hit_rate", "ratio", reuse.MatrixHitRate())
		r.set("trace.overhead_frac", "ratio", 1-lT.rate()/lU.rate())
		var genSum, critSum, callSum time.Duration
		var calls, accepted, proposed int
		for _, s := range segsT {
			for g := range s.genWall {
				genSum += s.genWall[g]
				critSum += s.critLik[g]
			}
			for _, c := range s.lnLCalls {
				callSum += c
			}
			calls += len(s.lnLCalls)
			accepted += s.res.AcceptedMoves
			proposed += s.res.ProposedMoves
		}
		n := float64(gens(segsT))
		genUs := float64(genSum.Nanoseconds()) / 1e3 / n
		r.set("mcmc.loglik_us", "us", float64(callSum.Nanoseconds())/1e3/float64(calls))
		r.set("mcmc.client_us", "us", genUs-float64(critSum.Nanoseconds())/1e3/n)
		r.set("mcmc.accept_rate", "ratio", float64(accepted)/float64(proposed))

		modelLayer(r, m, d.tree)
		ct.metrics(r)
		r.set("tree.schedule_us", "us", float64(sched.Nanoseconds())/1e3/float64(ct.n))
		p, md, err := d.asProblem()
		if err != nil {
			return nil, err
		}
		if err := cpuLayer(r, p, md, mcmcFlags, mcmcThreads); err != nil {
			return nil, err
		}
		// A likelihood call is the schedule build plus three API calls;
		// whatever those do not cover of it is unattributed.
		lik := r.metrics["mcmc.loglik_us"].Value
		covered := r.metrics["tree.schedule_us"].Value + r.metrics["api.matrices_us"].Value +
			r.metrics["api.partials_us"].Value + r.metrics["api.root_us"].Value
		r.set("unattributed_frac", "ratio", (lik-covered)/genUs)
		r.zeroBypassed()
	}

	// The sampler must be deterministic: the first measured segment,
	// replayed on fresh engines with chains stepped sequentially, yields a
	// bit-identical trace.
	if first != nil {
		fresh, err := d.newChainEngines()
		if err != nil {
			return nil, err
		}
		replay, err := runSegment(fresh, first.start, first.seed, true)
		closeChains(fresh)
		if err != nil {
			return nil, err
		}
		if !sameTrace(replay.res.Trace, first.res.Trace) {
			r.ledger.markInvalid("mcmc trace for seed %d is not reproducible", first.seed)
		}
	}
	return r, nil
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func sameTrace(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if sameBits("trace", a[i], b[i]) != nil {
			return false
		}
	}
	return true
}

func sumReuse(chains []*timedEngine) gobeagle.ReuseStats {
	var t gobeagle.ReuseStats
	for _, c := range chains {
		s := c.inner.Instance().ReuseStats()
		t.OpHits += s.OpHits
		t.OpMisses += s.OpMisses
		t.MatrixHits += s.MatrixHits
		t.MatrixMisses += s.MatrixMisses
	}
	return t
}

// opMisses counts the partials operations the chains executed rather
// than skipped.
func opMisses(chains []*timedEngine) uint64 {
	var n uint64
	for _, c := range chains {
		n += c.inner.Instance().ReuseStats().OpMisses
	}
	return n
}

func (d *mcmcData) dims() kernels.Dims {
	return kernels.Dims{StateCount: 4, PatternCount: len(d.in.Patterns), CategoryCount: gammaCategories}
}

// asProblem views the mcmc data set as a peel problem at the starting
// tree's branch lengths, for the kernel and strategy probes.
func (d *mcmcData) asProblem() (*problem, *model, error) {
	lengths := make([]float64, d.tree.NodeCount())
	for _, n := range d.tree.Nodes() {
		lengths[n.Index] = n.Length
	}
	pin := &peelInputs{Newick: d.in.Newick, StateCount: 4, Kappa: d.in.Kappa, Freqs: d.in.Freqs,
		Alpha: d.in.Alpha, Patterns: d.in.Patterns, Lengths: [][]float64{lengths}}
	p, err := newProblem(pin)
	if err != nil {
		return nil, nil, err
	}
	md, err := buildModel(pin)
	return p, md, err
}
