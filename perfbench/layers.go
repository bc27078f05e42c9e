package main

import (
	"math/rand"
	"runtime"
	"time"

	"gobeagle"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// Layer probes of a traced run. Each times public entry points of one
// module directly, from outside, on the workload's own shape.

// probeBudget bounds each repeated-call probe; minReps is its floor.
const (
	probeBudget = 300 * time.Millisecond
	minReps     = 3
)

// timeCalls calls f repeatedly (at least minReps times, until budget is
// spent) and returns the median call time.
func timeCalls(budget time.Duration, f func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

// kernelBufs are random operands of the workload's dims for direct kernel
// calls.
type kernelBufs struct {
	d            kernels.Dims
	dest, p1, p2 []float64
	m1, m2       []float64
	s1, s2       []int32
}

func newKernelBufs(d kernels.Dims) *kernelBufs {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		return x
	}
	states := func() []int32 {
		x := make([]int32, d.PatternCount)
		for i := range x {
			x[i] = int32(rng.Intn(d.StateCount))
		}
		return x
	}
	return &kernelBufs{d: d,
		dest: fill(d.PartialsLen()), p1: fill(d.PartialsLen()), p2: fill(d.PartialsLen()),
		m1: fill(d.MatrixLen()), m2: fill(d.MatrixLen()), s1: states(), s2: states()}
}

// op runs the direct single-thread kernel of a partials operation with
// tips children given as compact tip states.
func (b *kernelBufs) op(tips int) {
	n := b.d.PatternCount
	switch tips {
	case 0:
		kernels.PartialsPartials(b.dest, b.p1, b.m1, b.p2, b.m2, b.d, 0, n)
	case 1:
		kernels.StatesPartials(b.dest, b.s1, b.m1, b.p2, b.m2, b.d, 0, n)
	default:
		kernels.StatesStates(b.dest, b.s1, b.m1, b.s2, b.m2, b.d, 0, n)
	}
}

// peel runs the direct kernel of every operation of t's full schedule,
// single-threaded: the kernel work of one batch without the scheduler.
func (b *kernelBufs) peel(t *tree.Tree, ops []tree.Op) {
	for _, op := range ops {
		tips := 0
		if op.Child1 < t.TipCount {
			tips++
		}
		if op.Child2 < t.TipCount {
			tips++
		}
		b.op(tips)
	}
}

// kernelProbe times direct single-thread kernel calls on the workload's
// dims: the general partials kernel, the 4-state unrolled kernel (4-state
// shapes only), one transition-matrix update for all categories and the
// root reduction.
func kernelProbe(r *report, b *kernelBufs, md *model) {
	d, n := b.d, b.d.PatternCount
	pp := timeCalls(probeBudget, func() { b.op(0) })
	r.set("kernels.partials_gflops", "GFLOPS", flops.GFLOPS(flops.PartialsOp(d), pp))
	if d.StateCount == 4 {
		pp4 := timeCalls(probeBudget, func() { kernels.PartialsPartials4(b.dest, b.p1, b.m1, b.p2, b.m2, d, 0, n) })
		r.set("kernels.unrolled4_gflops", "GFLOPS", flops.GFLOPS(flops.PartialsOp(d), pp4))
	}

	e := &kernels.Eigen{StateCount: d.StateCount, Values: md.eig.Values,
		Vectors: md.eig.Vectors.Data, InverseVectors: md.eig.InverseVectors.Data}
	mat := make([]float64, d.MatrixLen())
	mt := timeCalls(probeBudget, func() { kernels.UpdateTransitionMatrix(mat, e, 0.1, md.rates.Rates) })
	r.set("kernels.matrix_ns", "ns", float64(mt.Nanoseconds()))

	site := make([]float64, n)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	rt := timeCalls(probeBudget, func() {
		kernels.SiteLikelihoods(site, b.p1, md.rates.Weights, md.m.Frequencies, d, 0, n)
		kernels.RootLogLikelihood(site, w, nil, 0, n)
	})
	r.set("kernels.root_ns", "ns", float64(rt.Nanoseconds()))
}

// strategies are the CPU execution strategies the strategy probe sweeps.
var strategies = []struct {
	name  string
	flags gobeagle.Flags
}{
	{"serial", 0},
	{"sse", gobeagle.FlagVectorSSE},
	{"futures", gobeagle.FlagThreadingFutures},
	{"threadcreate", gobeagle.FlagThreadingThreadCreate},
	{"threadpool", gobeagle.FlagThreadingThreadPool},
	{"hybrid", gobeagle.FlagThreadingThreadPoolHybrid},
}

// strategyProbe times one full-schedule UpdatePartials batch (reuse off)
// per CPU strategy on the workload's shape, with every thread of the host.
func strategyProbe(r *report, p *problem, md *model) error {
	for _, s := range strategies {
		inst, err := p.newInstance(md, s.flags, 0)
		if err != nil {
			return err
		}
		var ferr error
		d := timeCalls(probeBudget, func() {
			if err := inst.UpdatePartials(p.ops); err != nil {
				ferr = err
			}
		})
		inst.Finalize()
		if ferr != nil {
			return ferr
		}
		r.set("cpuimpl.strategy_ms."+s.name, "ms", float64(d.Nanoseconds())/1e6)
	}
	return nil
}

// cpuLayer sets the kernel and strategy probes, and cpuimpl.batch_ms and
// cpuimpl.parallel_eff for a workload whose instances run with flags on
// threads threads. The batch and the direct single-thread peel of the same
// schedule alternate, so host load hits both alike.
func cpuLayer(r *report, p *problem, md *model, flags gobeagle.Flags, threads int) error {
	b := newKernelBufs(p.dims)
	kernelProbe(r, b, md)
	if err := strategyProbe(r, p, md); err != nil {
		return err
	}
	inst, err := p.newInstance(md, flags&^gobeagle.FlagReuse, threads)
	if err != nil {
		return err
	}
	defer inst.Finalize()
	var batch, direct []float64
	start := time.Now()
	for len(batch) < minReps || time.Since(start) < 2*probeBudget {
		t0 := time.Now()
		if err := inst.UpdatePartials(p.ops); err != nil {
			return err
		}
		t1 := time.Now()
		b.peel(p.tree, p.sched.Ops)
		batch = append(batch, float64(t1.Sub(t0)))
		direct = append(direct, float64(time.Since(t1)))
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	r.set("cpuimpl.batch_ms", "ms", median(batch)/1e6)
	r.set("cpuimpl.parallel_eff", "ratio", median(direct)/(median(batch)*float64(threads)))
	return nil
}

// modelLayer sets substmodel.eigen_us and tree.schedule_us.
func modelLayer(r *report, m *substmodel.Model, t *tree.Tree) {
	eig := timeCalls(probeBudget, func() { m.Eigen() })
	r.set("substmodel.eigen_us", "us", float64(eig.Nanoseconds())/1e3)
	sch := timeCalls(probeBudget/3, func() { t.FullSchedule() })
	r.set("tree.schedule_us", "us", float64(sch.Nanoseconds())/1e3)
}
