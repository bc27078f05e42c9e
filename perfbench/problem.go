package main

import (
	"fmt"
	"time"

	"gobeagle"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/linalg"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// problem is a peelInputs made ready for the library: parsed tree, its
// schedule, per-tip states and per-cycle matrix lengths. The substitution
// model is built (and eigendecomposed) by buildModel, inside the timed
// set-up, because that is work a client pays on every start.
type problem struct {
	in      *peelInputs
	tree    *tree.Tree
	sched   *tree.Schedule
	ops     []gobeagle.Operation
	mats    []int
	lengths [][]float64 // [cycle][i] for mats[i]
	tips    [][]int     // [tip][pattern]
	weights []float64
	dims    kernels.Dims
}

func newProblem(in *peelInputs) (*problem, error) {
	t, err := tree.ParseNewick(in.Newick)
	if err != nil {
		return nil, err
	}
	p := &problem{in: in, tree: t, sched: t.FullSchedule()}
	p.dims = kernels.Dims{StateCount: in.StateCount, PatternCount: len(in.Patterns), CategoryCount: gammaCategories}
	for _, op := range p.sched.Ops {
		p.ops = append(p.ops, gobeagle.Operation{
			Destination: op.Dest, DestScaleWrite: gobeagle.None, DestScaleRead: gobeagle.None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat, Child2: op.Child2, Child2Matrix: op.Child2Mat,
		})
	}
	for _, mu := range p.sched.Matrices {
		p.mats = append(p.mats, mu.Matrix)
	}
	for _, set := range in.Lengths {
		ls := make([]float64, len(p.mats))
		for i, m := range p.mats {
			ls[i] = set[m]
		}
		p.lengths = append(p.lengths, ls)
	}
	p.tips = make([][]int, t.TipCount)
	for tip := range p.tips {
		p.tips[tip] = make([]int, len(in.Patterns))
		for pat, col := range in.Patterns {
			p.tips[tip][pat] = col[tip]
		}
	}
	p.weights = ones(len(in.Patterns))
	return p, nil
}

// model is the substitution model and rate mixture of a problem.
type model struct {
	m     *substmodel.Model
	eig   *linalg.EigenDecomposition
	rates *substmodel.SiteRates
}

func buildModel(in *peelInputs) (*model, error) {
	var m *substmodel.Model
	var err error
	if in.StateCount == substmodel.CodonStates {
		m, err = substmodel.NewGY94(in.Kappa, in.Omega, in.Freqs)
	} else {
		m, err = substmodel.NewHKY85(in.Kappa, in.Freqs)
	}
	if err != nil {
		return nil, err
	}
	eig, err := m.Eigen()
	if err != nil {
		return nil, err
	}
	rates, err := substmodel.GammaRates(in.Alpha, gammaCategories)
	if err != nil {
		return nil, err
	}
	return &model{m: m, eig: eig, rates: rates}, nil
}

func (p *problem) config(flags gobeagle.Flags, threads int) gobeagle.Config {
	n := p.tree.NodeCount()
	return gobeagle.Config{
		TipCount: p.tree.TipCount, PartialsBuffers: n, MatrixBuffers: n, EigenBuffers: 1,
		StateCount: p.dims.StateCount, PatternCount: p.dims.PatternCount,
		CategoryCount: p.dims.CategoryCount, Flags: flags, Threads: threads,
	}
}

// load sends the model and data to an instance.
func (p *problem) load(inst *gobeagle.Instance, md *model) error {
	steps := []error{
		inst.SetEigenDecomposition(0, md.eig.Values, md.eig.Vectors.Data, md.eig.InverseVectors.Data),
		inst.SetCategoryRates(md.rates.Rates),
		inst.SetCategoryWeights(md.rates.Weights),
		inst.SetStateFrequencies(md.m.Frequencies),
		inst.SetPatternWeights(p.weights),
	}
	for _, err := range steps {
		if err != nil {
			return err
		}
	}
	for tip, states := range p.tips {
		if err := inst.SetTipStates(tip, states); err != nil {
			return err
		}
	}
	return nil
}

// newInstance creates, loads and warms (one full evaluation) an instance.
func (p *problem) newInstance(md *model, flags gobeagle.Flags, threads int) (*gobeagle.Instance, error) {
	inst, err := gobeagle.NewInstance(p.config(flags, threads))
	if err != nil {
		return nil, err
	}
	if err := p.load(inst, md); err == nil {
		_, err = p.eval(inst, 0, nil)
	}
	if err != nil {
		inst.Finalize()
		return nil, err
	}
	return inst, nil
}

// callTimes accumulates per-call wall time of the three API calls of a full
// evaluation.
type callTimes struct {
	n                        int
	matrices, partials, root time.Duration
}

// eval runs one full evaluation (matrices → partials → root) with branch
// length set i. When ct is non-nil each call is timed.
func (p *problem) eval(inst *gobeagle.Instance, i int, ct *callTimes) (float64, error) {
	ls := p.lengths[i%len(p.lengths)]
	var t0, t1, t2 time.Time
	if ct != nil {
		t0 = time.Now()
	}
	if err := inst.UpdateTransitionMatrices(0, p.mats, ls); err != nil {
		return 0, err
	}
	if ct != nil {
		t1 = time.Now()
	}
	if err := inst.UpdatePartials(p.ops); err != nil {
		return 0, err
	}
	if ct != nil {
		t2 = time.Now()
	}
	lnL, err := inst.CalculateRootLogLikelihoods(p.sched.Root, gobeagle.None)
	if ct != nil {
		ct.n++
		ct.matrices += t1.Sub(t0)
		ct.partials += t2.Sub(t1)
		ct.root += time.Since(t2)
	}
	return lnL, err
}

// flopsPerEval is the effective floating-point work of one full evaluation.
func (p *problem) flopsPerEval() float64 { return flops.Total(p.dims, len(p.ops)) }

// references evaluates every branch-length set on a serial-strategy
// instance: the bit-identity reference for the measured instance.
func (p *problem) references(md *model) ([]float64, error) {
	inst, err := p.newInstance(md, 0, 1)
	if err != nil {
		return nil, err
	}
	defer inst.Finalize()
	refs := make([]float64, len(p.lengths))
	for i := range refs {
		if refs[i], err = p.eval(inst, i, nil); err != nil {
			return nil, fmt.Errorf("reference evaluation %d: %w", i, err)
		}
	}
	return refs, nil
}

func (ct *callTimes) add(o *callTimes) {
	ct.n += o.n
	ct.matrices += o.matrices
	ct.partials += o.partials
	ct.root += o.root
}

// metrics reports per-call API times.
func (ct *callTimes) metrics(r *report) {
	if ct.n == 0 {
		return
	}
	n := float64(ct.n)
	r.set("api.matrices_us", "us", float64(ct.matrices.Nanoseconds())/1e3/n)
	r.set("api.partials_us", "us", float64(ct.partials.Nanoseconds())/1e3/n)
	r.set("api.root_us", "us", float64(ct.root.Nanoseconds())/1e3/n)
}
