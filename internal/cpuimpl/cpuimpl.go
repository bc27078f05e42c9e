// Package cpuimpl provides the host CPU implementations of the library,
// reproducing the paper's CPU lineage (§IV-D, §VI):
//
//   - Serial: the original single-threaded implementation with the generic
//     kernels, the baseline of every speedup figure in the paper;
//   - SSE: the serial implementation with the 4-state unrolled kernels, the
//     analogue of the SSE intrinsics path;
//   - Futures: concurrency across independent operations in the tree
//     (§VI-A) — operations are grouped into dependency levels and each
//     operation of a level runs as its own asynchronous task;
//   - ThreadCreate: per-call goroutine creation partitioning the site
//     patterns into equal chunks, with a minimum pattern count below which
//     execution stays serial (§VI-B);
//   - ThreadPool: a persistent worker pool used for both the
//     partial-likelihoods operations and the root likelihood integration
//     (§VI-C), the design that won in Table III;
//   - ThreadPoolHybrid: the fusion of the futures and thread-pool designs —
//     every (operation, pattern-chunk) pair of a dependency level is
//     dispatched onto the same persistent pool, so wide trees with small
//     pattern counts (where pure pattern chunking degrades to serial) still
//     saturate the workers through operation-level concurrency.
//
// Threading and vectorisation are independent, as in BEAGLE: every strategy
// except Serial runs the 4-state unrolled kernels when the state count is 4
// (the threaded designs of §VI build on the SSE code path), and the generic
// kernels otherwise. The kernel set is chosen once, when the engine is
// created. A strategy differs from the others only in whether operations
// are grouped into dependency levels and in how many pattern chunks each
// operation is cut into; one dispatcher runs them all.
package cpuimpl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/reuse"
	"gobeagle/internal/trace"
)

// Mode selects the CPU execution strategy.
type Mode int

// CPU execution strategies, in the order the paper develops them.
const (
	Serial Mode = iota
	SSE
	Futures
	ThreadCreate
	ThreadPool
	ThreadPoolHybrid
)

// String returns the implementation name used in resource listings.
func (m Mode) String() string {
	switch m {
	case Serial:
		return "CPU-serial"
	case SSE:
		return "CPU-SSE"
	case Futures:
		return "CPU-futures"
	case ThreadCreate:
		return "CPU-threadcreate"
	case ThreadPool:
		return "CPU-threadpool"
	case ThreadPoolHybrid:
		return "CPU-threadpool-hybrid"
	default:
		return fmt.Sprintf("CPU-unknown(%d)", int(m))
	}
}

// DefaultMinPatterns is the minimum pattern count for pattern-level
// threading, preventing small problems from running slower threaded than
// serial (the paper uses 512).
const DefaultMinPatterns = 512

// HybridMinChunk is the smallest pattern span the hybrid scheduler will cut
// an operation into. Unlike DefaultMinPatterns it bounds the chunk, not the
// whole problem: a 128-pattern level of 8 independent operations still
// yields 16 concurrent tasks instead of degrading to serial execution.
const HybridMinChunk = 64

// ErrClosed is returned by computation methods invoked after Close.
var ErrClosed = errors.New("cpuimpl: engine is closed")

// New creates a CPU engine with the given mode, instantiated for the
// precision requested in the configuration.
func New(cfg engine.Config, mode Mode) (engine.Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch mode {
	case Serial, SSE, Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid:
	default:
		return nil, fmt.Errorf("cpuimpl: unknown mode %d", int(mode))
	}
	if cfg.SinglePrecision {
		return newEngine[float32](cfg, mode), nil
	}
	return newEngine[float64](cfg, mode), nil
}

// Engine is a CPU implementation of engine.Engine, generic in precision.
type Engine[T kernels.Real] struct {
	*engine.Storage[T]
	mode        Mode
	threads     int
	minPatterns int
	kern        kernelSet[T]
	pool        *workerPool
	tr          *trace.Tracer
	lane        int32
	closed      bool
	// scratch holds the reuse-filtered operation list between batches so
	// the skip path of a full-schedule resubmission allocates nothing once
	// warmed up.
	scratch []engine.Operation
}

func newEngine[T kernels.Real](cfg engine.Config, mode Mode) *Engine[T] {
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	minPat := cfg.MinPatternsWork
	if minPat <= 0 {
		minPat = DefaultMinPatterns
	}
	e := &Engine[T]{
		Storage:     engine.NewStorage[T](cfg),
		mode:        mode,
		threads:     threads,
		minPatterns: minPat,
		kern:        genericKernels[T]{},
		tr:          cfg.Trace,
		lane:        int32(cfg.TraceLane),
	}
	if mode != Serial && cfg.Dims.StateCount == 4 {
		e.kern = unrolled4Kernels[T]{}
	}
	if mode == ThreadPool || mode == ThreadPoolHybrid {
		e.pool = newWorkerPool(threads, mode.String())
	}
	return e
}

// kernelSet is the partials kernel trio an engine runs, keyed by operand
// kinds: pp for two partials children, sp for a compact-states child and a
// partials child, ss for two compact-states children. newEngine picks the
// set once per engine.
type kernelSet[T kernels.Real] interface {
	pp(dest, p1, m1, p2, m2 []T, d kernels.Dims, lo, hi int)
	sp(dest []T, s1 []int32, m1 []T, p2, m2 []T, d kernels.Dims, lo, hi int)
	ss(dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d kernels.Dims, lo, hi int)
}

// genericKernels loop over any state count.
type genericKernels[T kernels.Real] struct{}

func (genericKernels[T]) pp(dest, p1, m1, p2, m2 []T, d kernels.Dims, lo, hi int) {
	kernels.PartialsPartials(dest, p1, m1, p2, m2, d, lo, hi)
}

func (genericKernels[T]) sp(dest []T, s1 []int32, m1 []T, p2, m2 []T, d kernels.Dims, lo, hi int) {
	kernels.StatesPartials(dest, s1, m1, p2, m2, d, lo, hi)
}

func (genericKernels[T]) ss(dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d kernels.Dims, lo, hi int) {
	kernels.StatesStates(dest, s1, m1, s2, m2, d, lo, hi)
}

// unrolled4Kernels are unrolled for 4 states: the SSE code path.
type unrolled4Kernels[T kernels.Real] struct{}

func (unrolled4Kernels[T]) pp(dest, p1, m1, p2, m2 []T, d kernels.Dims, lo, hi int) {
	kernels.PartialsPartials4(dest, p1, m1, p2, m2, d, lo, hi)
}

func (unrolled4Kernels[T]) sp(dest []T, s1 []int32, m1 []T, p2, m2 []T, d kernels.Dims, lo, hi int) {
	kernels.StatesPartials4(dest, s1, m1, p2, m2, d, lo, hi)
}

func (unrolled4Kernels[T]) ss(dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d kernels.Dims, lo, hi int) {
	kernels.StatesStates4(dest, s1, m1, s2, m2, d, lo, hi)
}

// Name identifies the implementation.
func (e *Engine[T]) Name() string { return e.mode.String() }

// Close shuts down the worker pool, if any. Close is idempotent; computation
// methods called after Close return ErrClosed instead of panicking on the
// torn-down pool.
func (e *Engine[T]) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
	return nil
}

// runOp executes one partial-likelihoods operation for patterns [lo, hi),
// selecting the kernel of the engine's set by operand kinds.
func (e *Engine[T]) runOp(op engine.Operation, lo, hi int) error {
	d := e.Cfg.Dims
	dest, err := e.DestPartials(op.Dest)
	if err != nil {
		return err
	}
	m1, m2, err := e.OpMatrices(op)
	if err != nil {
		return err
	}
	k1, s1, p1, err := e.ChildOperand(op.Child1)
	if err != nil {
		return err
	}
	k2, s2, p2, err := e.ChildOperand(op.Child2)
	if err != nil {
		return err
	}
	// Normalize so a compact-states operand, if any, comes first.
	if k1 == engine.OperandPartials && k2 == engine.OperandStates {
		k1, k2 = k2, k1
		s1, s2 = s2, s1
		p1, p2 = p2, p1
		m1, m2 = m2, m1
	}
	switch {
	case k1 == engine.OperandStates && k2 == engine.OperandStates:
		e.kern.ss(dest, s1, m1, s2, m2, d, lo, hi)
	case k1 == engine.OperandStates:
		e.kern.sp(dest, s1, m1, p2, m2, d, lo, hi)
	default:
		e.kern.pp(dest, p1, m1, p2, m2, d, lo, hi)
	}
	// Fixed scaling first: previously written factors are applied to the
	// fresh partials, then an optional rescale captures the residual.
	if op.DestScaleRead != engine.None {
		scale, err := e.CumulativeScale(op.DestScaleRead)
		if err != nil {
			return err
		}
		kernels.ApplyReadScale(dest, scale, d, lo, hi)
	}
	if op.DestScaleWrite != engine.None {
		scale, err := e.ScaleWriteTarget(op.DestScaleWrite)
		if err != nil {
			return err
		}
		kernels.RescalePartials(dest, scale, d, lo, hi)
	}
	return nil
}

// validateOps pre-checks every operation so threaded execution cannot fail
// mid-flight.
func (e *Engine[T]) validateOps(ops []engine.Operation) error {
	for _, op := range ops {
		if _, err := e.DestPartials(op.Dest); err != nil {
			return err
		}
		if _, _, err := e.OpMatrices(op); err != nil {
			return err
		}
		if _, _, _, err := e.ChildOperand(op.Child1); err != nil {
			// The child may be the destination of an earlier op in this
			// batch; DestPartials above has already allocated those.
			return err
		}
		if _, _, _, err := e.ChildOperand(op.Child2); err != nil {
			return err
		}
		if op.DestScaleWrite != engine.None {
			if _, err := e.ScaleWriteTarget(op.DestScaleWrite); err != nil {
				return err
			}
		}
		if op.DestScaleRead != engine.None {
			// The read buffer must exist before the batch: either written by
			// an earlier batch, or allocated above by an earlier listed
			// operation's DestScaleWrite.
			if _, err := e.CumulativeScale(op.DestScaleRead); err != nil {
				return err
			}
		}
	}
	return nil
}

// UpdatePartials executes the operation list with the engine's strategy.
func (e *Engine[T]) UpdatePartials(ops []engine.Operation) error {
	if e.closed {
		return ErrClosed
	}
	// Allocate destinations in order first so later validation of children
	// that are earlier destinations succeeds.
	for _, op := range ops {
		if _, err := e.DestPartials(op.Dest); err != nil {
			return err
		}
	}
	if err := e.validateOps(ops); err != nil {
		return err
	}
	// Incremental re-evaluation: drop operations whose destination already
	// holds the result of an identical computation over unchanged inputs.
	// Decisions run in submission order — the documented dependency order —
	// so an admitted ancestor dirties its dependents before they are
	// decided. Validation above covered the full list, so skipping cannot
	// hide an invalid operation.
	var skipped int
	if e.Reuse.Enabled() {
		kept := e.scratch[:0]
		for _, op := range ops {
			if e.Reuse.ShouldComputeOp(op.Dest, op.Child1, op.Child1Mat,
				op.Child2, op.Child2Mat, op.DestScaleWrite, op.DestScaleRead) {
				kept = append(kept, op)
			}
		}
		e.scratch = kept
		skipped = len(ops) - len(kept)
		ops = kept
	}
	// Instrumentation fast path: one atomic load when disabled, no
	// timestamps taken. tbatch doubles as the batch's tracing switch: it is
	// nonzero exactly when Begin found the tracer on, so the strategies
	// below take no further atomic loads.
	tstart := e.tr.Begin()
	var tbatch uint64
	if tstart >= 0 {
		tbatch = e.tr.NextBatch()
	}
	switch e.mode {
	case Futures, ThreadPoolHybrid:
		for li, level := range opLevels(ops) {
			if err := e.runGroup(level, tbatch, li); err != nil {
				return err
			}
		}
	default:
		for i := range ops {
			if err := e.runGroup(ops[i:i+1], tbatch, -1); err != nil {
				return err
			}
		}
	}
	e.tr.End(trace.Span{Kind: trace.KindBatch, Lane: e.lane, Batch: tbatch,
		Start: tstart, Arg0: int64(len(ops)), Arg1: int64(skipped)})
	return nil
}

// ReuseStats snapshots the incremental re-evaluation counters; the zero
// value (Enabled false) when the engine was built without Config.Reuse.
func (e *Engine[T]) ReuseStats() reuse.Stats { return e.Reuse.Stats() }

// runGroup runs one group of mutually independent operations — a
// dependency level of a leveled strategy (level >= 0), or a single operation
// (level -1) — as (operation, pattern-chunk) tasks, and waits for all of
// them. A traced level records its KindLevel span.
func (e *Engine[T]) runGroup(group []engine.Operation, tbatch uint64, level int) error {
	ltstart := int64(-1)
	if level >= 0 && tbatch != 0 {
		ltstart = e.tr.Now()
	}
	chunks := e.chunks(len(group))
	err := e.fanOut(len(group), chunks, tbatch, func(i, lo, hi int) error {
		return e.runOp(group[i], lo, hi)
	})
	if err == nil && level >= 0 {
		e.tr.End(trace.Span{Kind: trace.KindLevel, Lane: e.lane, Batch: tbatch, Start: ltstart,
			Arg0: trace.LevelArg(level, len(group)*chunks), Arg1: int64(len(group))})
	}
	return err
}

// chunks returns how many pattern chunks each operation of a group of width
// operations is cut into under the engine's strategy; never more than the
// pattern count, so no chunk is empty.
func (e *Engine[T]) chunks(width int) int {
	p := e.Cfg.Dims.PatternCount
	c := 1
	switch e.mode {
	case ThreadCreate, ThreadPool:
		if p >= e.minPatterns {
			c = e.threads
		}
	case ThreadPoolHybrid:
		// A lone operation below the minimum pattern count gains nothing
		// from chunking and stays serial, as in the plain thread pool.
		if width > 1 || p >= e.minPatterns {
			c = HybridChunks(width, p, e.threads)
		}
	}
	return min(c, p)
}

// HybridChunks returns how many pattern chunks each operation of a level is
// split into: enough tasks to cover the worker count, bounded so that no
// chunk spans fewer than HybridMinChunk patterns (and always at least one).
// Exported so the analytic CPU performance model shares the exact policy.
func HybridChunks(levelWidth, patterns, threads int) int {
	chunks := (threads + levelWidth - 1) / levelWidth
	if maxChunks := (patterns + HybridMinChunk - 1) / HybridMinChunk; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// fanOut runs task(i, lo, hi) for every item i < items and each of its
// chunks equal pattern chunks [lo, hi), waits for all of them and returns
// the first error. The tasks run inline when there is one task or the engine
// has one thread, on the persistent worker pool when the engine has one, and
// on fresh goroutines otherwise. A traced batch (tbatch nonzero) records a
// KindTask span per pool task.
func (e *Engine[T]) fanOut(items, chunks int, tbatch uint64, task func(i, lo, hi int) error) error {
	p := e.Cfg.Dims.PatternCount
	n := items * chunks
	bounds := func(t int) (i, lo, hi int) {
		c := t % chunks
		return t / chunks, c * p / chunks, (c + 1) * p / chunks
	}
	if n == 1 || e.threads < 2 {
		for t := 0; t < n; t++ {
			if err := task(bounds(t)); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for t := 0; t < n; t++ {
		i, lo, hi := bounds(t)
		if e.pool == nil {
			go func() {
				defer wg.Done()
				errs[t] = task(i, lo, hi)
			}()
			continue
		}
		e.pool.submit(func(worker int) {
			defer wg.Done()
			if tbatch == 0 {
				errs[t] = task(i, lo, hi)
				return
			}
			ts := e.tr.Now()
			errs[t] = task(i, lo, hi)
			e.tr.Record(trace.Span{Kind: trace.KindTask, Lane: int32(worker), Batch: tbatch,
				Start: ts, Dur: e.tr.Now() - ts, Arg0: int64(hi - lo)})
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// opLevels groups operations into dependency levels so that all operations
// within a level can run concurrently without data races. An operation is
// pushed to a later level by any hazard on the buffers it touches:
//
//   - read-after-write: a child buffer is the destination of an earlier
//     operation (the tree-topology dependency);
//   - write-after-write: two operations share a Dest, or rescale into the
//     same DestScaleWrite buffer;
//   - write-after-read: the destination overwrites a buffer an earlier
//     operation still reads as a child (serial semantics let the earlier
//     operation see the old contents).
//
// Partials and scale buffers are distinct index spaces and are tracked
// separately. This is the single dependency analyzer used by both the
// Futures and the ThreadPoolHybrid strategies.
func opLevels(ops []engine.Operation) [][]engine.Operation {
	partialsWriter := make(map[int]int) // partials buffer -> level of last writer
	partialsReader := make(map[int]int) // partials buffer -> highest reading level
	scaleWriter := make(map[int]int)    // scale buffer -> level of last writer
	scaleReader := make(map[int]int)    // scale buffer -> highest reading level
	after := func(l int, m map[int]int, buf int) int {
		if dl, ok := m[buf]; ok && dl+1 > l {
			return dl + 1
		}
		return l
	}
	markRead := func(m map[int]int, buf, l int) {
		if rl, ok := m[buf]; !ok || l > rl {
			m[buf] = l
		}
	}
	var out [][]engine.Operation
	for _, op := range ops {
		l := 0
		l = after(l, partialsWriter, op.Child1) // RAW
		l = after(l, partialsWriter, op.Child2) // RAW
		l = after(l, partialsWriter, op.Dest)   // WAW
		l = after(l, partialsReader, op.Dest)   // WAR
		if op.DestScaleWrite != engine.None {
			l = after(l, scaleWriter, op.DestScaleWrite) // WAW (scale)
			l = after(l, scaleReader, op.DestScaleWrite) // WAR (scale)
		}
		if op.DestScaleRead != engine.None {
			l = after(l, scaleWriter, op.DestScaleRead) // RAW (scale)
		}
		partialsWriter[op.Dest] = l
		markRead(partialsReader, op.Child1, l)
		markRead(partialsReader, op.Child2, l)
		if op.DestScaleWrite != engine.None {
			scaleWriter[op.DestScaleWrite] = l
		}
		if op.DestScaleRead != engine.None {
			markRead(scaleReader, op.DestScaleRead, l)
		}
		for len(out) <= l {
			out = append(out, nil)
		}
		out[l] = append(out[l], op)
	}
	return out
}

// SiteLogLikelihoods returns per-pattern root log likelihoods
// (log site likelihood plus accumulated scale factors).
func (e *Engine[T]) SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error) {
	site, scale, err := e.siteLikelihoods(rootBuf, cumScaleBuf)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(site))
	for p, s := range site {
		l := math.Log(s)
		if scale != nil {
			l += scale[p]
		}
		out[p] = l
	}
	return out, nil
}

// CalculateRootLogLikelihoods integrates the root partials into the total
// log likelihood. In the pool-backed modes (ThreadPool, ThreadPoolHybrid)
// the per-pattern site likelihoods are computed on the worker pool, as
// §VI-C describes.
func (e *Engine[T]) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	tstart := e.tr.Begin()
	site, scale, err := e.siteLikelihoods(rootBuf, cumScaleBuf)
	if err != nil {
		return 0, err
	}
	lnL := kernels.RootLogLikelihood(site, e.PatWts, scale, 0, len(site))
	e.tr.End(trace.Span{Kind: trace.KindRoot, Lane: e.lane, Start: tstart, Arg0: int64(len(site))})
	return lnL, nil
}

func (e *Engine[T]) siteLikelihoods(rootBuf, cumScaleBuf int) (site, scale []float64, err error) {
	if e.closed {
		return nil, nil, ErrClosed
	}
	kind, _, root, err := e.ChildOperand(rootBuf)
	if err != nil {
		return nil, nil, err
	}
	if kind != engine.OperandPartials {
		return nil, nil, fmt.Errorf("cpuimpl: root buffer %d holds compact states", rootBuf)
	}
	scale, err = e.CumulativeScale(cumScaleBuf)
	if err != nil {
		return nil, nil, err
	}
	d := e.Cfg.Dims
	site = make([]float64, d.PatternCount)
	chunks := 1
	if e.pool != nil && d.PatternCount >= e.minPatterns {
		chunks = min(e.threads, d.PatternCount)
	}
	e.fanOut(1, chunks, 0, func(_, lo, hi int) error {
		kernels.SiteLikelihoods(site, root, e.CatWts, e.Freqs, d, lo, hi)
		return nil
	})
	return site, scale, nil
}

// CalculateEdgeLogLikelihoods integrates across a single branch between the
// parent-side and child-side partials buffers.
func (e *Engine[T]) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	if e.closed {
		return 0, ErrClosed
	}
	pk, _, parent, err := e.ChildOperand(parentBuf)
	if err != nil {
		return 0, err
	}
	ck, _, child, err := e.ChildOperand(childBuf)
	if err != nil {
		return 0, err
	}
	if pk != engine.OperandPartials || ck != engine.OperandPartials {
		return 0, fmt.Errorf("cpuimpl: edge likelihood requires partials buffers (use SetTipPartials for tips)")
	}
	if matrix < 0 || matrix >= len(e.Matrices) || e.Matrices[matrix] == nil {
		return 0, fmt.Errorf("cpuimpl: matrix buffer %d not available", matrix)
	}
	scale, err := e.CumulativeScale(cumScaleBuf)
	if err != nil {
		return 0, err
	}
	tstart := e.tr.Begin()
	d := e.Cfg.Dims
	site := make([]float64, d.PatternCount)
	kernels.EdgeSiteLikelihoods(site, parent, child, e.Matrices[matrix], e.CatWts, e.Freqs, d, 0, d.PatternCount)
	lnL := kernels.RootLogLikelihood(site, e.PatWts, scale, 0, d.PatternCount)
	e.tr.End(trace.Span{Kind: trace.KindEdge, Lane: e.lane, Start: tstart})
	return lnL, nil
}

// CalculateEdgeDerivatives integrates across a single branch and returns
// the log likelihood and its first and second derivatives with respect to
// the branch length. matrix, d1Matrix (and d2Matrix unless None) must have
// been computed by UpdateTransitionMatrices / UpdateTransitionDerivatives.
func (e *Engine[T]) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
	if e.closed {
		return 0, 0, 0, ErrClosed
	}
	pk, _, parent, err := e.ChildOperand(parentBuf)
	if err != nil {
		return 0, 0, 0, err
	}
	ck, _, child, err := e.ChildOperand(childBuf)
	if err != nil {
		return 0, 0, 0, err
	}
	if pk != engine.OperandPartials || ck != engine.OperandPartials {
		return 0, 0, 0, fmt.Errorf("cpuimpl: edge derivatives require partials buffers")
	}
	getMat := func(idx int) ([]T, error) {
		if idx < 0 || idx >= len(e.Matrices) || e.Matrices[idx] == nil {
			return nil, fmt.Errorf("cpuimpl: matrix buffer %d not available", idx)
		}
		return e.Matrices[idx], nil
	}
	m, err := getMat(matrix)
	if err != nil {
		return 0, 0, 0, err
	}
	m1, err := getMat(d1Matrix)
	if err != nil {
		return 0, 0, 0, err
	}
	var m2 []T
	if d2Matrix != engine.None {
		if m2, err = getMat(d2Matrix); err != nil {
			return 0, 0, 0, err
		}
	}
	scale, err := e.CumulativeScale(cumScaleBuf)
	if err != nil {
		return 0, 0, 0, err
	}
	tstart := e.tr.Begin()
	d := e.Cfg.Dims
	siteL := make([]float64, d.PatternCount)
	siteD1 := make([]float64, d.PatternCount)
	var siteD2 []float64
	if m2 != nil {
		siteD2 = make([]float64, d.PatternCount)
	}
	kernels.EdgeSiteDerivatives(siteL, siteD1, siteD2, parent, child, m, m1, m2,
		e.CatWts, e.Freqs, d, 0, d.PatternCount)
	lnL := kernels.RootLogLikelihood(siteL, e.PatWts, scale, 0, d.PatternCount)
	d1, d2 := kernels.ReduceEdgeDerivatives(siteL, siteD1, siteD2, e.PatWts, 0, d.PatternCount)
	e.tr.End(trace.Span{Kind: trace.KindEdge, Lane: e.lane, Start: tstart})
	return lnL, d1, d2, nil
}

// Modes returns all CPU modes in presentation order.
func Modes() []Mode {
	return []Mode{Serial, SSE, Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid}
}
