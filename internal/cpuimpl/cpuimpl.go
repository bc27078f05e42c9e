// Package cpuimpl provides the host CPU implementations of the library,
// reproducing the paper's CPU lineage (§IV-D, §VI):
//
//   - Serial: the original single-threaded implementation, the baseline of
//     every speedup figure in the paper;
//   - SSE: the serial implementation with the 4-state unrolled kernels, the
//     analogue of the SSE intrinsics path (falls back to the generic kernels
//     for non-nucleotide state counts, as BEAGLE's SSE path does);
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
package cpuimpl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
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
		tr:          cfg.Trace,
		lane:        int32(cfg.TraceLane),
	}
	if mode == ThreadPool || mode == ThreadPoolHybrid {
		e.pool = newWorkerPool(threads, mode.String())
	}
	return e
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
// selecting the kernel by operand kinds and mode.
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
	useSSE := e.mode == SSE && d.StateCount == 4
	switch {
	case k1 == engine.OperandStates && k2 == engine.OperandStates:
		if useSSE {
			kernels.StatesStates4(dest, s1, m1, s2, m2, d, lo, hi)
		} else {
			kernels.StatesStates(dest, s1, m1, s2, m2, d, lo, hi)
		}
	case k1 == engine.OperandStates:
		if useSSE {
			kernels.StatesPartials4(dest, s1, m1, p2, m2, d, lo, hi)
		} else {
			kernels.StatesPartials(dest, s1, m1, p2, m2, d, lo, hi)
		}
	default:
		if useSSE {
			kernels.PartialsPartials4(dest, p1, m1, p2, m2, d, lo, hi)
		} else {
			kernels.PartialsPartials(dest, p1, m1, p2, m2, d, lo, hi)
		}
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
	p := e.Cfg.Dims.PatternCount
	var err error
	switch e.mode {
	case Serial, SSE:
		for _, op := range ops {
			if err = e.runOp(op, 0, p); err != nil {
				break
			}
		}
	case Futures:
		err = e.runFutures(ops, tbatch)
	case ThreadCreate:
		for _, op := range ops {
			if err = e.runThreadCreate(op); err != nil {
				break
			}
		}
	case ThreadPool:
		for _, op := range ops {
			if err = e.runThreadPool(op, tbatch); err != nil {
				break
			}
		}
	case ThreadPoolHybrid:
		err = e.runHybrid(ops, tbatch)
	}
	if err != nil {
		return err
	}
	e.tr.End(trace.Span{Kind: trace.KindBatch, Lane: e.lane, Batch: tbatch,
		Start: tstart, Arg0: int64(len(ops)), Arg1: int64(skipped)})
	return nil
}

// ReuseStats snapshots the incremental re-evaluation counters; the zero
// value (Enabled false) when the engine was built without Config.Reuse.
func (e *Engine[T]) ReuseStats() reuse.Stats { return e.Reuse.Stats() }

// runFutures executes operations level by level; operations within a level
// are independent in the tree topology and run concurrently, each as one
// asynchronous task computing its full pattern range (§VI-A).
func (e *Engine[T]) runFutures(ops []engine.Operation, tbatch uint64) error {
	levels := opLevels(ops)
	errs := make([]error, len(ops))
	idx := 0
	for li, level := range levels {
		ltstart := e.levelStart(tbatch)
		var wg sync.WaitGroup
		for _, op := range level {
			wg.Add(1)
			go func(op engine.Operation, slot int) {
				defer wg.Done()
				errs[slot] = e.runOp(op, 0, e.Cfg.Dims.PatternCount)
			}(op, idx)
			idx++
		}
		wg.Wait()
		e.recordLevel(tbatch, ltstart, li, len(level), len(level))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runThreadCreate spawns fresh goroutines for one operation, partitioning
// the patterns into equal chunks (§VI-B). Below the minimum pattern count it
// stays serial.
func (e *Engine[T]) runThreadCreate(op engine.Operation) error {
	p := e.Cfg.Dims.PatternCount
	if p < e.minPatterns || e.threads < 2 {
		return e.runOp(op, 0, p)
	}
	n := e.threads
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		lo := w * p / n
		hi := (w + 1) * p / n
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = e.runOp(op, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runThreadPool dispatches one operation's pattern chunks onto the
// persistent worker pool (§VI-C).
func (e *Engine[T]) runThreadPool(op engine.Operation, tbatch uint64) error {
	p := e.Cfg.Dims.PatternCount
	if p < e.minPatterns || e.threads < 2 {
		return e.runOp(op, 0, p)
	}
	n := e.threads
	errs := make([]error, n)
	traceOn := tbatch != 0
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		lo := w * p / n
		hi := (w + 1) * p / n
		if lo == hi {
			continue
		}
		wg.Add(1)
		e.pool.submit(func(worker int) {
			defer wg.Done()
			if traceOn {
				ts := e.tr.Now()
				errs[w] = e.runOp(op, lo, hi)
				e.tr.Record(trace.Span{Kind: trace.KindTask, Lane: int32(worker), Batch: tbatch,
					Start: ts, Dur: e.tr.Now() - ts, Arg0: int64(hi - lo)})
				return
			}
			errs[w] = e.runOp(op, lo, hi)
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

// runHybrid executes operations level by level like runFutures, but instead
// of one task per operation it dispatches every (operation, pattern-chunk)
// pair of a level onto the persistent worker pool. The chunk count adapts to
// the level width: wide levels run one chunk per operation (pure op-level
// concurrency), narrow levels split patterns until the pool is saturated,
// and no chunk is cut below HybridMinChunk patterns — so small-pattern
// problems with independent operations no longer fall back to serial.
func (e *Engine[T]) runHybrid(ops []engine.Operation, tbatch uint64) error {
	p := e.Cfg.Dims.PatternCount
	if e.threads < 2 {
		if tbatch == 0 {
			for _, op := range ops {
				if err := e.runOp(op, 0, p); err != nil {
					return err
				}
			}
			return nil
		}
		// Single-threaded fallback: still report the dependency leveling so
		// the level spans stay meaningful on one-core hosts.
		for li, level := range opLevels(ops) {
			ltstart := e.levelStart(tbatch)
			for _, op := range level {
				if err := e.runOp(op, 0, p); err != nil {
					return err
				}
			}
			e.recordLevel(tbatch, ltstart, li, len(level), len(level))
		}
		return nil
	}
	for li, level := range opLevels(ops) {
		if err := e.runHybridLevel(level, tbatch, li); err != nil {
			return err
		}
	}
	return nil
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

// runHybridLevel dispatches one dependency level's (operation, chunk) tasks
// and waits for the barrier at the end of the level.
func (e *Engine[T]) runHybridLevel(level []engine.Operation, tbatch uint64, levelIdx int) error {
	p := e.Cfg.Dims.PatternCount
	ltstart := e.levelStart(tbatch)
	traceOn := ltstart >= 0
	if len(level) == 1 && p < e.minPatterns {
		// A single small operation gains nothing from chunking; stay serial,
		// exactly as the plain thread-pool strategy does.
		err := e.runOp(level[0], 0, p)
		if err == nil {
			e.recordLevel(tbatch, ltstart, levelIdx, 1, 1)
		}
		return err
	}
	chunks := HybridChunks(len(level), p, e.threads)
	errs := make([]error, len(level)*chunks)
	tasks := 0
	var wg sync.WaitGroup
	for i, op := range level {
		for c := 0; c < chunks; c++ {
			lo := c * p / chunks
			hi := (c + 1) * p / chunks
			if lo == hi {
				continue
			}
			slot := i*chunks + c
			tasks++
			wg.Add(1)
			e.pool.submit(func(worker int) {
				defer wg.Done()
				if traceOn {
					ts := e.tr.Now()
					errs[slot] = e.runOp(op, lo, hi)
					e.tr.Record(trace.Span{Kind: trace.KindTask, Lane: int32(worker), Batch: tbatch,
						Start: ts, Dur: e.tr.Now() - ts, Arg0: int64(hi - lo)})
					return
				}
				errs[slot] = e.runOp(op, lo, hi)
			})
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	e.recordLevel(tbatch, ltstart, levelIdx, len(level), tasks)
	return nil
}

// levelStart opens the span of one dependency level: the start timestamp,
// or -1 when the batch is untraced (tbatch 0).
func (e *Engine[T]) levelStart(tbatch uint64) int64 {
	if tbatch == 0 {
		return -1
	}
	return e.tr.Now()
}

// recordLevel ends the span of one dependency level of a leveled strategy,
// opened by levelStart: ops operations dispatched as tasks concurrent tasks.
func (e *Engine[T]) recordLevel(tbatch uint64, start int64, level, ops, tasks int) {
	e.tr.End(trace.Span{Kind: trace.KindLevel, Lane: e.lane, Batch: tbatch,
		Start: start, Arg0: trace.LevelArg(level, tasks), Arg1: int64(ops)})
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
	if (e.mode == ThreadPool || e.mode == ThreadPoolHybrid) && d.PatternCount >= e.minPatterns && e.threads > 1 {
		n := e.threads
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			lo := w * d.PatternCount / n
			hi := (w + 1) * d.PatternCount / n
			if lo == hi {
				continue
			}
			wg.Add(1)
			e.pool.submit(func(int) {
				defer wg.Done()
				kernels.SiteLikelihoods(site, root, e.CatWts, e.Freqs, d, lo, hi)
			})
		}
		wg.Wait()
	} else {
		kernels.SiteLikelihoods(site, root, e.CatWts, e.Freqs, d, 0, d.PatternCount)
	}
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
	m := []Mode{Serial, SSE, Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid}
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	return m
}
