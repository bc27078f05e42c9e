package accelimpl

import (
	"fmt"
	"math"

	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/reuse"
	"gobeagle/internal/trace"
)

// SetTipStates uploads compact states for a tip buffer.
func (e *Engine[T]) SetTipStates(buf int, states []int) error {
	if buf < 0 || buf >= e.cfg.TipCount {
		return fmt.Errorf("accelimpl: tip buffer %d out of range [0,%d)", buf, e.cfg.TipCount)
	}
	if len(states) != e.cfg.Dims.PatternCount {
		return fmt.Errorf("accelimpl: tip states length %d, want %d", len(states), e.cfg.Dims.PatternCount)
	}
	host := make([]int32, len(states))
	for i, st := range states {
		if st < 0 {
			return fmt.Errorf("accelimpl: negative state %d at pattern %d", st, i)
		}
		if st > e.cfg.Dims.StateCount {
			st = e.cfg.Dims.StateCount
		}
		host[i] = int32(st)
	}
	if e.tipStates[buf] == nil {
		b, err := device.Alloc[int32](e.dev, len(host))
		if err != nil {
			return err
		}
		e.tipStates[buf] = b
	}
	if err := device.CopyToDevice(e.q, e.tipStates[buf], host); err != nil {
		return err
	}
	e.reuse.InvalidatePartials(buf)
	return nil
}

// SetTipPartials uploads per-pattern partials for a tip, replicated across
// rate categories.
func (e *Engine[T]) SetTipPartials(buf int, partials []float64) error {
	if buf < 0 || buf >= e.cfg.TipCount {
		return fmt.Errorf("accelimpl: tip buffer %d out of range [0,%d)", buf, e.cfg.TipCount)
	}
	d := e.cfg.Dims
	if len(partials) != d.PatternCount*d.StateCount {
		return fmt.Errorf("accelimpl: tip partials length %d, want %d", len(partials), d.PatternCount*d.StateCount)
	}
	host := make([]T, d.PartialsLen())
	for c := 0; c < d.CategoryCount; c++ {
		off := c * d.PatternCount * d.StateCount
		for i, v := range partials {
			host[off+i] = T(v)
		}
	}
	dst, err := e.ensurePartials(buf)
	if err != nil {
		return err
	}
	if e.tipStates[buf] != nil {
		e.tipStates[buf].Free()
		e.tipStates[buf] = nil
	}
	if err := device.CopyToDevice(e.q, dst, host); err != nil {
		return err
	}
	e.reuse.InvalidatePartials(buf)
	return nil
}

// SetPartials uploads a full partials buffer.
func (e *Engine[T]) SetPartials(buf int, partials []float64) error {
	d := e.cfg.Dims
	if len(partials) != d.PartialsLen() {
		return fmt.Errorf("accelimpl: partials length %d, want %d", len(partials), d.PartialsLen())
	}
	dst, err := e.ensurePartials(buf)
	if err != nil {
		return err
	}
	if buf < e.cfg.TipCount && e.tipStates[buf] != nil {
		e.tipStates[buf].Free()
		e.tipStates[buf] = nil
	}
	host := make([]T, len(partials))
	for i, v := range partials {
		host[i] = T(v)
	}
	if err := device.CopyToDevice(e.q, dst, host); err != nil {
		return err
	}
	e.reuse.InvalidatePartials(buf)
	return nil
}

// GetPartials downloads a partials buffer.
func (e *Engine[T]) GetPartials(buf int) ([]float64, error) {
	if err := e.checkPartialsIndex(buf); err != nil {
		return nil, err
	}
	if e.partials[buf] == nil {
		return nil, fmt.Errorf("accelimpl: partials buffer %d has not been computed or set", buf)
	}
	host := make([]T, e.cfg.Dims.PartialsLen())
	if err := device.CopyFromDevice(e.q, host, e.partials[buf]); err != nil {
		return nil, err
	}
	out := make([]float64, len(host))
	for i, v := range host {
		out[i] = float64(v)
	}
	return out, nil
}

// SetEigenDecomposition stores a decomposition; it stays host-side, as the
// decomposition feeds the device-side transition-matrix kernel as launch
// constants.
func (e *Engine[T]) SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error {
	if slot < 0 || slot >= len(e.eigens) {
		return fmt.Errorf("accelimpl: eigen slot %d out of range [0,%d)", slot, len(e.eigens))
	}
	n := e.cfg.Dims.StateCount
	if len(values) != n || len(vectors) != n*n || len(inverseVectors) != n*n {
		return fmt.Errorf("accelimpl: eigen decomposition sizes %d/%d/%d, want %d/%d/%d",
			len(values), len(vectors), len(inverseVectors), n, n*n, n*n)
	}
	e.eigens[slot] = &kernels.Eigen{
		StateCount:     n,
		Values:         append([]float64(nil), values...),
		Vectors:        append([]float64(nil), vectors...),
		InverseVectors: append([]float64(nil), inverseVectors...),
	}
	e.reuse.InvalidateModel()
	return nil
}

// SetCategoryRates sets per-category relative rates.
func (e *Engine[T]) SetCategoryRates(rates []float64) error {
	if len(rates) != e.cfg.Dims.CategoryCount {
		return fmt.Errorf("accelimpl: %d category rates, want %d", len(rates), e.cfg.Dims.CategoryCount)
	}
	copy(e.catRates, rates)
	e.reuse.InvalidateModel()
	return nil
}

// SetCategoryWeights sets per-category mixture weights.
func (e *Engine[T]) SetCategoryWeights(weights []float64) error {
	if len(weights) != e.cfg.Dims.CategoryCount {
		return fmt.Errorf("accelimpl: %d category weights, want %d", len(weights), e.cfg.Dims.CategoryCount)
	}
	copy(e.catWts, weights)
	e.reuse.InvalidateModel()
	return nil
}

// SetStateFrequencies sets the stationary distribution π.
func (e *Engine[T]) SetStateFrequencies(freqs []float64) error {
	if len(freqs) != e.cfg.Dims.StateCount {
		return fmt.Errorf("accelimpl: %d frequencies, want %d", len(freqs), e.cfg.Dims.StateCount)
	}
	copy(e.freqs, freqs)
	e.reuse.InvalidateModel()
	return nil
}

// SetPatternWeights sets per-pattern multiplicities.
func (e *Engine[T]) SetPatternWeights(weights []float64) error {
	if len(weights) != e.cfg.Dims.PatternCount {
		return fmt.Errorf("accelimpl: %d pattern weights, want %d", len(weights), e.cfg.Dims.PatternCount)
	}
	copy(e.patWts, weights)
	e.reuse.InvalidateModel()
	return nil
}

// SetTransitionMatrix uploads an explicit transition matrix.
func (e *Engine[T]) SetTransitionMatrix(matrix int, values []float64) error {
	if err := e.checkMatrixIndex(matrix); err != nil {
		return err
	}
	if len(values) != e.cfg.Dims.MatrixLen() {
		return fmt.Errorf("accelimpl: matrix length %d, want %d", len(values), e.cfg.Dims.MatrixLen())
	}
	host := make([]T, len(values))
	for i, v := range values {
		host[i] = T(v)
	}
	if err := device.CopyToDevice(e.q, e.matrices[matrix], host); err != nil {
		return err
	}
	e.matSet[matrix] = true
	e.reuse.InvalidateMatrix(matrix)
	return nil
}

// GetTransitionMatrix downloads a matrix buffer.
func (e *Engine[T]) GetTransitionMatrix(matrix int) ([]float64, error) {
	if err := e.checkMatrixIndex(matrix); err != nil {
		return nil, err
	}
	if !e.matSet[matrix] {
		return nil, fmt.Errorf("accelimpl: matrix buffer %d has not been computed or set", matrix)
	}
	host := make([]T, e.cfg.Dims.MatrixLen())
	if err := device.CopyFromDevice(e.q, host, e.matrices[matrix]); err != nil {
		return nil, err
	}
	out := make([]float64, len(host))
	for i, v := range host {
		out[i] = float64(v)
	}
	return out, nil
}

// UpdateTransitionMatrices computes the listed matrices on the device, one
// kernel launch per matrix with one work-item per matrix row.
func (e *Engine[T]) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	if eigenSlot < 0 || eigenSlot >= len(e.eigens) {
		return fmt.Errorf("accelimpl: eigen slot %d out of range [0,%d)", eigenSlot, len(e.eigens))
	}
	ed := e.eigens[eigenSlot]
	if ed == nil {
		return fmt.Errorf("accelimpl: eigen slot %d is empty", eigenSlot)
	}
	if len(matrices) != len(edgeLengths) {
		return fmt.Errorf("accelimpl: %d matrices but %d edge lengths", len(matrices), len(edgeLengths))
	}
	d := e.cfg.Dims
	s := d.StateCount
	for i, m := range matrices {
		if err := e.checkMatrixIndex(m); err != nil {
			return err
		}
		if edgeLengths[i] < 0 {
			return fmt.Errorf("accelimpl: negative edge length %v", edgeLengths[i])
		}
	}
	rows := d.CategoryCount * s
	cost := device.Cost{
		Flops:      float64(rows) * float64(s) * float64(2*s+2),
		Bytes:      float64(d.MatrixLen()) * float64(e.elemSize()),
		Efficiency: e.efficiency,
		GroupSize:  s,
	}
	tstart := e.cfg.Trace.Begin()
	computed := 0
	for i, m := range matrices {
		// Content-addressed reuse: the device buffer already holds this
		// exact (model, eigen slot, edge length) result, so no launch.
		if !e.reuse.ShouldComputeMatrix(m, eigenSlot, edgeLengths[i]) {
			continue
		}
		out := e.matrices[m].Data()
		length := edgeLengths[i]
		rates := e.catRates
		if err := e.q.LaunchKernel(device.Launch{Global: rows, Local: s}, cost, func(item int) {
			if item >= rows {
				return
			}
			kernels.TransitionMatrixRow(out, ed, length, rates, item)
		}); err != nil {
			return err
		}
		e.matSet[m] = true
		computed++
	}
	e.cfg.Trace.End(trace.Span{Kind: trace.KindMatrices, Lane: int32(e.cfg.TraceLane),
		Start: tstart, Arg0: int64(computed)})
	return nil
}

func (e *Engine[T]) elemSize() int {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return 4
	}
	return 8
}

// Kernel-efficiency calibration for the device performance model. Real
// likelihood kernels run well below a device's theoretical roofline; these
// fractions are calibrated once against the paper's measurements and then
// reused for every experiment.
const (
	// gpuBaseEfficiency: fraction of the roofline rate the GPU-style
	// nucleotide kernel achieves (Fig. 4: R9 Nano saturates at 445 GFLOPS
	// against a ~680 GFLOPS memory-bandwidth bound).
	gpuBaseEfficiency = 0.65
	// x86Efficiency: fraction of CPU peak the loop-over-states kernel
	// achieves (Fig. 4: 328 GFLOPS peak on a 2150 GFLOPS-peak dual Xeon).
	x86Efficiency = 0.20
	// x86DRAMFraction: fraction of nominal kernel traffic reaching DRAM on
	// cache-rich CPUs.
	x86DRAMFraction = 0.5
	// gpuStyleOnCPUEfficiency: the GPU-style one-work-item-per-entry
	// kernels are drastically inefficient on CPU-class devices — the very
	// observation that motivated the separate OpenCL-x86 solution (Table V:
	// 15.75 vs ~98 GFLOPS on the dual Xeon).
	gpuStyleOnCPUEfficiency = 0.07
)

// kernelEfficiency returns the calibrated efficiency for the variant and
// state count. Higher-state-count kernels fall further from the roofline
// (register/local-memory pressure): the √(4/S) falloff reproduces the codon
// model's ~16% of peak on the R9 Nano (Fig. 4, 1324 of 8192 GFLOPS).
func (e *Engine[T]) kernelEfficiency() float64 {
	eff := e.efficiency // FMA build penalty, if any
	s := float64(e.cfg.Dims.StateCount)
	if e.variant == OpenCLX86 {
		return eff * x86Efficiency
	}
	if e.dev.Desc.Kind != device.KindGPU {
		return eff * gpuStyleOnCPUEfficiency
	}
	return eff * gpuBaseEfficiency * math.Sqrt(4/s)
}

// opCost returns the launch cost of one partial-likelihoods operation:
// effective flops from the flops package and roofline memory traffic (two
// child partials read, destination written, matrices read once).
func (e *Engine[T]) opCost() device.Cost {
	d := e.cfg.Dims
	elem := float64(e.elemSize())
	bytes := float64(d.CategoryCount)*float64(d.PatternCount)*float64(3*d.StateCount)*elem +
		2*float64(d.MatrixLen())*elem
	groupItems := e.groupPats
	if e.variant != OpenCLX86 {
		groupItems = e.groupPats * d.StateCount
	} else {
		bytes *= x86DRAMFraction
	}
	return device.Cost{
		Flops:      flops.PartialsOp(d),
		Bytes:      bytes,
		Efficiency: e.kernelEfficiency(),
		GroupSize:  groupItems,
	}
}

// validateOps pre-checks every operation (allocating destination and scale
// buffers in listed order) so the reuse filter's version bumps can never be
// followed by a validation failure that would leave the tracker ahead of the
// actual buffer contents.
func (e *Engine[T]) validateOps(ops []engine.Operation) error {
	for _, op := range ops {
		if _, err := e.ensurePartials(op.Dest); err != nil {
			return err
		}
		if op.Dest < e.cfg.TipCount && e.tipStates[op.Dest] != nil {
			return fmt.Errorf("accelimpl: buffer %d holds compact tip states and cannot be a destination", op.Dest)
		}
		if err := e.checkMatrixIndex(op.Child1Mat); err != nil {
			return err
		}
		if err := e.checkMatrixIndex(op.Child2Mat); err != nil {
			return err
		}
		if !e.matSet[op.Child1Mat] || !e.matSet[op.Child2Mat] {
			return fmt.Errorf("accelimpl: operation uses uncomputed matrices %d/%d", op.Child1Mat, op.Child2Mat)
		}
		if _, _, err := e.operand(op.Child1); err != nil {
			return err
		}
		if _, _, err := e.operand(op.Child2); err != nil {
			return err
		}
		if op.DestScaleWrite != engine.None {
			if _, err := e.ensureScale(op.DestScaleWrite); err != nil {
				return err
			}
		}
		if op.DestScaleRead != engine.None {
			// The read buffer must exist before the batch: written by an
			// earlier batch, or allocated above by an earlier listed
			// operation's DestScaleWrite.
			if err := e.checkScaleIndex(op.DestScaleRead); err != nil {
				return err
			}
			if e.scale[op.DestScaleRead] == nil {
				return fmt.Errorf("accelimpl: scale buffer %d has not been written", op.DestScaleRead)
			}
		}
	}
	return nil
}

// UpdatePartials executes the operation list; each operation is one kernel
// launch (plus read-scale and rescale launches when requested).
func (e *Engine[T]) UpdatePartials(ops []engine.Operation) error {
	if err := e.validateOps(ops); err != nil {
		return err
	}
	// Incremental re-evaluation: drop operations whose destination already
	// holds the result of an identical computation over unchanged inputs
	// (decided in submission order, the documented dependency order).
	var skipped int
	if e.reuse.Enabled() {
		kept := e.scratch[:0]
		for _, op := range ops {
			if e.reuse.ShouldComputeOp(op.Dest, op.Child1, op.Child1Mat,
				op.Child2, op.Child2Mat, op.DestScaleWrite, op.DestScaleRead) {
				kept = append(kept, op)
			}
		}
		e.scratch = kept
		skipped = len(ops) - len(kept)
		ops = kept
	}
	// Instrumentation fast path: one atomic load when disabled, no
	// timestamps taken.
	tstart := e.cfg.Trace.Begin()
	var tbatch uint64
	if tstart >= 0 {
		tbatch = e.cfg.Trace.NextBatch()
	}
	for _, op := range ops {
		dest, err := e.ensurePartials(op.Dest)
		if err != nil {
			return err
		}
		s1, p1, err := e.operand(op.Child1)
		if err != nil {
			return err
		}
		s2, p2, err := e.operand(op.Child2)
		if err != nil {
			return err
		}
		m1 := e.matrices[op.Child1Mat].Data()
		m2 := e.matrices[op.Child2Mat].Data()
		// Normalize so a compact-states operand, if any, comes first.
		if s1 == nil && s2 != nil {
			s1, s2 = s2, s1
			p1, p2 = p2, p1
			m1, m2 = m2, m1
		}
		if err := e.launchOp(dest.Data(), s1, p1, m1, s2, p2, m2); err != nil {
			return err
		}
		if op.DestScaleRead != engine.None {
			if err := e.launchReadScale(dest.Data(), op.DestScaleRead); err != nil {
				return err
			}
		}
		if op.DestScaleWrite != engine.None {
			if err := e.launchRescale(dest.Data(), op.DestScaleWrite); err != nil {
				return err
			}
		}
	}
	e.cfg.Trace.End(trace.Span{Kind: trace.KindBatch, Lane: int32(e.cfg.TraceLane), Batch: tbatch,
		Start: tstart, Arg0: int64(len(ops)), Arg1: int64(skipped)})
	return nil
}

// ReuseStats snapshots the incremental re-evaluation counters; the zero
// value (Enabled false) when the engine was built without Config.Reuse.
func (e *Engine[T]) ReuseStats() reuse.Stats { return e.reuse.Stats() }

// operand resolves a child buffer to device data: compact states or
// partials.
func (e *Engine[T]) operand(buf int) (states []int32, partials []T, err error) {
	if err := e.checkPartialsIndex(buf); err != nil {
		return nil, nil, err
	}
	if buf < e.cfg.TipCount && e.tipStates[buf] != nil {
		return e.tipStates[buf].Data(), nil, nil
	}
	if e.partials[buf] == nil {
		return nil, nil, fmt.Errorf("accelimpl: operand buffer %d holds no data", buf)
	}
	return nil, e.partials[buf].Data(), nil
}

// launchOp dispatches the partials kernel appropriate to the variant and
// operand kinds.
func (e *Engine[T]) launchOp(dest []T, s1 []int32, p1 []T, m1 []T, s2 []int32, p2 []T, m2 []T) error {
	d := e.cfg.Dims
	cost := e.opCost()
	if e.variant == OpenCLX86 {
		// One work-item per pattern, looping over categories and states.
		launch := device.Launch{Global: d.PatternCount, Local: e.groupPats}
		body := func(p int) {
			if p >= d.PatternCount {
				return
			}
			switch {
			case s1 != nil && s2 != nil:
				kernels.StatesStates(dest, s1, m1, s2, m2, d, p, p+1)
			case s1 != nil:
				if e.useFMA {
					kernels.StatesPartialsFMA(dest, s1, m1, p2, m2, d, p, p+1)
				} else {
					kernels.StatesPartials(dest, s1, m1, p2, m2, d, p, p+1)
				}
			default:
				if e.useFMA {
					kernels.PartialsPartialsFMA(dest, p1, m1, p2, m2, d, p, p+1)
				} else {
					kernels.PartialsPartials(dest, p1, m1, p2, m2, d, p, p+1)
				}
			}
		}
		return e.q.LaunchKernel(launch, cost, body)
	}
	// GPU variants: one work-item per (category, pattern, state) entry.
	global := d.CategoryCount * d.PatternCount * d.StateCount
	launch := device.Launch{Global: global, Local: e.groupPats * d.StateCount}
	body := func(item int) {
		if item >= global {
			return
		}
		switch {
		case s1 != nil && s2 != nil:
			kernels.StatesStatesEntry(dest, s1, m1, s2, m2, d, item)
		case s1 != nil:
			if e.useFMA {
				kernels.StatesPartialsEntryFMA(dest, s1, m1, p2, m2, d, item)
			} else {
				kernels.StatesPartialsEntry(dest, s1, m1, p2, m2, d, item)
			}
		default:
			if e.useFMA {
				kernels.PartialsPartialsEntryFMA(dest, p1, m1, p2, m2, d, item)
			} else {
				kernels.PartialsPartialsEntry(dest, p1, m1, p2, m2, d, item)
			}
		}
	}
	return e.q.LaunchKernel(launch, cost, body)
}

// launchRescale rescales a destination buffer into a scale buffer, one
// work-item per pattern.
func (e *Engine[T]) launchRescale(dest []T, scaleBuf int) error {
	sb, err := e.ensureScale(scaleBuf)
	if err != nil {
		return err
	}
	tstart := e.cfg.Trace.Begin()
	d := e.cfg.Dims
	scale := sb.Data()
	elem := float64(e.elemSize())
	cost := device.Cost{
		Flops:      float64(d.PartialsLen()),
		Bytes:      2 * float64(d.PartialsLen()) * elem,
		Efficiency: e.efficiency,
		GroupSize:  e.groupPats,
	}
	err = e.q.LaunchKernel(device.Launch{Global: d.PatternCount, Local: e.groupPats}, cost, func(p int) {
		if p >= d.PatternCount {
			return
		}
		kernels.RescalePartials(dest, scale, d, p, p+1)
	})
	if err == nil {
		e.cfg.Trace.End(trace.Span{Kind: trace.KindRescale, Lane: int32(e.cfg.TraceLane),
			Start: tstart})
	}
	return err
}

// launchReadScale applies previously written scale factors to a freshly
// computed destination buffer (fixed scaling), one work-item per pattern.
func (e *Engine[T]) launchReadScale(dest []T, scaleBuf int) error {
	if err := e.checkScaleIndex(scaleBuf); err != nil {
		return err
	}
	if e.scale[scaleBuf] == nil {
		return fmt.Errorf("accelimpl: scale buffer %d has not been written", scaleBuf)
	}
	tstart := e.cfg.Trace.Begin()
	d := e.cfg.Dims
	scale := e.scale[scaleBuf].Data()
	elem := float64(e.elemSize())
	cost := device.Cost{
		Flops:      float64(d.PartialsLen()),
		Bytes:      2*float64(d.PartialsLen())*elem + float64(d.PatternCount)*8,
		Efficiency: e.efficiency,
		GroupSize:  e.groupPats,
	}
	err := e.q.LaunchKernel(device.Launch{Global: d.PatternCount, Local: e.groupPats}, cost, func(p int) {
		if p >= d.PatternCount {
			return
		}
		kernels.ApplyReadScale(dest, scale, d, p, p+1)
	})
	if err == nil {
		e.cfg.Trace.End(trace.Span{Kind: trace.KindRescale, Lane: int32(e.cfg.TraceLane),
			Start: tstart})
	}
	return err
}

// ResetScaleFactors zeroes a scale buffer on the device.
func (e *Engine[T]) ResetScaleFactors(scaleBuf int) error {
	sb, err := e.ensureScale(scaleBuf)
	if err != nil {
		return err
	}
	zero := make([]float64, e.cfg.Dims.PatternCount)
	if err := device.CopyToDevice(e.q, sb, zero); err != nil {
		return err
	}
	e.reuse.InvalidateScale(scaleBuf)
	return nil
}

// AccumulateScaleFactors sums the listed scale buffers into cumBuf with a
// per-pattern kernel.
func (e *Engine[T]) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	cum, err := e.ensureScale(cumBuf)
	if err != nil {
		return err
	}
	factors := make([][]float64, 0, len(scaleBufs))
	for _, b := range scaleBufs {
		if err := e.checkScaleIndex(b); err != nil {
			return err
		}
		if e.scale[b] == nil {
			return fmt.Errorf("accelimpl: scale buffer %d has not been written", b)
		}
		factors = append(factors, e.scale[b].Data())
	}
	d := e.cfg.Dims
	out := cum.Data()
	cost := device.Cost{
		Flops:     float64(d.PatternCount * len(factors)),
		Bytes:     float64(d.PatternCount*(len(factors)+1)) * 8,
		GroupSize: e.groupPats,
	}
	if err := e.q.LaunchKernel(device.Launch{Global: d.PatternCount, Local: e.groupPats}, cost, func(p int) {
		if p >= d.PatternCount {
			return
		}
		kernels.AccumulateScaleFactors(out, factors, p, p+1)
	}); err != nil {
		return err
	}
	e.reuse.InvalidateScale(cumBuf)
	return nil
}

// siteLikelihoods runs the integration kernel on the device and downloads
// per-pattern site likelihoods plus cumulative scale factors.
func (e *Engine[T]) siteLikelihoods(rootBuf, cumScaleBuf int) (site, scale []float64, err error) {
	if err := e.checkPartialsIndex(rootBuf); err != nil {
		return nil, nil, err
	}
	if rootBuf < e.cfg.TipCount && e.tipStates[rootBuf] != nil {
		return nil, nil, fmt.Errorf("accelimpl: root buffer %d holds compact states", rootBuf)
	}
	if e.partials[rootBuf] == nil {
		return nil, nil, fmt.Errorf("accelimpl: root buffer %d holds no data", rootBuf)
	}
	d := e.cfg.Dims
	root := e.partials[rootBuf].Data()
	out := e.siteBuf.Data()
	elem := float64(e.elemSize())
	cost := device.Cost{
		Flops:      float64(d.CategoryCount) * float64(d.PatternCount) * float64(2*d.StateCount+2),
		Bytes:      float64(d.PartialsLen()) * elem,
		Efficiency: e.efficiency,
		GroupSize:  e.groupPats,
	}
	wts, fr := e.catWts, e.freqs
	if err := e.q.LaunchKernel(device.Launch{Global: d.PatternCount, Local: e.groupPats}, cost, func(p int) {
		if p >= d.PatternCount {
			return
		}
		kernels.SiteLikelihoods(out, root, wts, fr, d, p, p+1)
	}); err != nil {
		return nil, nil, err
	}
	site = make([]float64, d.PatternCount)
	if err := device.CopyFromDevice(e.q, site, e.siteBuf); err != nil {
		return nil, nil, err
	}
	if cumScaleBuf != engine.None {
		if err := e.checkScaleIndex(cumScaleBuf); err != nil {
			return nil, nil, err
		}
		if e.scale[cumScaleBuf] == nil {
			return nil, nil, fmt.Errorf("accelimpl: scale buffer %d has not been written", cumScaleBuf)
		}
		scale = make([]float64, d.PatternCount)
		if err := device.CopyFromDevice(e.q, scale, e.scale[cumScaleBuf]); err != nil {
			return nil, nil, err
		}
	}
	return site, scale, nil
}

// CalculateRootLogLikelihoods integrates the root partials into the total
// log likelihood.
func (e *Engine[T]) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	tstart := e.cfg.Trace.Begin()
	site, scale, err := e.siteLikelihoods(rootBuf, cumScaleBuf)
	if err != nil {
		return 0, err
	}
	lnL := kernels.RootLogLikelihood(site, e.patWts, scale, 0, len(site))
	e.cfg.Trace.End(trace.Span{Kind: trace.KindRoot, Lane: int32(e.cfg.TraceLane),
		Start: tstart, Arg0: int64(len(site))})
	return lnL, nil
}

// SiteLogLikelihoods returns per-pattern root log likelihoods.
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

// UpdateTransitionDerivatives computes derivative matrices host-side from
// the eigendecomposition and uploads them into matrix buffers. Derivatives
// are not on the hot path of any of the paper's benchmarks, so the transfer
// cost is acceptable and is charged to the queue like any other upload.
func (e *Engine[T]) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	if eigenSlot < 0 || eigenSlot >= len(e.eigens) {
		return fmt.Errorf("accelimpl: eigen slot %d out of range [0,%d)", eigenSlot, len(e.eigens))
	}
	ed := e.eigens[eigenSlot]
	if ed == nil {
		return fmt.Errorf("accelimpl: eigen slot %d is empty", eigenSlot)
	}
	if len(d1Matrices) != len(edgeLengths) {
		return fmt.Errorf("accelimpl: %d derivative matrices but %d edge lengths", len(d1Matrices), len(edgeLengths))
	}
	if d2Matrices != nil && len(d2Matrices) != len(d1Matrices) {
		return fmt.Errorf("accelimpl: %d second-derivative matrices for %d first", len(d2Matrices), len(d1Matrices))
	}
	for i, m := range d1Matrices {
		if err := e.checkMatrixIndex(m); err != nil {
			return err
		}
		if d2Matrices != nil {
			if err := e.checkMatrixIndex(d2Matrices[i]); err != nil {
				return err
			}
		}
		if edgeLengths[i] < 0 {
			return fmt.Errorf("accelimpl: negative edge length %v", edgeLengths[i])
		}
	}
	tstart := e.cfg.Trace.Begin()
	n := e.cfg.Dims.MatrixLen()
	host1 := make([]T, n)
	var host2 []T
	if d2Matrices != nil {
		host2 = make([]T, n)
	}
	for i, m := range d1Matrices {
		kernels.UpdateTransitionDerivatives(host1, host2, ed, edgeLengths[i], e.catRates)
		if err := device.CopyToDevice(e.q, e.matrices[m], host1); err != nil {
			return err
		}
		e.matSet[m] = true
		// Derivative uploads overwrite ordinary matrix buffers, so any
		// content-addressed transition-matrix entry for them is stale.
		e.reuse.InvalidateMatrix(m)
		if d2Matrices != nil {
			if err := device.CopyToDevice(e.q, e.matrices[d2Matrices[i]], host2); err != nil {
				return err
			}
			e.matSet[d2Matrices[i]] = true
			e.reuse.InvalidateMatrix(d2Matrices[i])
		}
	}
	e.cfg.Trace.End(trace.Span{Kind: trace.KindDerivatives, Lane: int32(e.cfg.TraceLane),
		Start: tstart, Arg0: int64(len(d1Matrices))})
	return nil
}

// CalculateEdgeDerivatives integrates across one branch on the device,
// returning the log likelihood and its branch-length derivatives.
func (e *Engine[T]) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
	for _, b := range []int{parentBuf, childBuf} {
		if err := e.checkPartialsIndex(b); err != nil {
			return 0, 0, 0, err
		}
		if (b < e.cfg.TipCount && e.tipStates[b] != nil) || e.partials[b] == nil {
			return 0, 0, 0, fmt.Errorf("accelimpl: edge derivatives require loaded partials buffers")
		}
	}
	mats := []int{matrix, d1Matrix}
	if d2Matrix != engine.None {
		mats = append(mats, d2Matrix)
	}
	for _, mi := range mats {
		if err := e.checkMatrixIndex(mi); err != nil {
			return 0, 0, 0, err
		}
		if !e.matSet[mi] {
			return 0, 0, 0, fmt.Errorf("accelimpl: matrix buffer %d not available", mi)
		}
	}
	var scale []float64
	if cumScaleBuf != engine.None {
		if err := e.checkScaleIndex(cumScaleBuf); err != nil {
			return 0, 0, 0, err
		}
		if e.scale[cumScaleBuf] == nil {
			return 0, 0, 0, fmt.Errorf("accelimpl: scale buffer %d has not been written", cumScaleBuf)
		}
		scale = make([]float64, e.cfg.Dims.PatternCount)
		if err := device.CopyFromDevice(e.q, scale, e.scale[cumScaleBuf]); err != nil {
			return 0, 0, 0, err
		}
	}
	d := e.cfg.Dims
	parent := e.partials[parentBuf].Data()
	child := e.partials[childBuf].Data()
	m := e.matrices[matrix].Data()
	m1 := e.matrices[d1Matrix].Data()
	var m2 []T
	if d2Matrix != engine.None {
		m2 = e.matrices[d2Matrix].Data()
	}
	siteL := make([]float64, d.PatternCount)
	siteD1 := make([]float64, d.PatternCount)
	var siteD2 []float64
	if m2 != nil {
		siteD2 = make([]float64, d.PatternCount)
	}
	tstart := e.cfg.Trace.Begin()
	wts, fr := e.catWts, e.freqs
	cost := e.opCost()
	cost.Flops *= 2 // likelihood plus derivative accumulations
	if err := e.q.LaunchKernel(device.Launch{Global: d.PatternCount, Local: e.groupPats}, cost, func(p int) {
		if p >= d.PatternCount {
			return
		}
		kernels.EdgeSiteDerivatives(siteL, siteD1, siteD2, parent, child, m, m1, m2,
			wts, fr, d, p, p+1)
	}); err != nil {
		return 0, 0, 0, err
	}
	lnL := kernels.RootLogLikelihood(siteL, e.patWts, scale, 0, d.PatternCount)
	d1, d2 := kernels.ReduceEdgeDerivatives(siteL, siteD1, siteD2, e.patWts, 0, d.PatternCount)
	e.cfg.Trace.End(trace.Span{Kind: trace.KindEdge, Lane: int32(e.cfg.TraceLane), Start: tstart})
	return lnL, d1, d2, nil
}

// CalculateEdgeLogLikelihoods integrates across one branch on the device.
func (e *Engine[T]) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	for _, b := range []int{parentBuf, childBuf} {
		if err := e.checkPartialsIndex(b); err != nil {
			return 0, err
		}
		if b < e.cfg.TipCount && e.tipStates[b] != nil {
			return 0, fmt.Errorf("accelimpl: edge likelihood requires partials buffers (use SetTipPartials for tips)")
		}
		if e.partials[b] == nil {
			return 0, fmt.Errorf("accelimpl: buffer %d holds no data", b)
		}
	}
	if err := e.checkMatrixIndex(matrix); err != nil {
		return 0, err
	}
	if !e.matSet[matrix] {
		return 0, fmt.Errorf("accelimpl: matrix buffer %d not available", matrix)
	}
	var scale []float64
	if cumScaleBuf != engine.None {
		if err := e.checkScaleIndex(cumScaleBuf); err != nil {
			return 0, err
		}
		if e.scale[cumScaleBuf] == nil {
			return 0, fmt.Errorf("accelimpl: scale buffer %d has not been written", cumScaleBuf)
		}
		scale = make([]float64, e.cfg.Dims.PatternCount)
		if err := device.CopyFromDevice(e.q, scale, e.scale[cumScaleBuf]); err != nil {
			return 0, err
		}
	}
	tstart := e.cfg.Trace.Begin()
	d := e.cfg.Dims
	parent := e.partials[parentBuf].Data()
	child := e.partials[childBuf].Data()
	m := e.matrices[matrix].Data()
	out := e.siteBuf.Data()
	wts, fr := e.catWts, e.freqs
	cost := e.opCost()
	if err := e.q.LaunchKernel(device.Launch{Global: d.PatternCount, Local: e.groupPats}, cost, func(p int) {
		if p >= d.PatternCount {
			return
		}
		kernels.EdgeSiteLikelihoods(out, parent, child, m, wts, fr, d, p, p+1)
	}); err != nil {
		return 0, err
	}
	site := make([]float64, d.PatternCount)
	if err := device.CopyFromDevice(e.q, site, e.siteBuf); err != nil {
		return 0, err
	}
	lnL := kernels.RootLogLikelihood(site, e.patWts, scale, 0, d.PatternCount)
	e.cfg.Trace.End(trace.Span{Kind: trace.KindEdge, Lane: int32(e.cfg.TraceLane), Start: tstart})
	return lnL, nil
}
