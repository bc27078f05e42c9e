package engine

import (
	"fmt"

	"gobeagle/internal/kernels"
	"gobeagle/internal/reuse"
	"gobeagle/internal/trace"
)

// Storage is the flexibly indexed buffer store shared by host-side
// implementations: partials, compact tip states, transition matrices,
// eigendecompositions, rate/weight/frequency vectors and scale buffers. It
// provides the full setter half of the Engine interface with validation, so
// concrete engines only implement execution strategy. All public setters take
// float64 and convert to the engine precision T at this boundary, exactly as
// the BEAGLE C API does.
type Storage[T kernels.Real] struct {
	Cfg       Config
	Partials  [][]T
	TipStates [][]int32
	Matrices  [][]T
	Eigens    []*kernels.Eigen
	CatRates  []float64
	CatWts    []float64
	Freqs     []float64
	PatWts    []float64
	Scale     [][]float64
	// Reuse is the incremental re-evaluation tracker, nil unless
	// Cfg.Reuse. Every mutating setter below reports its invalidation to
	// it (all tracker methods are no-ops on nil), and implementations
	// consult it to skip unchanged work.
	Reuse *reuse.Tracker
}

// NewStorage allocates a buffer store for the given configuration; the
// configuration must already be validated.
func NewStorage[T kernels.Real](cfg Config) *Storage[T] {
	s := &Storage[T]{
		Cfg:       cfg,
		Partials:  make([][]T, cfg.PartialsBuffers),
		TipStates: make([][]int32, cfg.TipCount),
		Matrices:  make([][]T, cfg.MatrixBuffers),
		Eigens:    make([]*kernels.Eigen, cfg.EigenBuffers),
		CatRates:  make([]float64, cfg.Dims.CategoryCount),
		CatWts:    make([]float64, cfg.Dims.CategoryCount),
		Freqs:     make([]float64, cfg.Dims.StateCount),
		PatWts:    make([]float64, cfg.Dims.PatternCount),
		Scale:     make([][]float64, cfg.ScaleBuffers),
	}
	// Sensible defaults: unit rates, uniform weights and frequencies,
	// weight-1 patterns.
	for i := range s.CatRates {
		s.CatRates[i] = 1
		s.CatWts[i] = 1 / float64(cfg.Dims.CategoryCount)
	}
	for i := range s.Freqs {
		s.Freqs[i] = 1 / float64(cfg.Dims.StateCount)
	}
	for i := range s.PatWts {
		s.PatWts[i] = 1
	}
	if cfg.Reuse {
		s.Reuse = reuse.New(cfg.PartialsBuffers, cfg.MatrixBuffers, cfg.ScaleBuffers)
	}
	return s
}

func (s *Storage[T]) checkPartialsIndex(buf int) error {
	if buf < 0 || buf >= len(s.Partials) {
		return fmt.Errorf("engine: partials buffer %d out of range [0,%d)", buf, len(s.Partials))
	}
	return nil
}

func (s *Storage[T]) checkMatrixIndex(m int) error {
	if m < 0 || m >= len(s.Matrices) {
		return fmt.Errorf("engine: matrix buffer %d out of range [0,%d)", m, len(s.Matrices))
	}
	return nil
}

func (s *Storage[T]) checkScaleIndex(b int) error {
	if b < 0 || b >= len(s.Scale) {
		return fmt.Errorf("engine: scale buffer %d out of range [0,%d)", b, len(s.Scale))
	}
	return nil
}

// SetTipStates stores compact states for tip buffer buf.
func (s *Storage[T]) SetTipStates(buf int, states []int) error {
	if buf < 0 || buf >= s.Cfg.TipCount {
		return fmt.Errorf("engine: tip buffer %d out of range [0,%d)", buf, s.Cfg.TipCount)
	}
	if len(states) != s.Cfg.Dims.PatternCount {
		return fmt.Errorf("engine: tip states length %d, want %d", len(states), s.Cfg.Dims.PatternCount)
	}
	out := make([]int32, len(states))
	for i, st := range states {
		if st < 0 {
			return fmt.Errorf("engine: negative state %d at pattern %d", st, i)
		}
		// Any value ≥ StateCount is normalized to the gap code StateCount.
		if st > s.Cfg.Dims.StateCount {
			st = s.Cfg.Dims.StateCount
		}
		out[i] = int32(st)
	}
	s.TipStates[buf] = out
	s.Reuse.InvalidatePartials(buf)
	return nil
}

// SetTipPartials stores per-pattern partials for a tip, replicating across
// categories.
func (s *Storage[T]) SetTipPartials(buf int, partials []float64) error {
	if buf < 0 || buf >= s.Cfg.TipCount {
		return fmt.Errorf("engine: tip buffer %d out of range [0,%d)", buf, s.Cfg.TipCount)
	}
	d := s.Cfg.Dims
	if len(partials) != d.PatternCount*d.StateCount {
		return fmt.Errorf("engine: tip partials length %d, want %d", len(partials), d.PatternCount*d.StateCount)
	}
	full := make([]T, d.PartialsLen())
	for c := 0; c < d.CategoryCount; c++ {
		off := c * d.PatternCount * d.StateCount
		for i, v := range partials {
			full[off+i] = T(v)
		}
	}
	s.Partials[buf] = full
	s.TipStates[buf] = nil // expanded representation wins
	s.Reuse.InvalidatePartials(buf)
	return nil
}

// SetPartials stores a full partials buffer.
func (s *Storage[T]) SetPartials(buf int, partials []float64) error {
	if err := s.checkPartialsIndex(buf); err != nil {
		return err
	}
	d := s.Cfg.Dims
	if len(partials) != d.PartialsLen() {
		return fmt.Errorf("engine: partials length %d, want %d", len(partials), d.PartialsLen())
	}
	full := make([]T, len(partials))
	for i, v := range partials {
		full[i] = T(v)
	}
	s.Partials[buf] = full
	if buf < s.Cfg.TipCount {
		s.TipStates[buf] = nil
	}
	s.Reuse.InvalidatePartials(buf)
	return nil
}

// GetPartials retrieves a partials buffer as float64.
func (s *Storage[T]) GetPartials(buf int) ([]float64, error) {
	if err := s.checkPartialsIndex(buf); err != nil {
		return nil, err
	}
	p := s.Partials[buf]
	if p == nil {
		return nil, fmt.Errorf("engine: partials buffer %d has not been computed or set", buf)
	}
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = float64(v)
	}
	return out, nil
}

// SetEigenDecomposition stores a decomposition in an eigen slot.
func (s *Storage[T]) SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error {
	if slot < 0 || slot >= len(s.Eigens) {
		return fmt.Errorf("engine: eigen slot %d out of range [0,%d)", slot, len(s.Eigens))
	}
	n := s.Cfg.Dims.StateCount
	if len(values) != n || len(vectors) != n*n || len(inverseVectors) != n*n {
		return fmt.Errorf("engine: eigen decomposition sizes %d/%d/%d, want %d/%d/%d",
			len(values), len(vectors), len(inverseVectors), n, n*n, n*n)
	}
	s.Eigens[slot] = &kernels.Eigen{
		StateCount:     n,
		Values:         append([]float64(nil), values...),
		Vectors:        append([]float64(nil), vectors...),
		InverseVectors: append([]float64(nil), inverseVectors...),
	}
	s.Reuse.InvalidateModel()
	return nil
}

// SetCategoryRates sets per-category relative rates.
func (s *Storage[T]) SetCategoryRates(rates []float64) error {
	if len(rates) != s.Cfg.Dims.CategoryCount {
		return fmt.Errorf("engine: %d category rates, want %d", len(rates), s.Cfg.Dims.CategoryCount)
	}
	copy(s.CatRates, rates)
	s.Reuse.InvalidateModel()
	return nil
}

// SetCategoryWeights sets per-category mixture weights.
func (s *Storage[T]) SetCategoryWeights(weights []float64) error {
	if len(weights) != s.Cfg.Dims.CategoryCount {
		return fmt.Errorf("engine: %d category weights, want %d", len(weights), s.Cfg.Dims.CategoryCount)
	}
	copy(s.CatWts, weights)
	s.Reuse.InvalidateModel()
	return nil
}

// SetStateFrequencies sets the stationary distribution π.
func (s *Storage[T]) SetStateFrequencies(freqs []float64) error {
	if len(freqs) != s.Cfg.Dims.StateCount {
		return fmt.Errorf("engine: %d frequencies, want %d", len(freqs), s.Cfg.Dims.StateCount)
	}
	copy(s.Freqs, freqs)
	s.Reuse.InvalidateModel()
	return nil
}

// SetPatternWeights sets per-pattern multiplicities.
func (s *Storage[T]) SetPatternWeights(weights []float64) error {
	if len(weights) != s.Cfg.Dims.PatternCount {
		return fmt.Errorf("engine: %d pattern weights, want %d", len(weights), s.Cfg.Dims.PatternCount)
	}
	copy(s.PatWts, weights)
	s.Reuse.InvalidateModel()
	return nil
}

// SetTransitionMatrix stores an explicit transition matrix buffer.
func (s *Storage[T]) SetTransitionMatrix(matrix int, values []float64) error {
	if err := s.checkMatrixIndex(matrix); err != nil {
		return err
	}
	if len(values) != s.Cfg.Dims.MatrixLen() {
		return fmt.Errorf("engine: matrix length %d, want %d", len(values), s.Cfg.Dims.MatrixLen())
	}
	m := make([]T, len(values))
	for i, v := range values {
		m[i] = T(v)
	}
	s.Matrices[matrix] = m
	s.Reuse.InvalidateMatrix(matrix)
	return nil
}

// GetTransitionMatrix retrieves a matrix buffer as float64.
func (s *Storage[T]) GetTransitionMatrix(matrix int) ([]float64, error) {
	if err := s.checkMatrixIndex(matrix); err != nil {
		return nil, err
	}
	m := s.Matrices[matrix]
	if m == nil {
		return nil, fmt.Errorf("engine: matrix buffer %d has not been computed or set", matrix)
	}
	out := make([]float64, len(m))
	for i, v := range m {
		out[i] = float64(v)
	}
	return out, nil
}

// UpdateTransitionMatrices computes the listed matrices from an eigen slot.
func (s *Storage[T]) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	if eigenSlot < 0 || eigenSlot >= len(s.Eigens) {
		return fmt.Errorf("engine: eigen slot %d out of range [0,%d)", eigenSlot, len(s.Eigens))
	}
	e := s.Eigens[eigenSlot]
	if e == nil {
		return fmt.Errorf("engine: eigen slot %d is empty", eigenSlot)
	}
	if len(matrices) != len(edgeLengths) {
		return fmt.Errorf("engine: %d matrices but %d edge lengths", len(matrices), len(edgeLengths))
	}
	for i, m := range matrices {
		if err := s.checkMatrixIndex(m); err != nil {
			return err
		}
		if edgeLengths[i] < 0 {
			return fmt.Errorf("engine: negative edge length %v", edgeLengths[i])
		}
	}
	tstart := s.Cfg.Trace.Begin()
	computed := 0
	for i, m := range matrices {
		// Content-addressed reuse: the matrix already holds the result of
		// this exact (model, eigen slot, edge length) computation.
		if !s.Reuse.ShouldComputeMatrix(m, eigenSlot, edgeLengths[i]) {
			continue
		}
		if s.Matrices[m] == nil {
			s.Matrices[m] = make([]T, s.Cfg.Dims.MatrixLen())
		}
		kernels.UpdateTransitionMatrix(s.Matrices[m], e, edgeLengths[i], s.CatRates)
		computed++
	}
	s.Cfg.Trace.End(trace.Span{Kind: trace.KindMatrices, Lane: int32(s.Cfg.TraceLane),
		Start: tstart, Arg0: int64(computed)})
	return nil
}

// UpdateTransitionDerivatives computes derivative matrices from an eigen
// slot into ordinary matrix buffers, as BEAGLE's derivative indices do.
func (s *Storage[T]) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	if eigenSlot < 0 || eigenSlot >= len(s.Eigens) {
		return fmt.Errorf("engine: eigen slot %d out of range [0,%d)", eigenSlot, len(s.Eigens))
	}
	e := s.Eigens[eigenSlot]
	if e == nil {
		return fmt.Errorf("engine: eigen slot %d is empty", eigenSlot)
	}
	if len(d1Matrices) != len(edgeLengths) {
		return fmt.Errorf("engine: %d derivative matrices but %d edge lengths", len(d1Matrices), len(edgeLengths))
	}
	if d2Matrices != nil && len(d2Matrices) != len(d1Matrices) {
		return fmt.Errorf("engine: %d second-derivative matrices for %d first", len(d2Matrices), len(d1Matrices))
	}
	for i, m := range d1Matrices {
		if err := s.checkMatrixIndex(m); err != nil {
			return err
		}
		if d2Matrices != nil {
			if err := s.checkMatrixIndex(d2Matrices[i]); err != nil {
				return err
			}
		}
		if edgeLengths[i] < 0 {
			return fmt.Errorf("engine: negative edge length %v", edgeLengths[i])
		}
	}
	tstart := s.Cfg.Trace.Begin()
	for i, m := range d1Matrices {
		if s.Matrices[m] == nil {
			s.Matrices[m] = make([]T, s.Cfg.Dims.MatrixLen())
		}
		var d2 []T
		if d2Matrices != nil {
			if s.Matrices[d2Matrices[i]] == nil {
				s.Matrices[d2Matrices[i]] = make([]T, s.Cfg.Dims.MatrixLen())
			}
			d2 = s.Matrices[d2Matrices[i]]
		}
		kernels.UpdateTransitionDerivatives(s.Matrices[m], d2, e, edgeLengths[i], s.CatRates)
		// Derivative kernels overwrite ordinary matrix buffers, so any
		// content-addressed transition-matrix entry for them is stale.
		s.Reuse.InvalidateMatrix(m)
		if d2Matrices != nil {
			s.Reuse.InvalidateMatrix(d2Matrices[i])
		}
	}
	s.Cfg.Trace.End(trace.Span{Kind: trace.KindDerivatives, Lane: int32(s.Cfg.TraceLane),
		Start: tstart, Arg0: int64(len(d1Matrices))})
	return nil
}

// ResetScaleFactors zeroes (and allocates if needed) a scale buffer.
func (s *Storage[T]) ResetScaleFactors(scaleBuf int) error {
	if err := s.checkScaleIndex(scaleBuf); err != nil {
		return err
	}
	s.Reuse.InvalidateScale(scaleBuf)
	if s.Scale[scaleBuf] == nil {
		s.Scale[scaleBuf] = make([]float64, s.Cfg.Dims.PatternCount)
		return nil
	}
	for i := range s.Scale[scaleBuf] {
		s.Scale[scaleBuf][i] = 0
	}
	return nil
}

// AccumulateScaleFactors sums the listed scale buffers into cumBuf.
func (s *Storage[T]) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	if err := s.checkScaleIndex(cumBuf); err != nil {
		return err
	}
	factors := make([][]float64, 0, len(scaleBufs))
	for _, b := range scaleBufs {
		if err := s.checkScaleIndex(b); err != nil {
			return err
		}
		if s.Scale[b] == nil {
			return fmt.Errorf("engine: scale buffer %d has not been written", b)
		}
		factors = append(factors, s.Scale[b])
	}
	if s.Scale[cumBuf] == nil {
		s.Scale[cumBuf] = make([]float64, s.Cfg.Dims.PatternCount)
	}
	kernels.AccumulateScaleFactors(s.Scale[cumBuf], factors, 0, s.Cfg.Dims.PatternCount)
	s.Reuse.InvalidateScale(cumBuf)
	return nil
}

// ScaleWriteTarget returns (allocating if needed) the scale buffer an
// operation rescales into.
func (s *Storage[T]) ScaleWriteTarget(scaleBuf int) ([]float64, error) {
	if err := s.checkScaleIndex(scaleBuf); err != nil {
		return nil, err
	}
	if s.Scale[scaleBuf] == nil {
		s.Scale[scaleBuf] = make([]float64, s.Cfg.Dims.PatternCount)
	}
	return s.Scale[scaleBuf], nil
}

// CumulativeScale returns the scale buffer for likelihood integration, or
// nil when cumScaleBuf is None.
func (s *Storage[T]) CumulativeScale(cumScaleBuf int) ([]float64, error) {
	if cumScaleBuf == None {
		return nil, nil
	}
	if err := s.checkScaleIndex(cumScaleBuf); err != nil {
		return nil, err
	}
	if s.Scale[cumScaleBuf] == nil {
		return nil, fmt.Errorf("engine: scale buffer %d has not been written", cumScaleBuf)
	}
	return s.Scale[cumScaleBuf], nil
}

// OperandKind classifies an operation child as compact states or partials.
type OperandKind int

// Operand kinds.
const (
	OperandPartials OperandKind = iota
	OperandStates
)

// ChildOperand resolves an operation child buffer: compact tip states when
// they were set, otherwise the partials buffer. It validates that the buffer
// holds data.
func (s *Storage[T]) ChildOperand(buf int) (OperandKind, []int32, []T, error) {
	if err := s.checkPartialsIndex(buf); err != nil {
		return 0, nil, nil, err
	}
	if buf < s.Cfg.TipCount && s.TipStates[buf] != nil {
		return OperandStates, s.TipStates[buf], nil, nil
	}
	if s.Partials[buf] == nil {
		return 0, nil, nil, fmt.Errorf("engine: operand buffer %d holds no data", buf)
	}
	return OperandPartials, nil, s.Partials[buf], nil
}

// DestPartials returns (allocating if needed) a destination partials buffer.
func (s *Storage[T]) DestPartials(buf int) ([]T, error) {
	if err := s.checkPartialsIndex(buf); err != nil {
		return nil, err
	}
	if buf < s.Cfg.TipCount && s.TipStates[buf] != nil {
		return nil, fmt.Errorf("engine: buffer %d holds compact tip states and cannot be a destination", buf)
	}
	if s.Partials[buf] == nil {
		s.Partials[buf] = make([]T, s.Cfg.Dims.PartialsLen())
	}
	return s.Partials[buf], nil
}

// OpMatrices validates and returns the two matrices of an operation.
func (s *Storage[T]) OpMatrices(op Operation) (m1, m2 []T, err error) {
	if err := s.checkMatrixIndex(op.Child1Mat); err != nil {
		return nil, nil, err
	}
	if err := s.checkMatrixIndex(op.Child2Mat); err != nil {
		return nil, nil, err
	}
	m1 = s.Matrices[op.Child1Mat]
	m2 = s.Matrices[op.Child2Mat]
	if m1 == nil || m2 == nil {
		return nil, nil, fmt.Errorf("engine: operation uses uncomputed matrices %d/%d", op.Child1Mat, op.Child2Mat)
	}
	return m1, m2, nil
}
