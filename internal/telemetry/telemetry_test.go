// Package telemetry holds the guards of instance telemetry: the counters,
// histograms and dependency levels behind Instance.Stats. There is no
// separate collector; every figure is folded from the spans the instance's
// trace.Tracer records, so these tests drive that tracer (and the public
// KernelStats accessors and flops helpers Stats is built from) directly.
package telemetry

import (
	"testing"
	"time"

	"gobeagle"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/trace"
)

// statsKinds are the span kinds Stats aggregates into kernel families.
var statsKinds = []trace.Kind{
	trace.KindBatch, trace.KindBarrier, trace.KindRoot, trace.KindEdge,
	trace.KindMatrices, trace.KindDerivatives, trace.KindRescale,
}

func TestNilCollectorIsSafeAndDisabled(t *testing.T) {
	var c *trace.Tracer
	if c.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// None of these may panic.
	c.SetEnabled(true)
	c.SetStatsLane(-1)
	c.SetRequest(7)
	c.Record(trace.Span{Kind: trace.KindBatch, Dur: int64(time.Millisecond), Arg0: 3})
	c.Record(trace.Span{Kind: trace.KindLevel, Arg0: trace.LevelArg(0, 4), Arg1: 8})
	c.End(trace.Span{Kind: trace.KindRoot, Start: c.Begin()})
	c.Reset()
	if c.Enabled() {
		t.Fatal("nil tracer enabled by SetEnabled")
	}
	if got := c.NextBatch(); got != 0 {
		t.Fatalf("nil NextBatch = %d, want 0", got)
	}
	if got := c.StatsLane(); got != 0 {
		t.Fatalf("nil StatsLane = %d, want 0", got)
	}
	for _, k := range statsKinds {
		if st := c.Stat(k); st != (trace.Stat{}) {
			t.Fatalf("nil Stat(%v) not zero: %+v", k, st)
		}
	}
	if spans := c.Snapshot(); len(spans) != 0 {
		t.Fatalf("nil Snapshot not empty: %+v", spans)
	}
}

func TestDisabledCollectorRecordsNothing(t *testing.T) {
	c := trace.New()
	if c.Enabled() {
		t.Fatal("new tracer should start disabled")
	}
	if start := c.Begin(); start != -1 {
		t.Fatalf("disabled Begin = %d, want -1", start)
	}
	c.Record(trace.Span{Kind: trace.KindBatch, Dur: int64(time.Millisecond), Arg0: 5})
	c.Record(trace.Span{Kind: trace.KindLevel, Batch: 1, Arg0: trace.LevelArg(0, 10), Arg1: 5})
	c.End(trace.Span{Kind: trace.KindRoot, Start: c.Begin()})
	for _, k := range statsKinds {
		if st := c.Stat(k); st != (trace.Stat{}) {
			t.Fatalf("disabled Record leaked into %v: %+v", k, st)
		}
	}
	if spans := c.Snapshot(); len(spans) != 0 {
		t.Fatalf("disabled Record leaked spans (dependency levels included): %+v", spans)
	}
}

// TestDisabledPathAllocatesNothing pins the zero-allocation guarantee of the
// disabled fast path: the guard plus the no-op record must not allocate.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	c := trace.New()
	var nilC *trace.Tracer
	for name, col := range map[string]*trace.Tracer{"disabled": c, "nil": nilC} {
		allocs := testing.AllocsPerRun(1000, func() {
			if col.Enabled() {
				col.Record(trace.Span{Kind: trace.KindBatch, Dur: 1000, Arg0: 1})
			}
			col.Record(trace.Span{Kind: trace.KindRoot, Dur: 1000})
			col.End(trace.Span{Kind: trace.KindEdge, Start: col.Begin()})
			col.NextBatch()
		})
		if allocs != 0 {
			t.Errorf("%s path allocates %.1f per run, want 0", name, allocs)
		}
	}
}

// TestEnabledHotPathAllocatesNothing extends the zero-allocation guarantee
// to the enabled path: a counted span is written into a preallocated ring
// and folded into a fixed-size aggregate, so turning telemetry on must add
// time, never garbage.
func TestEnabledHotPathAllocatesNothing(t *testing.T) {
	c := trace.New()
	c.SetEnabled(true)
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Enabled() {
			c.Record(trace.Span{Kind: trace.KindBatch, Dur: 1000, Arg0: 4})
			c.Record(trace.Span{Kind: trace.KindLevel, Arg0: trace.LevelArg(0, 4), Arg1: 4})
		}
		c.NextBatch()
	})
	if allocs != 0 {
		t.Errorf("enabled path allocates %.1f per run, want 0", allocs)
	}
	if st := c.Stat(trace.KindBatch); st.Calls == 0 || st.Ops != 4*st.Calls {
		t.Fatalf("enabled path did not aggregate: %+v", st)
	}
}

// Zero-division guards: mean and GFLOPS accessors must yield zero, never
// panic or return NaN/Inf, for empty or zero-duration stats.

func TestKernelStatsMeansGuardZero(t *testing.T) {
	var empty gobeagle.KernelStats
	if got := empty.MeanPerOp(); got != 0 {
		t.Errorf("MeanPerOp on zero stats = %v, want 0", got)
	}
	if got := empty.MeanPerCall(); got != 0 {
		t.Errorf("MeanPerCall on zero stats = %v, want 0", got)
	}
	// Calls without ops (and vice versa): only the populated mean divides.
	callsOnly := gobeagle.KernelStats{Calls: 3, Total: 300}
	if got := callsOnly.MeanPerOp(); got != 0 {
		t.Errorf("MeanPerOp with zero ops = %v, want 0", got)
	}
	if got := callsOnly.MeanPerCall(); got != 100 {
		t.Errorf("MeanPerCall = %v, want 100", got)
	}
	opsOnly := gobeagle.KernelStats{Ops: 4, Total: 400}
	if got := opsOnly.MeanPerCall(); got != 0 {
		t.Errorf("MeanPerCall with zero calls = %v, want 0", got)
	}
	if got := opsOnly.MeanPerOp(); got != 100 {
		t.Errorf("MeanPerOp = %v, want 100", got)
	}
}

func TestGFLOPSGuardsZeroAndNegativeDuration(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		if got := flops.GFLOPS(1e12, d); got != 0 {
			t.Errorf("GFLOPS(1e12, %v) = %v, want 0", d, got)
		}
	}
	if got := flops.GFLOPS(2e9, time.Second); got != 2 {
		t.Errorf("GFLOPS(2e9, 1s) = %v, want 2", got)
	}
}

// TestSnapshotZeroDurationPartials covers the EffectiveGFLOPS path when
// partials operations were counted but the batch span recorded zero wall
// time (possible on coarse clocks): Stats derives TotalFlops from the
// partials ops and EffectiveGFLOPS from the partials total, and must report
// 0, not +Inf.
func TestSnapshotZeroDurationPartials(t *testing.T) {
	c := trace.New()
	c.SetEnabled(true)
	c.Record(trace.Span{Kind: trace.KindBatch, Dur: 0, Arg0: 10})
	st := c.Stat(trace.KindBatch)
	if st.Ops != 10 || st.Calls != 1 || st.Total != 0 {
		t.Fatalf("zero-duration batch aggregated as %+v", st)
	}
	dims := kernels.Dims{StateCount: 4, PatternCount: 1000, CategoryCount: 4}
	total := float64(st.Ops) * flops.PartialsOp(dims)
	if total <= 0 {
		t.Fatalf("TotalFlops = %v, want > 0", total)
	}
	if g := flops.GFLOPS(total, st.Total); g != 0 {
		t.Errorf("EffectiveGFLOPS with zero partials wall time = %v, want 0", g)
	}
	ks := gobeagle.KernelStats{Kernel: "partials", Ops: st.Ops, Calls: st.Calls, Total: st.Total}
	if ks.MeanPerOp() != 0 || ks.MeanPerCall() != 0 {
		t.Errorf("zero-duration kernel means = %v/%v, want 0/0", ks.MeanPerOp(), ks.MeanPerCall())
	}
}

// TestKernelStrings pins the span kinds the reported kernel families
// ("partials", "root", "edge", "matrices", "derivatives", "rescale") are
// aggregated from: each counts, each has its own export name, and an
// out-of-range kind stringifies as unknown and never counts.
func TestKernelStrings(t *testing.T) {
	want := map[trace.Kind]string{
		trace.KindBatch:       "partials batch",
		trace.KindRoot:        "root likelihood",
		trace.KindEdge:        "edge likelihood",
		trace.KindMatrices:    "transition matrices",
		trace.KindDerivatives: "derivative matrices",
		trace.KindRescale:     "rescale",
	}
	c := trace.New()
	c.SetEnabled(true)
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d String() = %q, want %q", k, k.String(), name)
		}
		c.Record(trace.Span{Kind: k, Arg0: 1})
		if c.Stat(k).Calls != 1 {
			t.Errorf("%v span not counted", k)
		}
	}
	if trace.Kind(99).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
	if st := c.Stat(trace.Kind(99)); st != (trace.Stat{}) {
		t.Errorf("out-of-range kind has stats: %+v", st)
	}
}

// TestTraceRingWrapKeepsNewestOldestFirst pins the ring Stats.Levels is
// read from: once more dependency-level spans are recorded than the tracer
// retains, the newest TraceCapacity survive, returned oldest first.
func TestTraceRingWrapKeepsNewestOldestFirst(t *testing.T) {
	c := trace.New()
	c.SetEnabled(true)
	const extra = 50
	for i := 0; i < trace.TraceCapacity+extra; i++ {
		c.Record(trace.Span{Kind: trace.KindLevel, Batch: uint64(i + 1),
			Arg0: trace.LevelArg(i, 2), Arg1: 4, Dur: int64(i)})
	}
	levels := c.Snapshot()
	if len(levels) != trace.TraceCapacity {
		t.Fatalf("ring retained %d traces, want %d", len(levels), trace.TraceCapacity)
	}
	if levels[0].Batch != extra+1 {
		t.Fatalf("oldest retained batch = %d, want %d", levels[0].Batch, extra+1)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].Batch != levels[i-1].Batch+1 {
			t.Fatalf("traces out of order at %d: %d then %d", i, levels[i-1].Batch, levels[i].Batch)
		}
	}
	if idx, tasks := levels[0].Level(); idx != extra || tasks != 2 {
		t.Fatalf("oldest level = %d (%d tasks), want %d (2 tasks)", idx, tasks, extra)
	}
}
