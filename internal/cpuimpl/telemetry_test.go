package cpuimpl

import (
	"math/rand"
	"testing"
	"time"

	"gobeagle/internal/engine"
	"gobeagle/internal/flops"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/trace"
	"gobeagle/internal/tree"
)

// The telemetry tests pin the per-kernel aggregates the tracer folds from
// the engine's spans — the counters Instance.Stats reports.

// telemetryProblem builds a shared small problem for the telemetry and
// trace tests.
func telemetryProblem(t *testing.T) (*tree.Tree, *substmodel.Model, *substmodel.SiteRates, *seqgen.PatternSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	tr, err := tree.Random(rng, 12, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := substmodel.NewHKY85(2.0, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rng, tr, m, rates, 200)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m, rates, seqgen.CompressPatterns(align)
}

func TestTelemetryRecordsKernelsInEveryMode(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	for _, mode := range Modes() {
		tc := trace.New()
		tc.SetEnabled(true)
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tc
		e, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		p := tc.Stat(trace.KindBatch)
		if p.Calls == 0 || p.Ops != uint64(tr.TipCount-1) {
			t.Errorf("%v: partials ops/calls = %d/%d, want %d ops", mode, p.Ops, p.Calls, tr.TipCount-1)
		}
		if tc.Stat(trace.KindRoot).Calls == 0 {
			t.Errorf("%v: root kernel not recorded", mode)
		}
		if mats := tc.Stat(trace.KindMatrices); mats.Ops == 0 {
			t.Errorf("%v: matrices kernel not recorded", mode)
		}
		if flops.PartialsOp(cfg.Dims)*float64(p.Ops) <= 0 {
			t.Errorf("%v: no effective flops accounted", mode)
		}
		if tc.NextBatch() < 2 {
			t.Errorf("%v: batch counter untouched", mode)
		}
	}
}

// TestTelemetryLevelTraces checks the leveled strategies (futures and
// thread-pool-hybrid) report their dependency leveling through level spans,
// with the per-level op counts summing to the batch's operations.
func TestTelemetryLevelTraces(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	for _, mode := range []Mode{Futures, ThreadPoolHybrid} {
		tc := trace.New()
		tc.SetEnabled(true)
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tc
		e, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		var levels []trace.Span
		for _, s := range tc.Snapshot() {
			if s.Kind == trace.KindLevel {
				levels = append(levels, s)
			}
		}
		if len(levels) == 0 {
			t.Errorf("%v: no dependency levels traced", mode)
			continue
		}
		byBatch := map[uint64]int{}
		lastLevel := map[uint64]int{}
		for _, lt := range levels {
			level, tasks := lt.Level()
			if lt.Batch == 0 {
				t.Errorf("%v: level trace with zero batch id", mode)
			}
			if tasks < 1 || lt.Arg1 < 1 {
				t.Errorf("%v: degenerate level trace %+v", mode, lt)
			}
			if prev, ok := lastLevel[lt.Batch]; ok && level != prev+1 {
				t.Errorf("%v: batch %d levels not consecutive: %d after %d", mode, lt.Batch, level, prev)
			}
			lastLevel[lt.Batch] = level
			byBatch[lt.Batch] += int(lt.Arg1)
		}
		for batch, ops := range byBatch {
			if ops != tr.TipCount-1 {
				t.Errorf("%v: batch %d level ops sum to %d, want %d", mode, batch, ops, tr.TipCount-1)
			}
		}
	}
}

func TestTelemetryDisabledAndNilRecordNothing(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	disabled := trace.New() // never enabled
	for _, tc := range []*trace.Tracer{disabled, nil} {
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tc
		e, err := New(cfg, ThreadPoolHybrid)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []trace.Kind{trace.KindBatch, trace.KindRoot, trace.KindEdge,
		trace.KindMatrices, trace.KindDerivatives, trace.KindRescale} {
		if st := disabled.Stat(k); st != (trace.Stat{}) {
			t.Fatalf("disabled tracer aggregated %v: %+v", k, st)
		}
	}
	if disabled.NextBatch() != 1 || len(disabled.Snapshot()) != 0 {
		t.Fatal("disabled tracer recorded batches or levels")
	}
}

// TestTelemetryDisabledOverhead is the regression guard for the <2%
// disabled-overhead budget on the instrumented methods other than
// UpdatePartials (which TestTraceDisabledOverhead covers): a root
// integration with a disabled tracer must stay close to one with no tracer
// at all. The threshold is deliberately loose (50%) so scheduler noise on
// shared CI runners cannot flake it; the per-call budget is pinned by
// BenchmarkDisabledGuard in internal/trace.
func TestTelemetryDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	tr, m, rates, ps := telemetryProblem(t)

	eval := func(tc *trace.Tracer) time.Duration {
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tc
		e, err := New(cfg, Serial)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		root := tr.FullSchedule().Root
		driveEngine(t, e, tr, m, rates, ps, true, false)
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 30; rep++ {
			start := time.Now()
			if _, err := e.CalculateRootLogLikelihoods(root, engine.None); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	baseline := eval(nil)
	disabled := eval(trace.New())
	if baseline <= 0 {
		t.Skip("timer resolution too coarse for comparison")
	}
	if ratio := float64(disabled) / float64(baseline); ratio > 1.5 {
		t.Errorf("disabled telemetry overhead %.1f%% (baseline %v, disabled %v)",
			100*(ratio-1), baseline, disabled)
	}
}
