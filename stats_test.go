package gobeagle

import (
	"encoding/json"
	"math/rand"
	"testing"

	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// statsProblem builds a small shared problem for the Stats API tests.
func statsProblem(t *testing.T) (*tree.Tree, *substmodel.Model, *substmodel.SiteRates, *seqgen.PatternSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	tr, err := tree.Random(rng, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m := substmodel.NewJC69()
	rates, err := substmodel.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rng, tr, m, rates, 150)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m, rates, seqgen.CompressPatterns(align)
}

func TestStatsThroughPublicAPI(t *testing.T) {
	tr, m, rates, ps := statsProblem(t)
	inst, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0,
		FlagTelemetry|FlagThreadingThreadPoolHybrid))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	if !inst.TelemetryEnabled() {
		t.Fatal("FlagTelemetry did not enable collection")
	}
	evaluateTree(t, inst, tr, m, rates, ps)

	s := inst.Stats()
	if !s.Enabled {
		t.Error("snapshot should report enabled")
	}
	if s.Implementation == "" || s.Strategy != "thread-pool-hybrid" {
		t.Errorf("labels = %q/%q, want implementation and thread-pool-hybrid", s.Implementation, s.Strategy)
	}
	if s.Batches != 1 {
		t.Errorf("batches = %d, want 1", s.Batches)
	}
	p := s.Kernel("partials")
	if p.Ops != uint64(tr.TipCount-1) || p.Calls != 1 {
		t.Errorf("partials ops/calls = %d/%d, want %d/1", p.Ops, p.Calls, tr.TipCount-1)
	}
	if s.Kernel("root").Calls != 1 {
		t.Error("root kernel not recorded")
	}
	if s.Kernel("matrices").Ops == 0 {
		t.Error("matrices kernel not recorded")
	}
	if s.TotalFlops <= 0 || s.EffectiveGFLOPS < 0 {
		t.Errorf("flop accounting wrong: %v flops, %v GFLOPS", s.TotalFlops, s.EffectiveGFLOPS)
	}
	if len(s.Levels) == 0 {
		t.Error("hybrid strategy traced no dependency levels")
	}
	// The snapshot is plain data: it must serialize cleanly to JSON.
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("Stats not JSON-serializable: %v", err)
	}

	inst.ResetStats()
	if after := inst.Stats(); after.Batches != 0 || len(after.Kernels) != 0 {
		t.Errorf("ResetStats left state: %+v", after)
	}
}

func TestKernelStatsZeroGuards(t *testing.T) {
	var empty KernelStats
	if empty.MeanPerOp() != 0 || empty.MeanPerCall() != 0 {
		t.Errorf("zero KernelStats means = %v/%v, want 0/0", empty.MeanPerOp(), empty.MeanPerCall())
	}
	k := KernelStats{Ops: 5, Calls: 0, Total: 500}
	if k.MeanPerCall() != 0 {
		t.Errorf("MeanPerCall with zero calls = %v, want 0", k.MeanPerCall())
	}
	if k.MeanPerOp() != 100 {
		t.Errorf("MeanPerOp = %v, want 100", k.MeanPerOp())
	}
	// Calls without ops: only the populated mean divides.
	callsOnly := KernelStats{Calls: 3, Total: 300}
	if callsOnly.MeanPerOp() != 0 || callsOnly.MeanPerCall() != 100 {
		t.Errorf("calls-only means = %v/%v, want 0/100", callsOnly.MeanPerOp(), callsOnly.MeanPerCall())
	}
	// A freshly created instance must report finite, zero GFLOPS.
	if s := (Stats{}); s.EffectiveGFLOPS != 0 {
		t.Errorf("zero Stats EffectiveGFLOPS = %v", s.EffectiveGFLOPS)
	}
}

func TestTelemetryRuntimeToggle(t *testing.T) {
	tr, m, rates, ps := statsProblem(t)
	inst, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	if inst.TelemetryEnabled() {
		t.Fatal("telemetry enabled without FlagTelemetry")
	}
	evaluateTree(t, inst, tr, m, rates, ps)
	if s := inst.Stats(); s.Enabled || s.Batches != 0 || len(s.Kernels) != 0 {
		t.Fatalf("disabled instance recorded: %+v", s)
	}

	inst.EnableTelemetry(true)
	evaluateTree(t, inst, tr, m, rates, ps)
	s := inst.Stats()
	if s.Batches != 1 || s.Kernel("partials").Calls != 1 {
		t.Fatalf("runtime-enabled telemetry missed the evaluation: %+v", s)
	}
	inst.EnableTelemetry(false)
	evaluateTree(t, inst, tr, m, rates, ps)
	if after := inst.Stats(); after.Batches != s.Batches {
		t.Fatal("recording continued after EnableTelemetry(false)")
	}
}

func TestStatsOnDeviceAndMultiDevice(t *testing.T) {
	tr, m, rates, ps := statsProblem(t)
	// Accelerator-backed instance: strategy must report "device" and the
	// rescale-free kernels must be counted.
	dev, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 1,
		FlagTelemetry|FlagPrecisionSingle))
	if err != nil {
		t.Fatal(err)
	}
	evaluateTree(t, dev, tr, m, rates, ps)
	ds := dev.Stats()
	dev.Finalize()
	if ds.Strategy != "device" {
		t.Errorf("device strategy = %q", ds.Strategy)
	}
	if ds.Kernel("partials").Ops != uint64(tr.TipCount-1) || ds.Kernel("root").Calls != 1 {
		t.Errorf("device kernels not recorded: %+v", ds.Kernels)
	}

	// Multi-device: the parent collector records; FlagTelemetry propagates.
	multi, err := NewMultiDeviceInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0,
		FlagTelemetry|FlagPrecisionSingle), []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	evaluateTree(t, multi, tr, m, rates, ps)
	ms := multi.Stats()
	multi.Finalize()
	if ms.Strategy != "multi-device" {
		t.Errorf("multi-device strategy = %q", ms.Strategy)
	}
	if p := ms.Kernel("partials"); p.Ops != uint64(tr.TipCount-1) {
		t.Errorf("multi-device partials ops = %d, want %d (no double counting)", p.Ops, tr.TipCount-1)
	}
	assertTopLevelCounts(t, "multi-device", ms, tr)

	// Distributed: the backends are loopback workers whose client RPC spans
	// share the instance's tracer; only the coordinator's spans count.
	addr1, _ := startTestWorker(t)
	addr2, _ := startTestWorker(t)
	dist, err := NewDistributedInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0,
		FlagTelemetry), []string{addr1, addr2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	evaluateTree(t, dist, tr, m, rates, ps)
	dst := dist.Stats()
	dist.Finalize()
	if dst.Strategy != "distributed" {
		t.Errorf("distributed strategy = %q", dst.Strategy)
	}
	if p := dst.Kernel("partials"); p.Ops != uint64(tr.TipCount-1) {
		t.Errorf("distributed partials ops = %d, want %d (no double counting)", p.Ops, tr.TipCount-1)
	}
	assertTopLevelCounts(t, "distributed", dst, tr)
}

// assertTopLevelCounts pins the counts a tracer shared with sub-engines
// could double: one evaluateTree is one batch, one root integration and one
// matrix update of the schedule's matrices, however many backends ran it.
func assertTopLevelCounts(t *testing.T, name string, s Stats, tr *tree.Tree) {
	t.Helper()
	if s.Batches != 1 {
		t.Errorf("%s batches = %d, want 1", name, s.Batches)
	}
	if c := s.Kernel("root").Calls; c != 1 {
		t.Errorf("%s root calls = %d, want 1", name, c)
	}
	if ops, want := s.Kernel("matrices").Ops, uint64(len(tr.FullSchedule().Matrices)); ops != want {
		t.Errorf("%s matrices ops = %d, want %d", name, ops, want)
	}
	if s.EffectiveGFLOPS <= 0 {
		t.Errorf("%s effective GFLOPS = %v, want > 0", name, s.EffectiveGFLOPS)
	}
}
