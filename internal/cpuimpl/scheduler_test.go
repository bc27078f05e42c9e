package cpuimpl

// Regression tests for the dependency analyzer and the hybrid scheduler:
// aliased-buffer operation batches that race (and miscompute) when opLevels
// tracks only read-after-write hazards, plus use-after-Close behaviour.
// These batches reuse destination buffers the way proposal-rejection cycles
// in MCMC samplers do, so they must execute with serial semantics under
// every threading strategy.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// levelOf returns the level index opLevels assigned to the operation with
// the given destination, requiring it to appear exactly once.
func levelOf(t *testing.T, levels [][]engine.Operation, dest int) int {
	t.Helper()
	found := -1
	for l, level := range levels {
		for _, op := range level {
			if op.Dest == dest {
				if found >= 0 {
					t.Fatalf("dest %d appears in levels %d and %d", dest, found, l)
				}
				found = l
			}
		}
	}
	if found < 0 {
		t.Fatalf("dest %d not assigned to any level", dest)
	}
	return found
}

func TestOpLevelsHazards(t *testing.T) {
	op := func(dest, c1, c2, scaleWrite int) engine.Operation {
		return engine.Operation{
			Dest: dest, DestScaleWrite: scaleWrite, DestScaleRead: engine.None,
			Child1: c1, Child1Mat: c1, Child2: c2, Child2Mat: c2,
		}
	}

	t.Run("raw", func(t *testing.T) {
		levels := opLevels([]engine.Operation{
			op(4, 0, 1, engine.None),
			op(5, 4, 2, engine.None), // reads 4 → after its writer
			op(6, 2, 3, engine.None), // independent → level 0
		})
		if got := levelOf(t, levels, 4); got != 0 {
			t.Errorf("writer of 4 at level %d, want 0", got)
		}
		if got := levelOf(t, levels, 5); got != 1 {
			t.Errorf("RAW reader at level %d, want 1", got)
		}
		if got := levelOf(t, levels, 6); got != 0 {
			t.Errorf("independent op at level %d, want 0", got)
		}
	})

	t.Run("waw-and-war", func(t *testing.T) {
		levels := opLevels([]engine.Operation{
			op(4, 0, 1, engine.None), // writes 4
			op(5, 4, 2, engine.None), // reads 4
			op(4, 2, 3, engine.None), // rewrites 4: WAW with op 0, WAR with op 1
		})
		if got := levelOf(t, levels, 5); got != 1 {
			t.Fatalf("reader at level %d, want 1", got)
		}
		// The rewrite has tip children only; a RAW-only analyzer puts it at
		// level 0, racing with both the first write and the read.
		rewrite := -1
		for l, level := range levels {
			for _, o := range level {
				if o.Dest == 4 && o.Child1 == 2 {
					rewrite = l
				}
			}
		}
		if rewrite != 2 {
			t.Errorf("rewrite of 4 at level %d, want 2 (after its reader)", rewrite)
		}
	})

	t.Run("war-without-waw", func(t *testing.T) {
		levels := opLevels([]engine.Operation{
			op(5, 4, 2, engine.None), // reads 4 (never written in this batch)
			op(4, 2, 3, engine.None), // overwrites 4: pure WAR
		})
		if got := levelOf(t, levels, 5); got != 0 {
			t.Fatalf("reader at level %d, want 0", got)
		}
		if got := levelOf(t, levels, 4); got != 1 {
			t.Errorf("overwriter at level %d, want 1 (WAR hazard)", got)
		}
	})

	t.Run("scale-waw", func(t *testing.T) {
		levels := opLevels([]engine.Operation{
			op(4, 0, 1, 0), // rescales into scale buffer 0
			op(5, 2, 3, 0), // different dest, same scale buffer: WAW
		})
		if got := levelOf(t, levels, 4); got != 0 {
			t.Fatalf("first scaler at level %d, want 0", got)
		}
		if got := levelOf(t, levels, 5); got != 1 {
			t.Errorf("second scaler at level %d, want 1 (shared DestScaleWrite)", got)
		}
	})

	t.Run("scale-buffers-are-not-partials", func(t *testing.T) {
		// Scale buffer 5 must not alias partials buffer 5: distinct spaces.
		levels := opLevels([]engine.Operation{
			op(4, 0, 1, 5),           // writes scale buffer 5
			op(5, 2, 3, engine.None), // writes partials buffer 5
		})
		if got := levelOf(t, levels, 5); got != 0 {
			t.Errorf("partials-5 writer at level %d, want 0 (no cross-space hazard)", got)
		}
	})

	t.Run("levels-partition-ops", func(t *testing.T) {
		ops := []engine.Operation{
			op(4, 0, 1, engine.None),
			op(5, 4, 2, engine.None),
			op(4, 2, 3, engine.None),
			op(6, 4, 5, engine.None),
		}
		total := 0
		for _, level := range opLevels(ops) {
			total += len(level)
		}
		if total != len(ops) {
			t.Fatalf("levels hold %d ops, want %d", total, len(ops))
		}
	})
}

// aliasedEngine builds an engine of the given mode over a 4-tip geometry and
// runs an aliased operation batch: buffer 4 is written, read, rewritten and
// read again, and two operations rescale into the same scale buffer.
func aliasedEngine(t *testing.T, tr *tree.Tree, mode Mode, patterns int) engine.Engine {
	t.Helper()
	cfg := testConfig(tr, 4, patterns, 2, false)
	e, err := New(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runAliasedBatch loads deterministic tips/matrices, executes the hazard-rich
// batch, and returns the final contents of every written partials buffer.
func runAliasedBatch(t *testing.T, e engine.Engine, tr *tree.Tree, patterns int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const cats = 2
	for i := 0; i < tr.TipCount; i++ {
		p := make([]float64, patterns*4)
		for j := range p {
			p[j] = 0.05 + rng.Float64()
		}
		if err := e.SetTipPartials(i, p); err != nil {
			t.Fatal(err)
		}
	}
	mrng := rand.New(rand.NewSource(7))
	for m := 0; m < tr.NodeCount(); m++ {
		mat := make([]float64, cats*16)
		for r := 0; r < cats*4; r++ {
			var sum float64
			row := mat[r*4 : r*4+4]
			for c := range row {
				row[c] = 0.1 + mrng.Float64()
				sum += row[c]
			}
			for c := range row {
				row[c] /= sum
			}
		}
		if err := e.SetTransitionMatrix(m, mat); err != nil {
			t.Fatal(err)
		}
	}
	op := func(dest, c1, c2, scaleWrite int) engine.Operation {
		return engine.Operation{
			Dest: dest, DestScaleWrite: scaleWrite, DestScaleRead: engine.None,
			Child1: c1, Child1Mat: c1, Child2: c2, Child2Mat: c2,
		}
	}
	// The batch: RAW (op2 reads 4), WAW+WAR (op3 rewrites 4 after op2's
	// read), a second RAW chain into 6, and a shared scale buffer between
	// the two rescaling operations.
	ops := []engine.Operation{
		op(4, 0, 1, 0),
		op(5, 4, 2, 0), // same DestScaleWrite as op1
		op(4, 2, 3, engine.None),
		op(6, 4, 5, engine.None),
	}
	if err := e.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	for _, buf := range []int{4, 5, 6} {
		p, err := e.GetPartials(buf)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestAliasedBatchesMatchSerial is the regression test for the RAW-only
// dependency analyzer: under `go test -race` the seed code races on the
// rewritten buffer and the shared scale buffer in Futures mode, and the
// results diverge from serial execution. Every strategy must produce
// bitwise-identical partials (the kernels are deterministic per pattern).
func TestAliasedBatchesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, err := tree.Random(rng, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const patterns = 96 // below DefaultMinPatterns: exercises hybrid chunking
	ref := aliasedEngine(t, tr, Serial, patterns)
	want := runAliasedBatch(t, ref, tr, patterns)
	ref.Close()
	for _, mode := range []Mode{SSE, Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid} {
		for rep := 0; rep < 5; rep++ { // repeated runs make races likely to fire
			e := aliasedEngine(t, tr, mode, patterns)
			got := runAliasedBatch(t, e, tr, patterns)
			e.Close()
			for b := range want {
				for i := range want[b] {
					if want[b][i] != got[b][i] {
						t.Fatalf("%v rep %d: buffer %d diverges from serial at %d: %v != %v",
							mode, rep, []int{4, 5, 6}[b], i, got[b][i], want[b][i])
					}
				}
			}
		}
	}
}

// TestHybridMatchesSerialOnRandomTrees drives full tree schedules through
// the hybrid scheduler across pattern counts spanning the chunking regimes.
func TestHybridMatchesSerialOnRandomTrees(t *testing.T) {
	for _, patterns := range []int{1, 37, 128, 600} {
		rng := rand.New(rand.NewSource(int64(patterns)))
		tr, err := tree.Random(rng, 16, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := seqgen.RandomPatterns(rng, tr.TipCount, 4, patterns)
		if err != nil {
			t.Fatal(err)
		}
		m := substmodel.NewJC69()
		rates := substmodel.SingleRate()
		eS, err := New(testConfig(tr, 4, patterns, 1, false), Serial)
		if err != nil {
			t.Fatal(err)
		}
		want := driveEngine(t, eS, tr, m, rates, ps, true, false)
		eS.Close()
		eH, err := New(testConfig(tr, 4, patterns, 1, false), ThreadPoolHybrid)
		if err != nil {
			t.Fatal(err)
		}
		got := driveEngine(t, eH, tr, m, rates, ps, true, false)
		eH.Close()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("patterns=%d: hybrid lnL %v, serial %v", patterns, got, want)
		}
	}
}

func TestHybridChunksPolicy(t *testing.T) {
	cases := []struct {
		width, patterns, threads, want int
	}{
		{8, 10000, 56, 7},  // wide level, plenty of patterns: saturate pool
		{1, 10000, 56, 56}, // single op: pure pattern chunking
		{8, 128, 56, 2},    // small patterns: chunk bounded by HybridMinChunk
		{16, 128, 8, 1},    // level already wider than the pool
		{1, 1, 8, 1},       // degenerate: never below one chunk
	}
	for _, c := range cases {
		if got := HybridChunks(c.width, c.patterns, c.threads); got != c.want {
			t.Errorf("HybridChunks(%d, %d, %d) = %d, want %d",
				c.width, c.patterns, c.threads, got, c.want)
		}
	}
}

// kernelChoice reports whether the engine runs the unrolled 4-state kernel
// set (true) or the generic set (false).
func kernelChoice[T kernels.Real](t *testing.T, e *Engine[T]) bool {
	t.Helper()
	switch e.kern.(type) {
	case unrolled4Kernels[T]:
		return true
	case genericKernels[T]:
		return false
	}
	t.Fatalf("%v: unknown kernel set %T", e.mode, e.kern)
	return false
}

// TestKernelSetChoice pins the kernel choice made at engine creation: every
// strategy except Serial runs the unrolled kernels at 4 states, and every
// strategy runs the generic kernels at 20 and 61 states, in both precisions.
func TestKernelSetChoice(t *testing.T) {
	for _, mode := range Modes() {
		for _, states := range []int{4, 20, 61} {
			for _, single := range []bool{false, true} {
				cfg := engine.Config{
					TipCount: 2, PartialsBuffers: 3, MatrixBuffers: 2, EigenBuffers: 1,
					Dims:            kernels.Dims{StateCount: states, PatternCount: 8, CategoryCount: 1},
					SinglePrecision: single,
					Threads:         2,
				}
				e, err := New(cfg, mode)
				if err != nil {
					t.Fatal(err)
				}
				var unrolled bool
				switch e := e.(type) {
				case *Engine[float64]:
					unrolled = kernelChoice(t, e)
				case *Engine[float32]:
					unrolled = kernelChoice(t, e)
				}
				e.Close()
				if want := mode != Serial && states == 4; unrolled != want {
					t.Errorf("%v states=%d single=%v: unrolled kernels %v, want %v",
						mode, states, single, unrolled, want)
				}
			}
		}
	}
}

// TestStrategyChunks pins the one scheduling fact that tells the strategies
// apart besides dependency leveling: the pattern-chunk count per operation.
func TestStrategyChunks(t *testing.T) {
	cases := []struct {
		mode                               Mode
		patterns, minPatterns, width, want int
	}{
		{Serial, 1024, 512, 1, 1},
		{SSE, 1024, 512, 1, 1},
		{Futures, 1024, 512, 3, 1},
		{ThreadCreate, 1024, 512, 1, 4},
		{ThreadCreate, 100, 512, 1, 1}, // below the minimum: serial
		{ThreadPool, 1024, 512, 1, 4},
		{ThreadPool, 100, 512, 1, 1},
		{ThreadPool, 3, 1, 1, 3},            // never an empty chunk
		{ThreadPoolHybrid, 100, 512, 1, 1},  // lone small op stays serial
		{ThreadPoolHybrid, 128, 512, 2, 2},  // wide level still chunked
		{ThreadPoolHybrid, 1024, 512, 1, 4}, // HybridChunks(1, 1024, 4)
		{ThreadPoolHybrid, 1024, 512, 8, 1}, // level wider than the pool
	}
	for _, c := range cases {
		cfg := engine.Config{
			TipCount: 2, PartialsBuffers: 3, MatrixBuffers: 2, EigenBuffers: 1,
			Dims:            kernels.Dims{StateCount: 4, PatternCount: c.patterns, CategoryCount: 1},
			MinPatternsWork: c.minPatterns,
			Threads:         4,
		}
		e, err := New(cfg, c.mode)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.(*Engine[float64]).chunks(c.width); got != c.want {
			t.Errorf("%v patterns=%d min=%d width=%d: %d chunks, want %d",
				c.mode, c.patterns, c.minPatterns, c.width, got, c.want)
		}
		e.Close()
	}
}

// TestUseAfterClose is the regression test for the nil-pool crash: Close must
// be idempotent and computation after Close must fail with ErrClosed instead
// of panicking on the torn-down worker pool.
func TestUseAfterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := tree.Random(rng, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes() {
		e, err := New(testConfig(tr, 4, 40, 1, false), mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%v: first Close: %v", mode, err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%v: second Close not idempotent: %v", mode, err)
		}
		err = e.UpdatePartials([]engine.Operation{{
			Dest: 4, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: 0, Child1Mat: 0, Child2: 1, Child2Mat: 1,
		}})
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%v: UpdatePartials after Close = %v, want ErrClosed", mode, err)
		}
		if _, err := e.CalculateRootLogLikelihoods(0, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: CalculateRootLogLikelihoods after Close = %v, want ErrClosed", mode, err)
		}
		if _, err := e.SiteLogLikelihoods(0, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: SiteLogLikelihoods after Close = %v, want ErrClosed", mode, err)
		}
		if _, err := e.CalculateEdgeLogLikelihoods(0, 1, 0, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: CalculateEdgeLogLikelihoods after Close = %v, want ErrClosed", mode, err)
		}
		if _, _, _, err := e.CalculateEdgeDerivatives(0, 1, 0, 1, engine.None, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: CalculateEdgeDerivatives after Close = %v, want ErrClosed", mode, err)
		}
	}
}
