package trace

import (
	"sync"
	"testing"
	"time"
)

// The tests in this file pin the per-kind aggregates Record folds from
// engine-call spans: the counters behind Instance.Stats.

func TestStatRecordAndSnapshot(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	ms := int64(time.Millisecond)
	tr.Record(Span{Kind: KindBatch, Dur: 2 * ms, Arg0: 3})
	tr.Record(Span{Kind: KindBatch, Dur: 1 * ms, Arg0: 2})
	tr.Record(Span{Kind: KindRoot, Dur: ms / 2, Arg0: 150})
	// Spans off the stats lane, and kinds that are not engine calls, are
	// retained but not counted.
	tr.Record(Span{Kind: KindBatch, Lane: 1, Dur: 9 * ms, Arg0: 9})
	tr.Record(Span{Kind: KindTask, Dur: ms, Arg0: 64})

	p := tr.Stat(KindBatch)
	if p.Ops != 5 || p.Calls != 2 {
		t.Fatalf("partials ops/calls = %d/%d, want 5/2", p.Ops, p.Calls)
	}
	if p.Total != 3*time.Millisecond {
		t.Fatalf("partials total = %v, want 3ms", p.Total)
	}
	if p.Min != 1*time.Millisecond || p.Max != 2*time.Millisecond {
		t.Fatalf("partials min/max = %v/%v, want 1ms/2ms", p.Min, p.Max)
	}
	r := tr.Stat(KindRoot)
	if r.Ops != 1 || r.Calls != 1 || r.Total != 500*time.Microsecond {
		t.Fatalf("root stats wrong: %+v", r)
	}
	for _, k := range []Kind{KindEdge, KindTask} {
		if st := tr.Stat(k); st != (Stat{}) {
			t.Fatalf("%v counted without any counted spans: %+v", k, st)
		}
	}
	if len(tr.Snapshot()) != 5 {
		t.Fatal("uncounted spans must still be retained")
	}

	// A multi-device parent claims lane -1: its barrier counts its ops from
	// Arg1, and its backends' lane-0 batches no longer count.
	tr.Reset()
	tr.SetStatsLane(-1)
	tr.Record(Span{Kind: KindBatch, Lane: 0, Dur: ms, Arg0: 7})
	tr.Record(Span{Kind: KindBarrier, Lane: -1, Dur: 2 * ms, Arg0: 2, Arg1: 7})
	if b := tr.Stat(KindBatch); b.Calls != 0 {
		t.Fatalf("backend batch counted on a multi-device tracer: %+v", b)
	}
	if b := tr.Stat(KindBarrier); b.Ops != 7 || b.Calls != 1 {
		t.Fatalf("barrier ops/calls = %d/%d, want 7/1", b.Ops, b.Calls)
	}

	// A matrices update that reused every matrix computed nothing.
	tr.Record(Span{Kind: KindMatrices, Lane: -1, Arg0: 0})
	if m := tr.Stat(KindMatrices); m.Calls != 0 {
		t.Fatalf("all-reused matrices update counted: %+v", m)
	}
}

// TestBeginEnd pins the host-span helpers: with the tracer off Begin reads
// no clock and End records nothing; with it on End measures from Begin and
// the span is counted.
func TestBeginEnd(t *testing.T) {
	tr := New()
	start := tr.Begin()
	tr.End(Span{Kind: KindRoot, Start: start})
	if start != -1 || len(tr.Snapshot()) != 0 {
		t.Fatalf("disabled Begin/End: start %d, %d spans", start, len(tr.Snapshot()))
	}
	tr.SetEnabled(true)
	start = tr.Begin()
	tr.End(Span{Kind: KindRoot, Start: start})
	spans := tr.Snapshot()
	if start < 0 || len(spans) != 1 || spans[0].Start != start || spans[0].Dur < 0 {
		t.Fatalf("enabled Begin/End: start %d, spans %+v", start, spans)
	}
	if tr.Stat(KindRoot).Calls != 1 {
		t.Fatal("ended span not counted")
	}
}

func TestHistogramBuckets(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	durations := []time.Duration{
		1 * time.Nanosecond,
		100 * time.Nanosecond,
		10 * time.Microsecond,
		1 * time.Millisecond,
		1 * time.Millisecond,
	}
	for _, d := range durations {
		tr.Record(Span{Kind: KindMatrices, Dur: int64(d), Arg0: 1})
	}
	st := tr.Stat(KindMatrices)
	var total uint64
	nonEmpty := 0
	for b, n := range st.Buckets {
		if n == 0 {
			continue
		}
		nonEmpty++
		total += n
		if b == 20 && n != 2 { // 1ms = 1e6 ns has bit length 20
			t.Fatalf("1ms bucket count = %d, want 2", n)
		}
	}
	if nonEmpty != 4 {
		t.Fatalf("expected 4 non-empty buckets, got %d: %v", nonEmpty, st.Buckets)
	}
	if total != uint64(len(durations)) || total != st.Calls {
		t.Fatalf("bucket counts sum to %d, want %d", total, len(durations))
	}
}

func TestNegativeDurationClampedToZero(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	tr.Record(Span{Kind: KindRoot, Dur: -int64(time.Second)})
	st := tr.Stat(KindRoot)
	if st.Total != 0 || st.Min != 0 || st.Max != 0 || st.Buckets[0] != 1 {
		t.Fatalf("negative duration not clamped: %+v", st)
	}
}

func TestResetClearsStats(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	tr.SetStatsLane(-1)
	tr.NextBatch()
	tr.Record(Span{Kind: KindBarrier, Lane: -1, Dur: int64(time.Millisecond), Arg1: 2})

	tr.Reset()
	if st := tr.Stat(KindBarrier); st != (Stat{}) {
		t.Fatalf("Reset left stats behind: %+v", st)
	}
	if tr.NextBatch() != 1 {
		t.Fatal("Reset must restart the batch counter")
	}
	if !tr.Enabled() || tr.StatsLane() != -1 {
		t.Fatal("Reset must preserve the enabled switch and the stats lane")
	}
	// The aggregate keeps working after a reset, min/max included.
	tr.Record(Span{Kind: KindBarrier, Lane: -1, Dur: int64(2 * time.Millisecond), Arg1: 1})
	st := tr.Stat(KindBarrier)
	if st.Min != 2*time.Millisecond || st.Max != 2*time.Millisecond {
		t.Fatalf("post-reset min/max wrong: %+v", st)
	}
}

// TestConcurrentRecording hammers Record from many goroutines (run under
// -race) while a reader snapshots. Each kind's aggregate is updated under
// its own mutex, so every mid-flight Stat is exact — ops, calls and the
// histogram describe the same spans — and calls never go backwards; the
// final counts are exact.
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	const (
		goroutines = 8
		iters      = 500
		opsPerCall = 3
	)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		var lastCalls uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := tr.Stat(KindBatch)
			if p.Ops != opsPerCall*p.Calls {
				t.Errorf("snapshot ops %d != %d*calls %d", p.Ops, opsPerCall, p.Calls)
				return
			}
			var inHist uint64
			for _, n := range p.Buckets {
				inHist += n
			}
			if inHist != p.Calls {
				t.Errorf("histogram holds %d samples, calls %d", inHist, p.Calls)
				return
			}
			if p.Calls < lastCalls {
				t.Errorf("calls went backwards: %d after %d", p.Calls, lastCalls)
				return
			}
			lastCalls = p.Calls
		}
	}()
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				batch := tr.NextBatch()
				tr.Record(Span{Kind: KindBatch, Batch: batch, Dur: int64(i+1) * 1000, Arg0: opsPerCall})
				tr.Record(Span{Kind: KindLevel, Batch: batch, Dur: 1000, Arg0: LevelArg(0, opsPerCall), Arg1: opsPerCall})
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	p := tr.Stat(KindBatch)
	if p.Calls != goroutines*iters {
		t.Fatalf("calls = %d, want %d", p.Calls, goroutines*iters)
	}
	if p.Ops != goroutines*iters*opsPerCall {
		t.Fatalf("ops = %d, want %d", p.Ops, goroutines*iters*opsPerCall)
	}
	if p.Min != time.Microsecond || p.Max != iters*time.Microsecond {
		t.Fatalf("min/max = %v/%v, want 1µs/%v", p.Min, p.Max, iters*time.Microsecond)
	}
	if next := tr.NextBatch(); next != goroutines*iters+1 {
		t.Fatalf("batch counter handed out %d ids, want %d", next-1, goroutines*iters)
	}
	levels := 0
	for _, s := range tr.Snapshot() {
		if s.Kind == KindLevel {
			if _, tasks := s.Level(); tasks != opsPerCall {
				t.Fatalf("level span lost its task count: %+v", s)
			}
			levels++
		}
	}
	if levels != goroutines*iters {
		t.Fatalf("retained %d level spans, want %d", levels, goroutines*iters)
	}
}

func BenchmarkEnabledRecordCounted(b *testing.B) {
	tr := New()
	tr.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(Span{Kind: KindBatch, Start: int64(i), Dur: 1000, Arg0: 4})
	}
}
