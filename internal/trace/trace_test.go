package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestDisabledAndNilRecordNothing(t *testing.T) {
	var nilT *Tracer
	off := New()
	for name, tr := range map[string]*Tracer{"nil": nilT, "disabled": off} {
		if tr.Enabled() {
			t.Fatalf("%s tracer reports enabled", name)
		}
		tr.Record(Span{Kind: KindBatch})
		if got := tr.Snapshot(); got != nil {
			t.Fatalf("%s tracer retained %d spans, want none", name, len(got))
		}
		if tr.NextBatch() != 0 && name == "nil" {
			t.Fatalf("nil tracer handed out a batch id")
		}
		if tr.Now() != 0 && name == "nil" {
			t.Fatalf("nil tracer returned a timestamp")
		}
		// Counted kinds leave no aggregate either; none of these may panic.
		tr.Record(Span{Kind: KindRoot, Dur: 1000})
		tr.SetStatsLane(-1)
		tr.Reset()
		if st := tr.Stat(KindBatch); st != (Stat{}) {
			t.Fatalf("%s tracer aggregated %+v", name, st)
		}
		if st := tr.Stat(KindRoot); st != (Stat{}) {
			t.Fatalf("%s tracer aggregated %+v", name, st)
		}
	}
}

func TestRecordSnapshotRoundTrip(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	b := tr.NextBatch()
	if b != 1 {
		t.Fatalf("first batch id = %d, want 1", b)
	}
	const n = 100
	for i := 0; i < n; i++ {
		tr.Record(Span{Kind: KindTask, Lane: int32(i % 4), Batch: b, Start: int64(i), Dur: 10, Arg0: int64(i)})
	}
	spans := tr.Snapshot()
	if len(spans) != n {
		t.Fatalf("snapshot has %d spans, want %d", len(spans), n)
	}
	for i, s := range spans {
		if s.Seq != uint64(i) {
			t.Fatalf("span %d has seq %d; snapshot not in record order", i, s.Seq)
		}
		if s.Arg0 != int64(i) {
			t.Fatalf("span %d carries Arg0 %d, want %d", i, s.Arg0, i)
		}
	}
	tr.Reset()
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("retained %d spans after Reset", len(got))
	}
	if !tr.Enabled() {
		t.Fatal("Reset disabled the tracer")
	}
}

func TestRingRetainsMostRecent(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	total := TraceCapacity + 500
	for i := 0; i < total; i++ {
		tr.Record(Span{Kind: KindKernel, Arg0: int64(i)})
	}
	spans := tr.Snapshot()
	if len(spans) != TraceCapacity {
		t.Fatalf("retained %d spans, want capacity %d", len(spans), TraceCapacity)
	}
	// The oldest retained span must be exactly total - TraceCapacity.
	if spans[0].Seq != uint64(total-TraceCapacity) {
		t.Fatalf("oldest retained seq = %d, want %d", spans[0].Seq, total-TraceCapacity)
	}
	if spans[len(spans)-1].Seq != uint64(total-1) {
		t.Fatalf("newest retained seq = %d, want %d", spans[len(spans)-1].Seq, total-1)
	}
}

// TestConcurrentRecordSnapshot exercises the sharded ring under -race:
// writers from many goroutines against concurrent snapshots and resets.
func TestConcurrentRecordSnapshot(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(Span{Kind: KindTask, Lane: int32(w), Start: int64(i), Dur: 1})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			spans := tr.Snapshot()
			for j := 1; j < len(spans); j++ {
				if spans[j-1].Seq >= spans[j].Seq {
					t.Errorf("snapshot out of order at %d: %d >= %d", j, spans[j-1].Seq, spans[j].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	spans := tr.Snapshot()
	want := writers * perWriter
	if want > TraceCapacity {
		want = TraceCapacity
	}
	if len(spans) != want {
		t.Fatalf("retained %d spans, want %d", len(spans), want)
	}
}

// TestRecordPathAllocatesNothing is the AllocsPerRun guard for the exported
// //beagle:noalloc surface: Enabled, NextBatch, Record, SetRequest and
// CurrentRequest on the enabled, disabled and nil paths, recording both a
// retained-only span and a counted one (folded into its kind's Stat).
func TestRecordPathAllocatesNothing(t *testing.T) {
	on := New()
	on.SetEnabled(true)
	off := New()
	var nilT *Tracer
	span := Span{Kind: KindKernel, Lane: 1, Batch: 3, Start: 100, Dur: 50, Arg0: 4096}
	counted := Span{Kind: KindBatch, Batch: 3, Start: 100, Dur: 50, Arg0: 4}
	for name, tr := range map[string]*Tracer{"enabled": on, "disabled": off, "nil": nilT} {
		allocs := testing.AllocsPerRun(1000, func() {
			tr.SetRequest(42)
			if tr.Enabled() {
				tr.Record(span)
			}
			tr.Record(span)
			tr.Record(counted)
			tr.NextBatch()
			tr.SetRequest(tr.CurrentRequest() - tr.CurrentRequest())
		})
		if allocs != 0 {
			t.Errorf("%s record path allocates %.1f per run, want 0", name, allocs)
		}
	}
}

func BenchmarkDisabledGuard(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			tr.Record(Span{Kind: KindBatch})
		}
	}
}

func BenchmarkEnabledRecord(b *testing.B) {
	tr := New()
	tr.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(Span{Kind: KindTask, Lane: 2, Start: int64(i), Dur: 10})
	}
}

func TestKindLayersAndNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if k.Layer() >= numLayers {
			t.Errorf("kind %d maps to out-of-range layer", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
	for l := Layer(0); l < numLayers; l++ {
		if l.String() == "unknown" {
			t.Errorf("layer %d has no name", l)
		}
	}
}

// TestWriteJSONShape validates the trace-event document structure: the
// traceEvents array, complete events with microsecond timestamps, and the
// metadata naming every used layer.
func TestWriteJSONShape(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	b := tr.NextBatch()
	tr.Record(Span{Kind: KindBatch, Batch: b, Start: 1000, Dur: 5000, Arg0: 7})
	tr.Record(Span{Kind: KindLevel, Batch: b, Start: 1200, Dur: 800, Arg0: 0, Arg1: 3})
	tr.Record(Span{Kind: KindTask, Lane: 2, Batch: b, Start: 1300, Dur: 400, Arg0: 128})
	tr.Record(Span{Kind: KindKernel, Lane: 0, Batch: b, Start: 0, Dur: 2500, Arg0: 4096})
	tr.Record(Span{Kind: KindBarrier, Lane: -1, Batch: b, Start: 900, Dur: 6000, Arg0: 2})

	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	layers := map[string]bool{}
	var complete int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			if ev["name"] == "process_name" {
				args := ev["args"].(map[string]any)
				layers[args["name"].(string)] = true
			}
		case "X":
			complete++
			for _, field := range []string{"name", "ts", "pid", "tid"} {
				if _, ok := ev[field]; !ok {
					t.Fatalf("complete event missing %q: %v", field, ev)
				}
			}
		default:
			t.Fatalf("unexpected event phase %q", ph)
		}
	}
	if complete != 5 {
		t.Fatalf("%d complete events, want 5", complete)
	}
	for _, want := range []string{"scheduler", "workers", "device (modeled clock)", "multi-device"} {
		if !layers[want] {
			t.Errorf("missing process_name metadata for layer %q (got %v)", want, layers)
		}
	}
	// Timestamp unit: Span.Start 1000ns must render as 1µs.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "partials batch" {
			if ts := ev["ts"].(float64); ts != 1.0 {
				t.Fatalf("batch span ts = %v µs, want 1", ts)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("batch span missing from trace output")
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
}
