// Package trace is the library's one instrumentation primitive: a span
// tracer whose spans feed both the timeline and the aggregate counters. The
// timeline answers "what did the scheduler, the workers, the modeled devices
// and the multi-device engine actually do, and when" — the view the paper's
// evaluation (Fig. 4–6, Tables III–V) needs to explain crossover points and
// multi-device splits. The aggregates answer "how much time did each kernel
// family take": Record folds every span of an engine-call kind (partials
// batches, barriers, root and edge integrations, matrix updates, rescales)
// into a per-kind summary of operation and call counts, total/min/max time
// and a log₂ duration histogram — the partials-kernel timing the paper's
// effective-GFLOPS method (§V-A) rests on, read back through Stat.
//
// A Tracer is attached to one engine instance through engine.Config.Trace
// and shared by every layer of that instance (scheduler, worker pool, device
// queues, multi-device barriers). Spans are fixed-size values written into
// sharded ring buffers; the record path allocates nothing and the disabled
// fast path is a single atomic load. Ring memory is only allocated when
// tracing is first enabled, so the tracer every instance carries costs a few
// words while off.
//
// Snapshots merge the shards into one sequence-ordered span list, and
// WriteJSON renders that list as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing. All methods are safe on a nil *Tracer, which
// behaves as permanently disabled.
package trace

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a span represents; it determines the layer (process
// track) the span is rendered into.
type Kind uint8

// Span kinds, grouped by layer.
const (
	// KindBatch is one UpdatePartials batch on one engine (Arg0 = executed
	// ops, Arg1 = ops skipped by incremental re-evaluation; a fully clean
	// resubmission appears as a skip span with Arg0 = 0).
	KindBatch Kind = iota
	// KindLevel is one scheduler dependency level of a leveled CPU strategy
	// (Arg0 = LevelArg(level index, dispatched tasks), Arg1 = ops in the
	// level).
	KindLevel
	// KindRoot is one root-likelihood integration.
	KindRoot
	// KindTask is one (operation, pattern-chunk) task on a pool worker
	// (Lane = worker index, Arg0 = pattern span).
	KindTask
	// KindKernel is one device kernel launch on the modeled device clock
	// (Arg0 = global work-items).
	KindKernel
	// KindTransfer is one host↔device copy on the modeled device clock
	// (Arg0 = bytes moved).
	KindTransfer
	// KindBarrier is the multi-device end-of-batch barrier spanning all
	// backends (Arg0 = backend count).
	KindBarrier
	// KindBackend is one backend's share of a multi-device batch
	// (Lane = backend index, Arg0 = patterns in the backend's slice).
	KindBackend
	// KindRebalance is one adaptive-rebalance decision that repartitioned
	// the patterns (Arg0 = patterns migrated).
	KindRebalance
	// KindMigrate is one boundary pattern-span migration between neighboring
	// backends (Lane = left backend of the boundary, Arg0 = patterns moved).
	KindMigrate
	// KindMatrices is one transition-matrix update batch (Arg0 = matrices).
	KindMatrices
	// KindDerivatives is one derivative-matrix update batch (Arg0 = matrices).
	KindDerivatives
	// KindServeBatch is one micro-batch executed by the serving layer's
	// warm-instance calculator (Arg0 = requests coalesced, Arg1 = slots in
	// use after the batch).
	KindServeBatch
	// KindServeWait is the queueing delay of one served request from
	// admission to the start of its batch (Lane = slot index).
	KindServeWait
	// KindRPC is one remote-engine call round trip on the wire: request
	// serialization, network transfer both ways and the worker-side
	// execution (Lane = the remote backend's trace lane, Arg0 = the wire
	// operation code, Arg1 = bytes moved in both directions).
	KindRPC
	// KindServeRequest is the full lifetime of one served request from
	// admission to response (Arg0 = HTTP status, Arg1 = requests coalesced
	// into its batch; Batch links it to the serve batch it merged into).
	KindServeRequest
	// KindServeCompile is the request-compilation phase: JSON → validated
	// tree, compressed patterns and instance geometry (Arg0 = site patterns
	// after compression).
	KindServeCompile
	// KindRemoteApply is one request executed on a worker process, recorded
	// by the worker's own session tracer; the gap between the client's
	// KindRPC span edges and this span is the wire + codec time
	// (Arg0 = the wire operation code).
	KindRemoteApply
	// KindEdge is one edge log-likelihood or edge-derivative integration.
	KindEdge
	// KindRescale is one accelerator rescale or scale-read kernel call,
	// timed on the host.
	KindRescale
	numKinds
)

// String returns the span name used in trace exports.
func (k Kind) String() string {
	switch k {
	case KindBatch:
		return "partials batch"
	case KindLevel:
		return "dependency level"
	case KindRoot:
		return "root likelihood"
	case KindTask:
		return "worker task"
	case KindKernel:
		return "kernel launch"
	case KindTransfer:
		return "transfer"
	case KindBarrier:
		return "batch barrier"
	case KindBackend:
		return "backend batch"
	case KindRebalance:
		return "rebalance"
	case KindMigrate:
		return "migrate patterns"
	case KindMatrices:
		return "transition matrices"
	case KindDerivatives:
		return "derivative matrices"
	case KindServeBatch:
		return "serve batch"
	case KindServeWait:
		return "serve wait"
	case KindRPC:
		return "rpc"
	case KindServeRequest:
		return "serve request"
	case KindServeCompile:
		return "serve compile"
	case KindRemoteApply:
		return "worker apply"
	case KindEdge:
		return "edge likelihood"
	case KindRescale:
		return "rescale"
	default:
		return "unknown"
	}
}

// Layer is the process track a span is rendered into.
type Layer uint8

// Layers, in rendering order.
const (
	LayerScheduler Layer = iota
	LayerWorker
	LayerDevice
	LayerMulti
	LayerStorage
	LayerServe
	LayerNet
	numLayers
)

// String names the layer; these are the process names trace consumers (and
// cmd/beagletrace -require-layers) see.
func (l Layer) String() string {
	switch l {
	case LayerScheduler:
		return "scheduler"
	case LayerWorker:
		return "workers"
	case LayerDevice:
		return "device (modeled clock)"
	case LayerMulti:
		return "multi-device"
	case LayerStorage:
		return "storage"
	case LayerServe:
		return "serve"
	case LayerNet:
		return "network"
	default:
		return "unknown"
	}
}

// Layer maps a span kind to its process track.
func (k Kind) Layer() Layer {
	switch k {
	case KindBatch, KindLevel, KindRoot, KindEdge, KindRescale:
		return LayerScheduler
	case KindTask:
		return LayerWorker
	case KindKernel, KindTransfer:
		return LayerDevice
	case KindBarrier, KindBackend, KindRebalance, KindMigrate:
		return LayerMulti
	case KindServeBatch, KindServeWait, KindServeRequest, KindServeCompile:
		return LayerServe
	case KindRPC, KindRemoteApply:
		return LayerNet
	default:
		return LayerStorage
	}
}

// Span is one recorded interval. Start and Dur are nanoseconds; for host
// spans Start is measured from the tracer's epoch (creation time), for
// device spans (KindKernel, KindTransfer) it is the modeled device clock,
// which starts at zero and advances by modeled kernel and transfer charges.
// Lane disambiguates parallel tracks within a layer: the worker index for
// tasks, the backend index for multi-device spans and device queues, -1 when
// inapplicable. Arg0/Arg1 carry kind-specific magnitudes (see the Kind
// constants). Req is the served request the span belongs to (0 when outside
// any request); Record fills it from the tracer's current request when the
// caller leaves it zero, which is how engine-internal layers inherit the
// request identity the serve layer set without being passed it explicitly.
// Seq is the global record order, assigned by the tracer.
type Span struct {
	Kind  Kind
	Lane  int32
	Batch uint64
	Start int64
	Dur   int64
	Arg0  int64
	Arg1  int64
	Req   uint64
	Seq   uint64
}

// LevelArg packs a dependency level's index and dispatched task count into
// a KindLevel span's Arg0: the index in the low 32 bits, the tasks above.
func LevelArg(level, tasks int) int64 { return int64(level) | int64(tasks)<<32 }

// Level unpacks a KindLevel span's Arg0 (see LevelArg).
func (s Span) Level() (index, tasks int) { return int(uint32(s.Arg0)), int(s.Arg0 >> 32) }

// Ring geometry: spans are striped across shards by sequence number, so
// concurrent writers (pool workers, multi-device backends) rarely contend on
// one mutex, and each shard keeps its most recent spanCap spans.
const (
	shardCount = 8    // power of two
	spanCap    = 2048 // retained spans per shard
)

// TraceCapacity is the total number of most-recent spans a tracer retains.
const TraceCapacity = shardCount * spanCap

// shard is one stripe of the ring. The mutex only guards the few stores of
// one record; Lock/Unlock do not allocate, keeping the record path zero-
// allocation (verified by the AllocsPerRun guard in this package's tests).
type shard struct {
	mu    sync.Mutex
	count uint64 // spans ever written to this shard
	slots [spanCap]Span
}

// rings is the lazily allocated span storage (~1 MiB) and the per-kind
// aggregates; it is published once behind an atomic pointer when tracing is
// first enabled.
type rings struct {
	shards [shardCount]shard
	stats  [numKinds]kindStat
}

// HistBuckets is the number of log₂ duration buckets in a Stat. Bucket b
// counts spans whose duration in nanoseconds has bit length b (it lies in
// [2^(b-1), 2^b)); the last bucket absorbs everything longer (≈2 s and up).
const HistBuckets = 32

// Stat summarizes the counted spans of one kind since the last Reset.
type Stat struct {
	// Ops counts logical operations (partials operations, matrices; one per
	// root, edge or rescale call); Calls counts spans.
	Ops     uint64
	Calls   uint64
	Total   time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [HistBuckets]uint64
}

// kindStat is one kind's aggregate. Like a ring shard, its mutex guards a
// few stores per span, so a Stat read under it is exact: Ops, Calls and the
// histogram always describe the same set of spans.
type kindStat struct {
	mu sync.Mutex
	Stat
}

//beagle:noalloc
func (k *kindStat) add(ops, ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	d := time.Duration(ns)
	k.mu.Lock()
	if k.Calls == 0 || d < k.Min {
		k.Min = d
	}
	if d > k.Max {
		k.Max = d
	}
	k.Ops += uint64(ops)
	k.Calls++
	k.Total += d
	k.Buckets[b]++
	k.mu.Unlock()
}

// statOps reports whether spans like s are aggregated and how many logical
// operations s covers. A matrices span that computed nothing (every matrix
// reused) is not a kernel call.
//
//beagle:noalloc
func statOps(s Span) (int64, bool) {
	switch s.Kind {
	case KindBatch, KindDerivatives:
		return s.Arg0, true
	case KindMatrices:
		return s.Arg0, s.Arg0 > 0
	case KindBarrier:
		return s.Arg1, true
	case KindRoot, KindEdge, KindRescale:
		return 1, true
	}
	return 0, false
}

// Tracer records spans for one instance. The zero value is usable and
// disabled; a nil *Tracer is valid everywhere and permanently disabled.
type Tracer struct {
	enabled atomic.Bool
	// statsLane is the lane whose spans Record aggregates: 0, a single
	// engine's lane, unless a multi-device parent claimed the tracer for its
	// own lane -1 so its backends' per-lane spans are never counted twice.
	statsLane atomic.Int32
	seq       atomic.Uint64
	batches   atomic.Uint64
	req       atomic.Uint64
	rings     atomic.Pointer[rings]
	epoch     time.Time
}

// New creates a disabled tracer. Ring memory is not allocated until
// SetEnabled(true).
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SetEnabled switches recording on or off, allocating the span rings on
// first enable. Implementations must treat a false value as "record nothing
// and take no timestamps".
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if on && t.rings.Load() == nil {
		t.rings.CompareAndSwap(nil, &rings{})
	}
	t.enabled.Store(on)
}

// Enabled reports whether the tracer is recording: the guard on every
// instrumented hot path — one atomic load, no allocation.
//
//beagle:noalloc
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// Now returns the current host timestamp in nanoseconds since the tracer's
// epoch. Callers take timestamps only after an Enabled() check, so the
// disabled path never reads the clock; Now itself is therefore not part of
// the //beagle:noalloc surface (time.Now is banned there).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Begin opens a host span: the current timestamp, or -1 without reading
// the clock when the tracer is off.
func (t *Tracer) Begin() int64 {
	if !t.Enabled() {
		return -1
	}
	return t.Now()
}

// End records s as a span from s.Start, a Begin timestamp, to now; it
// records nothing when Begin found the tracer off.
func (t *Tracer) End(s Span) {
	if s.Start < 0 {
		return
	}
	s.Dur = t.Now() - s.Start
	t.Record(s)
}

// EpochNanos returns the wall-clock instant (UnixNano) the tracer's Start
// timeline is measured from. Exports that merge spans from tracers with
// different epochs (the serve layer's tracer and each pooled instance's
// tracer, or a drained worker snapshot) rebase Start by the epoch delta so
// all spans share one timeline.
func (t *Tracer) EpochNanos() int64 {
	if t == nil {
		return 0
	}
	return t.epoch.UnixNano()
}

// SetRequest sets the request identity that Record stamps onto spans whose
// Req field the caller left zero. The serve layer sets it around an engine
// submission (and a worker session sets it from the wire frame) so every
// scheduler, kernel and storage span records which served request it worked
// for. Zero clears the context. Nil-safe, one atomic store.
//
//beagle:noalloc
func (t *Tracer) SetRequest(id uint64) {
	if t == nil {
		return
	}
	t.req.Store(id)
}

// CurrentRequest returns the request identity set by SetRequest, 0 if none.
//
//beagle:noalloc
func (t *Tracer) CurrentRequest() uint64 {
	if t == nil {
		return 0
	}
	return t.req.Load()
}

// NextBatch returns a fresh 1-based batch identifier for span grouping.
//
//beagle:noalloc
func (t *Tracer) NextBatch() uint64 {
	if t == nil {
		return 0
	}
	return t.batches.Add(1)
}

// SetStatsLane selects the lane whose spans Record aggregates (see
// Tracer.statsLane). Multi-device parents set -1 before any backend runs.
func (t *Tracer) SetStatsLane(lane int32) {
	if t == nil {
		return
	}
	t.statsLane.Store(lane)
}

// StatsLane returns the lane whose spans Record aggregates.
func (t *Tracer) StatsLane() int32 {
	if t == nil {
		return 0
	}
	return t.statsLane.Load()
}

// Record appends one span and, for an engine-call kind on the stats lane,
// folds it into that kind's Stat. Safe for concurrent use from any
// goroutine; the hot path performs no allocation and no time queries —
// callers supply Start/Dur from Now() or from the modeled device clock.
//
//beagle:noalloc
func (t *Tracer) Record(s Span) {
	if t == nil || !t.enabled.Load() {
		return
	}
	r := t.rings.Load()
	if r == nil {
		return
	}
	if s.Req == 0 {
		s.Req = t.req.Load()
	}
	seq := t.seq.Add(1) - 1
	sh := &r.shards[seq&(shardCount-1)]
	sh.mu.Lock()
	s.Seq = seq
	sh.slots[sh.count%spanCap] = s
	sh.count++
	sh.mu.Unlock()
	if ops, ok := statOps(s); ok && s.Lane == t.statsLane.Load() {
		r.stats[s.Kind].add(ops, s.Dur)
	}
}

// Stat returns the aggregate of one kind's counted spans; zero when
// nothing was counted.
func (t *Tracer) Stat(k Kind) Stat {
	if t == nil || k >= numKinds {
		return Stat{}
	}
	r := t.rings.Load()
	if r == nil {
		return Stat{}
	}
	ks := &r.stats[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.Stat
}

// Snapshot returns the retained spans in record order (ascending Seq). Safe
// to call concurrently with recording; each shard is locked briefly in turn,
// so a snapshot taken mid-batch sees a consistent prefix per shard.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	r := t.rings.Load()
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := sh.count
		if n > spanCap {
			n = spanCap
		}
		out = append(out, sh.slots[:n]...)
		sh.mu.Unlock()
	}
	sortSpans(out)
	return out
}

// sortSpans orders by sequence number; the shards stripe sequences round-
// robin, so the concatenation is far from sorted and needs a real sort.
func sortSpans(s []Span) {
	sort.Slice(s, func(i, j int) bool { return s[i].Seq < s[j].Seq })
}

// Reset discards all retained spans and aggregates and restarts the
// sequence and batch counters; the enabled switch, stats lane and epoch are
// unchanged.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	r := t.rings.Load()
	if r != nil {
		for i := range r.shards {
			sh := &r.shards[i]
			sh.mu.Lock()
			sh.count = 0
			sh.mu.Unlock()
		}
		for i := range r.stats {
			ks := &r.stats[i]
			ks.mu.Lock()
			ks.Stat = Stat{}
			ks.mu.Unlock()
		}
	}
	t.seq.Store(0)
	t.batches.Store(0)
}
