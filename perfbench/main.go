// Command perfbench is gobeagle's end-to-end and per-layer benchmark. One
// invocation runs one named workload on inputs generated from --seed for
// --seconds, checks every answer, and prints, as its last line, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runOpts are the command-line knobs every workload receives.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
}

// workload is one named benchmark workload; README.md says why each exists.
type workload struct {
	name string
	run  func(o runOpts) (*report, error)
}

var workloads = []workload{
	{"mcmc", runMCMC},
	{"peel-codon", runPeelCodon},
	{"serve", runServe},
	{"shard", runShard},
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: its metrics and its answer ledger.
type report struct {
	metrics map[string]metric
	ledger  *ledger
}

func newReport() *report { return &report{metrics: map[string]metric{}, ledger: &ledger{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement seconds")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics, 0 end-to-end metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := w.run(runOpts{seed: *seed, seconds: *seconds, traced: *traced != 0})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	want := endToEnd
	if *traced != 0 {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", w.name, m.name)
			os.Exit(1)
		}
	}
	out := result{
		Correct:   rep.ledger.valid(),
		Attempted: rep.ledger.attempted,
		Failed:    rep.ledger.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		out.Metrics[m.name] = rep.metrics[m.name]
	}
	for _, reason := range rep.ledger.invalid {
		fmt.Printf("invalid: %s\n", reason)
	}
	fmt.Printf("fail_frac %.6f (%d of %d units)\n", rep.ledger.failFrac(), out.Failed, out.Attempted)
	keys := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %14.6g %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metricDef names one metric the result line must carry.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run; every workload
// measures each of them.
var endToEnd = []metricDef{
	{"throughput", "1/s"},
	{"gflops", "GFLOPS"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"setup_s", "s"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload bypasses
// reads 0: no calls, no time, no bytes.
var perLayer = []metricDef{
	{"kernels.partials_gflops", "GFLOPS"},
	{"kernels.unrolled4_gflops", "GFLOPS"},
	{"kernels.matrix_ns", "ns"},
	{"kernels.root_ns", "ns"},
	{"cpuimpl.batch_ms", "ms"},
	{"cpuimpl.parallel_eff", "ratio"},
	{"cpuimpl.strategy_ms.serial", "ms"},
	{"cpuimpl.strategy_ms.sse", "ms"},
	{"cpuimpl.strategy_ms.futures", "ms"},
	{"cpuimpl.strategy_ms.threadcreate", "ms"},
	{"cpuimpl.strategy_ms.threadpool", "ms"},
	{"cpuimpl.strategy_ms.hybrid", "ms"},
	{"reuse.op_hit_rate", "ratio"},
	{"reuse.matrix_hit_rate", "ratio"},
	{"api.matrices_us", "us"},
	{"api.partials_us", "us"},
	{"api.root_us", "us"},
	{"mcmc.loglik_us", "us"},
	{"mcmc.client_us", "us"},
	{"mcmc.accept_rate", "ratio"},
	{"tree.schedule_us", "us"},
	{"substmodel.eigen_us", "us"},
	{"serve.http_us", "us"},
	{"serve.compile_us", "us"},
	{"serve.queue_us", "us"},
	{"serve.batch_us", "us"},
	{"serve.batch_fill", "count"},
	{"serve.pool_hit_rate", "ratio"},
	{"serve.eigen_hit_rate", "ratio"},
	{"serve.evaluate_allocs", "count"},
	{"remoteimpl.bytes_per_eval", "bytes"},
	{"remoteimpl.rpcs_per_eval", "count"},
	{"remoteimpl.retries", "count"},
	{"remoteimpl.wire_ms", "ms"},
	{"remoteimpl.dist_speedup", "ratio"},
	{"multiimpl.local2_speedup", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"load.send_lag_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"unattributed_frac", "ratio"},
}

// zeroBypassed sets every per-layer metric the workload did not measure to
// 0, the value of a layer it never calls.
func (r *report) zeroBypassed() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
}

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, and the last build is the one measured.
const setupReps = 9

// timeSetup runs build setupReps times, tearing down all but the last, and
// returns the last value with the median set-up seconds.
func timeSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	var secs []float64
	var v T
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		x, err := build()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < setupReps-1 {
			teardown(x)
		} else {
			v = x
		}
	}
	return v, median(secs), nil
}
