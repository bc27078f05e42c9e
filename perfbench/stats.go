package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and how
// many samples lie above it.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - 1 - rank
}

// latencyMetrics sets p50_ms and tail_ms from per-unit durations in
// milliseconds. tailQ is the workload's fixed tail quantile, chosen so a
// full-length run leaves at least ten samples beyond it; the sample count
// is printed with it.
func latencyMetrics(r *report, ms []float64, tailQ float64, label string) {
	p50, _ := percentile(ms, 0.5)
	tail, beyond := percentile(ms, tailQ)
	r.set("p50_ms", "ms", p50)
	r.set("tail_ms", "ms", tail)
	fmt.Printf("%s: p50 %.4f ms, p%g %.4f ms over %d samples (%d beyond the tail)\n",
		label, p50, tailQ*100, tail, len(ms), beyond)
	if beyond < 10 {
		fmt.Printf("warning: fewer than ten samples beyond p%g; run longer\n", tailQ*100)
	}
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// rtSnap is a point-in-time reading of the Go runtime's allocation and GC
// CPU counters.
type rtSnap struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtSnap {
	metrics.Read(rtSamples)
	return rtSnap{
		mallocs:  rtSamples[0].Value.Uint64(),
		gcCPU:    rtSamples[1].Value.Float64(),
		totalCPU: rtSamples[2].Value.Float64(),
	}
}

// runtimeMetrics sets runtime.allocs_per_op and runtime.gc_cpu_frac over
// the interval [a, b] in which ops units ran. The CPU counters are only
// refreshed at GC time, so the run forces a collection before each reading.
func runtimeMetrics(r *report, a, b rtSnap, ops int) {
	if ops > 0 {
		r.set("runtime.allocs_per_op", "count", float64(b.mallocs-a.mallocs)/float64(ops))
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		r.set("runtime.gc_cpu_frac", "ratio", (b.gcCPU-a.gcCPU)/cpu)
	}
}

// gcRead forces a collection and then reads the runtime counters, so the
// CPU-class metrics are current.
func gcRead() rtSnap {
	runtime.GC()
	return readRuntime()
}

// msSince is the elapsed time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rateWindow is the window over which closed-loop rates are taken; a run's
// throughput is the median of its windows, so a short stall moves one
// window, not the result.
const rateWindow = 2 * time.Second

// windowCountRate is the median over whole rateWindow windows of [start,
// start+d) of events per second.
func windowCountRate(ends []time.Time, start time.Time, d time.Duration) float64 {
	n := int(d / rateWindow)
	if n < 1 {
		return float64(len(ends)) / d.Seconds()
	}
	counts := make([]float64, n)
	for _, e := range ends {
		if w := int(e.Sub(start) / rateWindow); w >= 0 && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= rateWindow.Seconds()
	}
	return median(counts)
}

// windowUnitRate is, for back-to-back units of one closed loop, the median
// over rateWindow windows (by unit end time) of units per second of unit
// time. durs are the units' durations in seconds.
func windowUnitRate(ends []time.Time, durs []float64, start time.Time) float64 {
	type acc struct{ n, sum float64 }
	var ws []acc
	for i, e := range ends {
		w := int(e.Sub(start) / rateWindow)
		for len(ws) <= w {
			ws = append(ws, acc{})
		}
		ws[w].n++
		ws[w].sum += durs[i]
	}
	var rates []float64
	for _, a := range ws {
		if a.n > 0 {
			rates = append(rates, a.n/a.sum)
		}
	}
	return median(rates)
}
