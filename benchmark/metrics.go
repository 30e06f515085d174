package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric of the benchmark. The end-to-end list below is
// the contract BENCHMARK.json records; bench_test.go pins the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, the same on every
// workload, with the share by which each may worsen before a change counts
// as a regression. error_rate is printed beside them but is not bounded:
// it is 0 on every accepted run, and any failed op fails the run outright.
// The bounds are wider than the 10/20/10 % the issue proposed because ten
// runs on this shared box spread by up to 5 % in a quiet hour and 11-16 % in
// a busy one (README.md, Steadiness), and a bound has to hold the spread.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower", 0.15},
	{"query_p95_ms", "ms", "lower", 0.24}, // setup_s keeps the largest bound
	{"ops_per_s", "1/s", "higher", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the per-package metrics of the traced run, in print order.
// README.md says which end-to-end metric each should move, on which
// workload; a metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.plan_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "rewrite.ua_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rewrite.attr_plan_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.attr_output_cols", Unit: "count", Better: "lower"},
	{Name: "physical.optimize_us", Unit: "us", Better: "lower"},
	{Name: "physical.lower_us", Unit: "us", Better: "lower"},
	{Name: "physical.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.rows_in_per_result_row", Unit: "rows/row", Better: "lower"},
	{Name: "vector.wire_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "vector.wire_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "vector.wire_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "server.wire_self_ms", Unit: "ms", Better: "lower"},
	{Name: "admission.queued_share", Unit: "ratio", Better: "lower"},
	{Name: "admission.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "admission.peak_granted_bytes", Unit: "B", Better: "lower"},
	{Name: "spill.heavy_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "spill.peak_governed_bytes", Unit: "B", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "setup.gen_s", Unit: "s", Better: "lower"},
	{Name: "setup.encode_s", Unit: "s", Better: "lower"},
	{Name: "setup.warm_s", Unit: "s", Better: "lower"},
	{Name: "unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// value is one reported number with its unit, the shape the last output
// line carries.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minTail is how many samples must lie beyond a reported percentile for it
// to be more than an extreme value.
const minTail = 10

// percentile returns the nearest-rank p-quantile of ascending values: the
// smallest sample with at least a share p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond counts the samples that rank strictly above the
// nearest-rank p-quantile of n samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// window is what one measured window observed.
type window struct {
	latencies []time.Duration // one per completed measured op, all clients
	elapsed   time.Duration   // window start to the last op's end
	failed    int             // ops that erred or returned the wrong row count
}

// latencySummary is the latency part of the end-to-end metrics.
type latencySummary struct {
	p50, p95  float64 // ms
	samples   int
	beyondP95 int
	opsPerSec float64
}

func (w window) summarize() latencySummary {
	lat := msOf(w.latencies)
	sort.Float64s(lat)
	s := latencySummary{
		p50: percentile(lat, 0.50), p95: percentile(lat, 0.95),
		samples: len(lat), beyondP95: samplesBeyond(len(lat), 0.95),
	}
	if w.elapsed > 0 {
		s.opsPerSec = float64(len(lat)) / w.elapsed.Seconds()
	}
	return s
}

// leastDisturbed combines the summaries of a run's windows (one per
// set-up) by taking each metric's best value: the lowest p50, the lowest
// p95, the highest rate. Interference on a shared box (another tenant's
// burst, an unlucky placement of the tables in memory) is one-sided: it
// only ever slows a window down. The median over windows therefore drifts
// with how noisy the box is at the moment (10 → 11.8 ms on pdbench-inproc
// between a quiet and a busy quarter of an hour), while the best of three
// stays near the undisturbed level. The sample counts are the smallest
// window's, because each window's p95 stands on its own samples.
func leastDisturbed(sums []latencySummary) latencySummary {
	best := sums[0]
	for _, s := range sums[1:] {
		best.p50, best.p95 = min(best.p50, s.p50), min(best.p95, s.p95)
		best.opsPerSec = max(best.opsPerSec, s.opsPerSec)
		best.samples, best.beyondP95 = min(best.samples, s.samples), min(best.beyondP95, s.beyondP95)
	}
	return best
}

// worseBy is the share by which b is worse than a for a metric with the
// given direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func printMetric(workload, name string, v float64, unit string) {
	fmt.Printf("%-15s %-34s %14.4f %s\n", workload, name, v, unit)
}
