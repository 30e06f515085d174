// Command benchmark is the repository's benchmark: five seeded UA-DB
// workloads driven only through the public entrypoints (rewrite.Frontend,
// engine.Planner/Session, server.New/Serve over loopback TCP,
// server/client.Dial), reporting end-to-end and per-layer metrics by name
// with correctness checked. README.md is the glossary; BENCHMARK.json at the
// repository root is the contract.
//
//	bash benchmark/run.sh --seed 1                       # all workloads, both passes
//	bash benchmark/run.sh --workload lookup-short --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh --agree                        # two sets, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // length of the measured window
	// trace selects the passes: 0 the untraced window only (end-to-end
	// metrics), 1 a half-length window plus the traced pass (per-layer
	// metrics), -1 both in full.
	trace  int
	outDir string
	setups int // set-up-and-measure rounds per run
}

// setupsPerRun is how many times a run sets its workload up from scratch
// and measures it. Between two set-ups of one seed the latencies differ by
// several percent for the whole window (where the tables landed in memory,
// what else the box was doing), far more than within one window, so a run
// takes three shots at an undisturbed window; setup_s is their median.
const setupsPerRun = 3

// meta identifies a run in its output.
type meta struct {
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func newMeta(seed int64) meta {
	m := meta{Seed: seed, Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// result is the last line a workload prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var cfg config
	var names string
	var agree bool
	flag.Int64Var(&cfg.seed, "seed", 1, "the only source of randomness: data, literals, client interleave")
	flag.StringVar(&names, "workload", "", "comma-separated workload names (default: all five)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run, shared equally by the run's set-ups")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics from the traced pass; -1: both")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for trace files and spill runs")
	flag.BoolVar(&agree, "agree", false, "run the set twice and compare the end-to-end metrics to their bounds")
	flag.Parse()
	cfg.setups = setupsPerRun

	selected := workloads
	if names != "" {
		selected = nil
		for _, name := range strings.Split(names, ",") {
			w := workloadByName(name)
			if w == nil {
				fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, w)
		}
	}
	if m, err := json.Marshal(newMeta(cfg.seed)); err == nil {
		fmt.Printf("meta %s\n", m)
	}
	if agree {
		if err := runAgree(selected, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// runWorkload is one run of one workload. The run's seconds are shared by
// cfg.setups independent rounds of set up → gate → measure → tear down; each
// latency metric is the best of the rounds' windows (see leastDisturbed) and
// setup_s is the median over the rounds. The traced pass, when asked for,
// rides on the last round. A run that only traces makes one
// round with a half-length window.
func runWorkload(w *workload, cfg config) (*result, error) {
	rounds := cfg.setups
	window := time.Duration(cfg.seconds * float64(time.Second) / float64(rounds))
	if cfg.trace == 1 {
		rounds, window = 1, time.Duration(cfg.seconds*float64(time.Second)/2)
	}
	res := &result{Metrics: map[string]value{}}
	var sums []latencySummary
	var setupSecs []float64
	var layers map[string]float64
	for i := 0; i < rounds; i++ {
		e, err := setUp(w, cfg.seed, cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		err = func() error {
			if err := e.gate(); err != nil {
				return err
			}
			m, err := e.measure(window)
			if err != nil {
				return err
			}
			sum := m.summarize()
			sums, setupSecs = append(sums, sum), append(setupSecs, e.times.total.Seconds())
			res.Attempted += sum.samples
			res.Failed += m.failed
			if e.err != nil {
				fmt.Printf("%s: first failed op: %v\n", w.name, e.err)
			}
			if cfg.trace != 0 && i == rounds-1 {
				layers, err = e.traceAndSplit(m, sum, cfg)
			}
			return err
		}()
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}

	var err error
	report := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				err = fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
				return
			}
			printMetric(w.name, d.Name, v, d.Unit)
			res.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	if cfg.trace != 1 {
		sum := leastDisturbed(sums)
		report(endToEnd, map[string]float64{
			"query_p50_ms": sum.p50, "query_p95_ms": sum.p95, "ops_per_s": sum.opsPerSec, "setup_s": median(setupSecs),
		})
		printMetric(w.name, "error_rate", float64(res.Failed)/float64(res.Attempted), "ratio")
		printMetric(w.name, "ops_attempted", float64(res.Attempted), "count")
		printMetric(w.name, "ops_failed", float64(res.Failed), "count")
		printMetric(w.name, "windows", float64(len(sums)), "count")
		printMetric(w.name, "samples_per_window", float64(sum.samples), "count")
		printMetric(w.name, "samples_beyond_p95", float64(sum.beyondP95), "count")
		if sum.beyondP95 < minTail {
			fmt.Printf("%s: only %d samples lie beyond a window's query_p95_ms; it is an extreme value, not a percentile\n",
				w.name, sum.beyondP95)
		}
	}
	if layers != nil {
		report(perLayer, layers)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measured is what the untraced window observed beyond latencies.
type measured struct {
	window
	// uaPer[i] and detPer[i] are the per-query times of the i-th UA round
	// and of the deterministic twin round that followed it. Only the
	// workload with a tuple-level twin fills them.
	uaPer, detPer [][]time.Duration
	heavyOps      int
	before, after *server.Stats // nil without a server
	allocBytes    uint64        // TotalAlloc growth over the window
	heapSysBytes  uint64        // heap obtained from the OS so far: a high-water mark
}

// measure runs the closed loop for d: every client sends its next op when
// the previous one's answer has arrived and been checked.
func (e *env) measure(d time.Duration) (*measured, error) {
	m := &measured{}
	var err error
	if e.srv != nil {
		if m.before, err = e.clients[0].Stats(); err != nil {
			return nil, err
		}
	}
	heavy0 := 0
	if e.heavy != nil {
		heavy0, _ = e.heavy.count()
	}
	// Start every window from a collected heap, whatever set-up left behind.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc

	parts := make([]measured, len(e.streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range e.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.clientLoop(c, start, d, &parts[c])
		}(c)
	}
	wg.Wait()
	m.elapsed = time.Since(start)

	runtime.ReadMemStats(&mem)
	m.allocBytes, m.heapSysBytes = mem.TotalAlloc-alloc0, mem.HeapSys
	for _, p := range parts {
		m.latencies = append(m.latencies, p.latencies...)
		m.failed += p.failed
		m.uaPer = append(m.uaPer, p.uaPer...)
		m.detPer = append(m.detPer, p.detPer...)
	}
	if e.heavy != nil {
		n, herr := e.heavy.count()
		if herr != nil {
			return nil, fmt.Errorf("heavy client: %w", herr)
		}
		m.heavyOps = n - heavy0
	}
	if e.srv != nil {
		if m.after, err = e.clients[0].Stats(); err != nil {
			return nil, err
		}
	}
	if len(m.latencies) == 0 {
		return nil, fmt.Errorf("no op completed in %v", d)
	}
	return m, nil
}

// clientLoop is one closed-loop client. An op whose answer errs or has the
// wrong row count is counted as failed, and still contributes its latency.
func (e *env) clientLoop(c int, start time.Time, d time.Duration, out *measured) {
	stream := e.streams[c]
	twin := e.det != nil && !e.w.attr
	for i := 0; time.Since(start) < d; i++ {
		o := stream[i%len(stream)]
		var uaPer, detPer []time.Duration
		if twin {
			uaPer, detPer = make([]time.Duration, len(o)), make([]time.Duration, len(o))
		}
		t := time.Now()
		err := e.runOp(c, o, uaPer, true)
		out.latencies = append(out.latencies, time.Since(t))
		if err == nil && twin {
			// The twin round's time is recorded but is not a latency sample.
			if err = e.detRound(o, detPer); err == nil {
				out.uaPer, out.detPer = append(out.uaPer, uaPer), append(out.detPer, detPer)
			}
		}
		if err != nil {
			out.failed++
			e.noteErr(err)
		}
	}
}

// allQueries makes medianRatio compare whole rounds.
const allQueries = -1

// medianRatio is the median of a's rounds ÷ the median of b's, where a
// round counts as its query-th time or, for allQueries, as their sum.
func medianRatio(a, b [][]time.Duration, query int) float64 {
	if len(a) == 0 {
		return 0
	}
	totals := func(rounds [][]time.Duration) []float64 {
		out := make([]float64, len(rounds))
		for i, per := range rounds {
			for j, d := range per {
				if query == allQueries || query == j {
					out[i] += ms(d)
				}
			}
		}
		return out
	}
	return median(totals(a)) / median(totals(b))
}

// traceAndSplit runs the traced pass, writes the trace file, and derives the
// per-layer metrics from the spans, the window and the server's counters.
func (e *env) traceAndSplit(m *measured, sum latencySummary, cfg config) (map[string]float64, error) {
	// Three replays share half the run's seconds.
	ops := e.w.traceOps
	if fit := int(cfg.seconds / 2 * 1000 / (3 * sum.p50)); fit < ops {
		ops = max(fit, 10)
	}
	tr := newTracer()
	if err := e.tracedPass(tr, ops); err != nil {
		return nil, err
	}
	path, err := tr.write(cfg.outDir, e.w.name, newMeta(cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d ops traced, %d spans in %s\n", e.w.name, ops, len(tr.Spans), path)
	printSplit(e.w.name, tr.Spans)

	sp, n := tr.Spans, tr.Counts
	us := func(name string) float64 { return medianPerOp(sp, name) * 1000 }
	self := selfTimes(sp)
	perSec := func(bytes int64, name string) float64 {
		d := self[name]
		if d == 0 {
			return 0
		}
		return float64(bytes) / 1e6 / d.Seconds()
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rootMS := medianPerOp(sp, spanRoot)
	out := map[string]float64{
		"sql.parse_us":                    us(spanParse),
		"rewrite.plan_us":                 us(spanPlan),
		"rewrite.plan_cache_hit_rate":     0,
		"rewrite.ua_overhead_ratio":       medianRatio(m.uaPer, m.detPer, allQueries),
		"rewrite.attr_plan_us":            us(spanAttrPlan),
		"rewrite.attr_output_cols":        0,
		"physical.optimize_us":            us(spanOptimize),
		"physical.lower_us":               us(spanLower),
		"physical.drain_ms":               medianPerOp(sp, spanDrain),
		"physical.rows_in_per_result_row": ratio(n["rows_in"], n["rows_out"]),
		"vector.wire_encode_mb_per_s":     perSec(n["wire_bytes"], spanEncode),
		"vector.wire_decode_mb_per_s":     perSec(n["wire_bytes"], spanDecode),
		"vector.wire_bytes_per_row":       ratio(n["wire_bytes"], n["rows_out"]),
		"server.wire_self_ms":             0,
		"admission.queued_share":          0,
		"admission.wait_ms":               0,
		"admission.peak_granted_bytes":    0,
		"spill.heavy_ops_per_s":           float64(m.heavyOps) / m.elapsed.Seconds(),
		"spill.peak_governed_bytes":       0,
		"alloc_mb_per_op":                 float64(m.allocBytes) / 1e6 / float64(sum.samples),
		"heap_peak_mb":                    float64(m.heapSysBytes) / 1e6,
		"setup.gen_s":                     e.times.gen.Seconds(),
		"setup.encode_s":                  e.times.encode.Seconds(),
		"setup.warm_s":                    e.times.warm.Seconds(),
		"unattributed_ms":                 median(unattributed(sp)),
		"trace_overhead_ratio":            rootMS / sum.p50,
	}
	if e.w.attr {
		out["rewrite.attr_output_cols"] = ratio(n["output_cols"], n["queries"])
	}
	if len(m.uaPer) > 0 {
		for j := range m.uaPer[0] {
			printMetric(e.w.name, fmt.Sprintf("rewrite.ua_overhead_ratio_q%d", j+1), medianRatio(m.uaPer, m.detPer, j), "ratio")
		}
	}
	if e.srv != nil {
		solo := rootMS
		if e.heavy != nil {
			solo = e.soloMS
			out["admission.wait_ms"] = sum.p50 - e.soloMS
		}
		out["server.wire_self_ms"] = solo - medianPerOp(sp, spanInproc)
		b, a := m.before, m.after
		out["rewrite.plan_cache_hit_rate"] = ratio(a.PlanHits-b.PlanHits, a.PlanHits-b.PlanHits+a.PlanMisses-b.PlanMisses)
		out["admission.queued_share"] = ratio(a.Queued-b.Queued, a.Admitted-b.Admitted)
		out["admission.peak_granted_bytes"] = float64(a.PeakGranted)
		out["spill.peak_governed_bytes"] = float64(a.Peak)
	}
	return out, nil
}

// runAgree runs the selected workloads twice on this build and compares
// each end-to-end metric's two values against its bound.
func runAgree(selected []*workload, cfg config) error {
	cfg.trace = 0
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range selected {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			sets[i][w.name] = res
		}
	}
	var over []string
	fmt.Printf("%-15s %-14s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range selected {
		a, b := sets[0][w.name], sets[1][w.name]
		if a.Failed+b.Failed > 0 {
			over = append(over, w.name+" error_rate")
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			worse := worseBy(d.Better, x, y)
			fmt.Printf("%-15s %-14s %12.4f %12.4f %+8.1f%% %6.0f%%\n", w.name, d.Name, x, y, 100*worse, 100*d.Bound)
			if worse > d.Bound {
				over = append(over, w.name+" "+d.Name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two sets of runs of the same build disagree beyond the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}
