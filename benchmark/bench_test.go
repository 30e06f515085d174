package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileAndSampleCountRules(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// A p95 needs minTail samples beyond it: 200 samples is the least.
	for _, c := range []struct{ n, want int }{{400, 20}, {200, 10}, {199, 9}, {20, 1}, {0, 0}} {
		if got := samplesBeyond(c.n, 0.95); got != c.want {
			t.Errorf("samplesBeyond(%d, 0.95) = %d, want %d", c.n, got, c.want)
		}
	}
	if samplesBeyond(199, 0.95) >= minTail || samplesBeyond(200, 0.95) < minTail {
		t.Error("minTail should admit a p95 from 200 samples and not from 199")
	}

	w := window{elapsed: 2 * time.Second, failed: 1}
	for i := 1; i <= 10; i++ {
		w.latencies = append(w.latencies, time.Duration(11-i)*time.Millisecond) // unsorted on purpose
	}
	s := w.summarize()
	if s.p50 != 5 || s.p95 != 10 || s.samples != 10 || s.beyondP95 != 0 || s.opsPerSec != 5 {
		t.Errorf("summarize = %+v", s)
	}
	// One of three set-ups is disturbed: each metric takes its best value,
	// and the sample counts are the smallest window's.
	got := leastDisturbed([]latencySummary{
		{p50: 4.2, p95: 5.8, opsPerSec: 240, samples: 960, beyondP95: 48},
		{p50: 12, p95: 30, opsPerSec: 80, samples: 320, beyondP95: 16},
		{p50: 4, p95: 6, opsPerSec: 250, samples: 1000, beyondP95: 50},
	})
	if got != (latencySummary{p50: 4, p95: 5.8, opsPerSec: 250, samples: 320, beyondP95: 16}) {
		t.Errorf("leastDisturbed = %+v", got)
	}
	if worseBy("lower", 10, 11) != 0.1 || worseBy("higher", 10, 9) != 0.1 || worseBy("lower", 10, 9) >= 0 {
		t.Error("worseBy has the wrong sign or scale")
	}
}

func TestSpanSelfTimeAndUnattributed(t *testing.T) {
	msec := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{Name: spanRoot, Start: msec(0), End: msec(100), Parent: -1, OpID: 0},
		{Name: spanDecomposed, Start: msec(200), End: msec(290), Parent: -1, OpID: 0},
		{Name: spanParse, Start: msec(200), End: msec(230), Parent: 1, OpID: 0},
		{Name: spanDrain, Start: msec(230), End: msec(270), Parent: 1, OpID: 0},
		// A second op whose parts cost more than the real call: a cache hit.
		{Name: spanRoot, Start: msec(300), End: msec(310), Parent: -1, OpID: 1},
		{Name: spanDecomposed, Start: msec(400), End: msec(440), Parent: -1, OpID: 1},
		{Name: spanDrain, Start: msec(400), End: msec(425), Parent: 5, OpID: 1},
		{Name: spanDrain, Start: msec(425), End: msec(440), Parent: 5, OpID: 1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		spanRoot:       110 * time.Millisecond,
		spanDecomposed: 20 * time.Millisecond, // 90-30-40, and 40-25-15
		spanParse:      30 * time.Millisecond,
		spanDrain:      80 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := unattributed(spans); !reflect.DeepEqual(got, []float64{30, -30}) {
		t.Errorf("unattributed = %v, want [30 -30]", got)
	}
	// Two drain spans of op 1 count as one 40 ms op: median of {40, 40}.
	if got := medianPerOp(spans, spanDrain); got != 40 {
		t.Errorf("medianPerOp(drain) = %v, want 40", got)
	}
	if got := medianPerOp(spans, spanEncode); got != 0 {
		t.Errorf("medianPerOp of an absent span = %v, want 0", got)
	}
}

// streamTexts renders a client's op stream as the SQL it sends.
func streamTexts(seed int64, client int) []string {
	var qs querySet
	var out []string
	for _, o := range lookupStream(seed, client, lookupTemplates, &qs) {
		for _, qi := range o {
			out = append(out, qs.list[qi].sql)
		}
	}
	return out
}

func TestSeedIsTheOnlyRandomness(t *testing.T) {
	a, b, other, client1 := streamTexts(1, 0), streamTexts(1, 0), streamTexts(2, 0), streamTexts(1, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different query streams")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 1 and 2 gave the same query stream")
	}
	if reflect.DeepEqual(a, client1) {
		t.Error("two clients of one seed got the same query stream")
	}
	distinct := map[string]bool{}
	for _, s := range a {
		distinct[s] = true
	}
	// Some texts must repeat (plan-cache hits) and more distinct texts than
	// the cache holds must occur (evictions).
	if len(distinct) <= planCacheEntries || len(distinct) >= len(a)*3/4 {
		t.Errorf("%d distinct texts in %d ops: want repeats, and more than the %d-entry plan cache holds",
			len(distinct), len(a), planCacheEntries)
	}

	render := func(seed int64) string {
		out := ""
		for _, x := range genPDBench(seed, 0.01)["lineitem"].XTuples {
			for _, alt := range x.Alts {
				out += alt.Data.Key() + "|"
			}
			out += "\n"
		}
		return out
	}
	if render(1) != render(1) {
		t.Error("the same seed gave two different PDBench databases")
	}
	if render(1) == render(2) {
		t.Error("seeds 1 and 2 gave the same PDBench database")
	}
	if genEvents(1)[0].Rows[5][4] != genEvents(1)[0].Rows[5][4] || genBig(3).Rows[9][2] != genBig(3).Rows[9][2] {
		t.Error("the same seed gave different generated tables")
	}
}

// TestContractMatchesCode pins BENCHMARK.json to the metric and workload
// tables in the code, so neither changes alone.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, code has %+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, code has %+v", contract.PerLayer, perLayer)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, c.Name, c.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
		if w.clients > 2 {
			t.Errorf("%s: %d measured clients, the box has 2 cores", w.name, w.clients)
		}
	}
	if !reflect.DeepEqual(contract.Paths, []string{"benchmark"}) || contract.RunSeconds < 1 || contract.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", contract.Paths, contract.RunSeconds)
	}
}

// TestSmokeAllWorkloads runs every workload end to end with a 200 ms window
// and both passes: every named metric must be present and finite, no op may
// fail, and the trace file must parse.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(w, config{seed: 1, seconds: 0.2, trace: -1, outDir: dir, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("metric %s = %+v (present %v), want a finite value in %s", d.Name, v, ok, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			data, err := os.ReadFile(dir + "/trace-" + w.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				Workload string
				Spans    []span
				Counts   map[string]int64
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Workload != w.name || len(tf.Spans) == 0 || tf.Counts["rows_out"] == 0 {
				t.Errorf("trace file: workload %q, %d spans, counts %v", tf.Workload, len(tf.Spans), tf.Counts)
			}
			if left, _ := os.ReadDir(dir); len(left) != 1 {
				t.Errorf("run left %d entries in its out dir, want only the trace file", len(left))
			}
		})
	}
}
