package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed interval at a layer boundary. Spans of one op share
// its op_id; Parent is the index of the span that caused this one, -1 for a
// root. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Root span names: the real call, its in-process twin, and the replay that
// is split into one child span per public call.
const (
	spanRoot       = "root"
	spanInproc     = "inproc"
	spanDecomposed = "decomposed"
)

// tracer keeps spans and boundary counts in memory until the run ends. It
// is used by one goroutine at a time: the replays are sequential.
type tracer struct {
	t0     time.Time
	Spans  []span           `json:"spans"`
	Counts map[string]int64 `json:"counts"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), Counts: map[string]int64{}}
}

// begin opens a span and returns its index, which end takes.
func (t *tracer) begin(name string, parent, opID int) int {
	t.Spans = append(t.Spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, OpID: opID})
	return len(t.Spans) - 1
}

func (t *tracer) end(i int) { t.Spans[i].End = int64(time.Since(t.t0)) }

// selfTimes returns, per span name, the total time not covered by child
// spans: a span's duration minus its direct children's durations.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += s.dur() - covered[i]
	}
	return out
}

// perOp sums the durations of the spans called name, per op id.
func perOp(spans []span, name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.OpID] += s.dur()
		}
	}
	return out
}

// medianPerOp is the median over ops of the op's total time in spans called
// name, in ms; 0 when no such span was recorded.
func medianPerOp(spans []span, name string) float64 {
	per := perOp(spans, name)
	if len(per) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(per))
	for _, d := range per {
		vals = append(vals, ms(d))
	}
	return median(vals)
}

// unattributed is, per op, the real call's root span minus every child span
// of the decomposed replay of the same op: the time the outside-in split
// cannot assign to a layer (wire, framing, scheduling, glue). It is
// negative when the real call did less work than its parts replayed
// separately, as on a plan-cache hit.
func unattributed(spans []span) []float64 {
	children := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == spanDecomposed {
			children[s.OpID] += s.dur()
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == spanRoot {
			if c, ok := children[s.OpID]; ok {
				out = append(out, ms(s.dur()-c))
			}
		}
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Meta     meta   `json:"meta"`
	Workload string `json:"workload"`
	*tracer
	SelfMS map[string]float64 `json:"self_ms"`
}

func (t *tracer) write(dir, workload string, m meta) (string, error) {
	self := map[string]float64{}
	for name, d := range selfTimes(t.Spans) {
		self[name] = ms(d)
	}
	data, err := json.Marshal(traceFile{Meta: m, Workload: workload, tracer: t, SelfMS: self})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// printSplit prints where the real call's time goes: each layer's median
// time per op in the decomposed replay and what is left unattributed, each
// also as a share of the real call's median.
func printSplit(workload string, spans []span) {
	root := medianPerOp(spans, spanRoot)
	seen := map[string]bool{}
	var names []string
	for _, s := range spans {
		if s.Parent >= 0 && !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	per := map[string]float64{"unattributed": median(unattributed(spans))}
	for _, name := range names {
		per[name] = medianPerOp(spans, name)
	}
	names = append(names, "unattributed")
	sort.SliceStable(names, func(i, j int) bool { return per[names[i]] > per[names[j]] })
	fmt.Printf("%s: median per op of each layer, and its share of the real call's %.4f ms:\n", workload, root)
	for _, name := range names {
		fmt.Printf("%-15s   %-22s %10.4f ms %6.1f%%\n", workload, name, per[name], 100*per[name]/root)
	}
}
