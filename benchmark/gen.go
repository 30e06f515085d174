package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/pdbench"
	"repro/internal/types"
	"repro/internal/uadb"
)

// Every generator draws from a source derived from the run's -seed and a
// fixed salt, so one seed fixes the data, the literals, and the client
// interleave, and no two generators share a random sequence.
func seeded(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

const (
	saltPDBench = iota + 1
	saltEvents
	saltBig
	saltSort
	saltStream // + client index
)

// uncertainCellRate is the share of non-key cells made uncertain, the 5 %
// point of the paper's Figure 11 sweep.
const uncertainCellRate = 0.05

// pdbenchUncertainCols lists, per PDBench table, the non-key columns whose
// cells may become uncertain (keys never do, matching PDBench). Only
// numeric columns of lineitem are listed, so its x-relation also has an
// attribute-range encoding.
var pdbenchUncertainCols = map[string][]int{
	"customer": {1, 2, 3},
	"orders":   {1, 2, 3, 4, 5},
	"lineitem": {2, 3, 4, 5},
}

// genPDBench builds the PDBench x-DB for a seed. The clean tables come from
// pdbench.Generate with no uncertainty; the uncertain cells are injected
// here, visiting tables, rows and columns in a fixed order, because
// pdbench's own injection ranges over a Go map and so gives different
// alternatives on every call with the same seed.
func genPDBench(seed int64, sf float64) map[string]*models.XRelation {
	w := pdbench.Generate(pdbench.Config{SF: sf, Seed: seed})
	rng := seeded(seed, saltPDBench)
	names := make([]string, 0, len(pdbenchUncertainCols))
	for name := range pdbenchUncertainCols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel, cols := w.Tables[name], pdbenchUncertainCols[name]
		n := len(rel.XTuples)
		for i := range rel.XTuples {
			var dirty []int
			for _, c := range cols {
				if rng.Float64() < uncertainCellRate {
					dirty = append(dirty, c)
				}
			}
			if len(dirty) == 0 {
				continue
			}
			clean := rel.XTuples[i].Alts[0].Data
			nAlts := rng.Intn(pdbench.MaxAlternatives-1) + 2
			alts := make([]models.Alternative, nAlts)
			for a := range alts {
				data := clean
				if a > 0 {
					// An alternative redraws each dirty cell from the column's
					// own domain: the clean value of a random row.
					data = clean.Clone()
					for _, c := range dirty {
						data[c] = rel.XTuples[rng.Intn(n)].Alts[0].Data[c]
					}
				}
				alts[a] = models.Alternative{Data: data, Prob: 1 / float64(nAlts)}
			}
			rel.XTuples[i].Alts = alts
		}
	}
	return w.Tables
}

// Sizes of the generated tables. They were chosen so that every workload
// completes at least 200 measured ops in each 5 s window of a run on a
// 2-core box and one set-up stays under a second (see README.md).
const (
	pdbenchSF      = 0.25 // 15k lineitems, 3 750 orders, 375 customers
	audbSF         = 0.6  // 36k lineitems: just above the engine's 32 768-row parallel threshold
	eventsRows     = 20_000
	lookupKeys     = 2_000 // keys the Zipf literals range over
	dimsRows       = 100
	bigRows        = 400_000
	sortRows       = 50_000
	heavySortRows  = 3_000 // rows the convoy's heavy ORDER BY selects
	uncertainRowPc = 5     // % of events/big/sortme rows labelled uncertain
)

// slabTable allocates a UA-encoded table (user columns + certainty column)
// whose rows share one backing array, and fills it row by row.
func slabTable(name string, n int, attrs []string, fill func(i int, row []types.Value)) *engine.Table {
	arity := len(attrs) + 1
	t := engine.NewTable(types.Schema{Name: name, Attrs: append(append([]string{}, attrs...), uadb.UAttr)})
	slab := make([]types.Value, n*arity)
	t.Rows = make([][]types.Value, n)
	for i := range t.Rows {
		row := slab[i*arity : (i+1)*arity : (i+1)*arity]
		fill(i, row)
		t.Rows[i] = row
	}
	return t
}

// certainty draws the certainty label of one row.
func certainty(rng *rand.Rand) types.Value {
	if rng.Intn(100) < uncertainRowPc {
		return types.NewInt(0)
	}
	return types.NewInt(1)
}

// genEvents builds the lookup tables, already UA-encoded: events(id, uid,
// kind, dim, amount) with ascending ids and exactly eventsRows/lookupKeys
// rows per uid, and the 100-row dimension dims(did, name).
func genEvents(seed int64) []*engine.Table {
	rng := seeded(seed, saltEvents)
	kinds := []string{"click", "view", "purchase", "refund"}
	shift := rng.Intn(lookupKeys)
	events := slabTable("events", eventsRows, []string{"id", "uid", "kind", "dim", "amount"},
		func(i int, row []types.Value) {
			row[0] = types.NewInt(int64(i))
			row[1] = types.NewInt(int64((i*7919 + shift) % lookupKeys))
			row[2] = types.NewString(kinds[rng.Intn(len(kinds))])
			row[3] = types.NewInt(int64(rng.Intn(dimsRows)))
			row[4] = types.NewFloat(float64(rng.Intn(100_000)) / 100)
			row[5] = certainty(rng)
		})
	dims := slabTable("dims", dimsRows, []string{"did", "name"},
		func(i int, row []types.Value) {
			row[0] = types.NewInt(int64(i))
			row[1] = types.NewString(fmt.Sprintf("dim-%03d", i))
			row[2] = types.NewInt(1)
		})
	return []*engine.Table{events, dims}
}

// genBig builds the bulk-transfer table big(k, g, v), UA-encoded.
func genBig(seed int64) *engine.Table {
	rng := seeded(seed, saltBig)
	return slabTable("big", bigRows, []string{"k", "g", "v"},
		func(i int, row []types.Value) {
			row[0] = types.NewInt(int64(i))
			row[1] = types.NewInt(rng.Int63n(1000))
			row[2] = types.NewFloat(rng.Float64())
			row[3] = certainty(rng)
		})
}

// genSort builds the table the convoy's heavy client sorts, UA-encoded.
func genSort(seed int64) *engine.Table {
	rng := seeded(seed, saltSort)
	return slabTable("sortme", sortRows, []string{"k", "v", "pad"},
		func(i int, row []types.Value) {
			row[0] = types.NewInt(int64(i))
			row[1] = types.NewInt(rng.Int63())
			row[2] = types.NewString(fmt.Sprintf("pad-%0300d", rng.Int63()))
			row[3] = certainty(rng)
		})
}

// query is one SQL text of the workload with the catalog tables it scans.
type query struct {
	sql    string
	tables []string
	// want is the row count of the set-up answer; the gate fills it and
	// every measured execution is checked against it.
	want int
}

// querySet interns query texts: ops refer to queries by index, so repeated
// literals share one entry and one expected answer.
type querySet struct {
	list  []query
	index map[string]int
}

func (s *querySet) add(sql string, tables ...string) int {
	if i, ok := s.index[sql]; ok {
		return i
	}
	if s.index == nil {
		s.index = map[string]int{}
	}
	s.list = append(s.list, query{sql: sql, tables: tables})
	s.index[sql] = len(s.list) - 1
	return len(s.list) - 1
}

// An op is the unit whose latency is sampled: the indexes of the queries
// it runs, in order.
type op []int

// streamLen is the length of a lookup client's pre-generated op stream; a
// client that exhausts it starts over.
const streamLen = 4096

// lookupTemplates are the four short-query shapes, each a function of one
// key in [0, lookupKeys): key range, non-key equality, join with the
// dimension, IN-list. Every one returns a fixed, non-zero row count by
// construction of genEvents. The range is spelled with >= and <= and the
// IN-list reads the 100-row dimension because BETWEEN and IN have no vector
// kernel: over the 20k-row table either costs ~4 ms of boxed evaluation, and
// the workload is about per-query fixed cost, not scans.
var lookupTemplates = []func(key int) (string, []string){
	func(k int) (string, []string) {
		return fmt.Sprintf("SELECT id, uid, amount FROM events WHERE id >= %d AND id <= %d", k*10, k*10+9),
			[]string{"events"}
	},
	func(k int) (string, []string) {
		return fmt.Sprintf("SELECT id, kind, amount FROM events WHERE uid = %d", k), []string{"events"}
	},
	func(k int) (string, []string) {
		return fmt.Sprintf("SELECT e.id, d.name FROM events e, dims d WHERE e.dim = d.did AND e.uid = %d", k),
			[]string{"events", "dims"}
	},
	func(k int) (string, []string) {
		d := func(j int) int { return (k + 17*j) % dimsRows }
		return fmt.Sprintf("SELECT did, name FROM dims WHERE did IN (%d, %d, %d, %d, %d)", d(0), d(1), d(2), d(3), d(4)),
			[]string{"dims"}
	},
}

// lookupStream draws one client's op stream: a uniformly chosen template
// with a Zipf(1.1) key, so a few hundred texts repeat often enough to stay
// in the 256-entry plan cache while the tail keeps evicting.
func lookupStream(seed int64, client int, templates []func(int) (string, []string), qs *querySet) []op {
	rng := seeded(seed, saltStream+int64(client))
	zipf := rand.NewZipf(rng, 1.1, 1, lookupKeys-1)
	ops := make([]op, streamLen)
	for i := range ops {
		sql, tables := templates[rng.Intn(len(templates))](int(zipf.Uint64()))
		ops[i] = op{qs.add(sql, tables...)}
	}
	return ops
}
