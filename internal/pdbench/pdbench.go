// Package pdbench is a PDBench-style workload generator (Antova, Jansen,
// Koch, Olteanu; ICDE 2008): a scaled-down TPC-H subset with seeded random
// uncertainty injected into attribute cells, producing x-DBs whose x-tuples
// carry up to MaxAlternatives alternatives per uncertain row. The three
// benchmark queries roughly correspond to TPC-H Q3, Q6 and Q7, matching the
// paper's Section 11.1 setup.
//
// Scale: SF = 1 generates 1,500 customers / 15,000 orders / 60,000 lineitems
// (1/100 of TPC-H dbgen row counts) so the whole benchmark suite runs on one
// core in seconds; relative comparisons between systems are unaffected (see
// DESIGN.md).
package pdbench

import (
	"fmt"
	"math/rand"

	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/types"
)

// MaxAlternatives bounds the alternatives per uncertain cell, matching
// PDBench's "up to 8 possible values".
const MaxAlternatives = 8

// Config controls generation.
type Config struct {
	SF          float64 // scale factor; 1.0 = 60k lineitems
	Uncertainty float64 // fraction of cells made uncertain (0.02 .. 0.30)
	Seed        int64
}

// Workload is the generated database in x-DB form plus derived metadata.
type Workload struct {
	Config Config
	Tables map[string]*models.XRelation
}

var mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var nations = []string{"FRANCE", "GERMANY", "RUSSIA", "JAPAN", "CHINA", "KENYA", "PERU", "BRAZIL"}
var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
var statuses = []string{"O", "F", "P"}

func iv(v int64) types.Value   { return types.NewInt(v) }
func fv(v float64) types.Value { return types.NewFloat(v) }
func sv(v string) types.Value  { return types.NewString(v) }

// Generate builds the workload deterministically from the seed.
func Generate(cfg Config) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Config: cfg, Tables: make(map[string]*models.XRelation)}

	nCust := int(1500 * cfg.SF)
	if nCust < 10 {
		nCust = 10
	}
	nOrders := nCust * 10
	nLines := nOrders * 4

	region := models.NewXRelation(types.NewSchema("region", "r_regionkey", "r_name"))
	for i, name := range regions {
		region.AddCertain(types.Tuple{iv(int64(i)), sv(name)})
	}
	w.Tables["region"] = region

	nation := models.NewXRelation(types.NewSchema("nation", "n_nationkey", "n_name", "n_regionkey"))
	for i, name := range nations {
		nation.AddCertain(types.Tuple{iv(int64(i)), sv(name), iv(int64(i % len(regions)))})
	}
	w.Tables["nation"] = nation

	// customer: c_custkey, c_nationkey, c_acctbal, c_mktsegment.
	custSchema := types.NewSchema("customer", "c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment")
	customer := models.NewXRelation(custSchema)
	custGen := cellGenerators{
		{1, func(r *rand.Rand) types.Value { return iv(r.Int63n(int64(len(nations)))) }},
		{2, func(r *rand.Rand) types.Value { return fv(float64(r.Intn(10000)) - 999) }},
		{3, func(r *rand.Rand) types.Value { return sv(mktSegments[r.Intn(len(mktSegments))]) }},
	}
	for i := 0; i < nCust; i++ {
		row := make(types.Tuple, custSchema.Arity())
		row[0] = iv(int64(i + 1))
		custGen.fill(row, rng)
		addRow(customer, row, custGen, cfg, rng)
	}
	w.Tables["customer"] = customer

	// orders: o_orderkey, o_custkey, o_orderstatus, o_totalprice,
	// o_orderdate (int days), o_shippriority.
	ordSchema := types.NewSchema("orders",
		"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate", "o_shippriority")
	orders := models.NewXRelation(ordSchema)
	ordGen := cellGenerators{
		{1, func(r *rand.Rand) types.Value { return iv(r.Int63n(int64(nCust)) + 1) }},
		{2, func(r *rand.Rand) types.Value { return sv(statuses[r.Intn(len(statuses))]) }},
		{3, func(r *rand.Rand) types.Value { return fv(float64(r.Intn(500000)) / 100 * 10) }},
		{4, func(r *rand.Rand) types.Value { return iv(r.Int63n(2406)) }}, // days over ~6.5 years
		{5, func(r *rand.Rand) types.Value { return iv(r.Int63n(2)) }},
	}
	for i := 0; i < nOrders; i++ {
		row := make(types.Tuple, ordSchema.Arity())
		row[0] = iv(int64(i + 1))
		ordGen.fill(row, rng)
		addRow(orders, row, ordGen, cfg, rng)
	}
	w.Tables["orders"] = orders

	// lineitem: l_orderkey, l_linenumber, l_quantity, l_extendedprice,
	// l_discount, l_shipdate.
	liSchema := types.NewSchema("lineitem",
		"l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate")
	lineitem := models.NewXRelation(liSchema)
	liGen := cellGenerators{
		{2, func(r *rand.Rand) types.Value { return iv(r.Int63n(50) + 1) }},
		{3, func(r *rand.Rand) types.Value { return fv(float64(r.Intn(100000)) / 100) }},
		{4, func(r *rand.Rand) types.Value { return fv(float64(r.Intn(11)) / 100) }},
		{5, func(r *rand.Rand) types.Value { return iv(r.Int63n(2406)) }},
	}
	for i := 0; i < nLines; i++ {
		row := make(types.Tuple, liSchema.Arity())
		row[0] = iv(rng.Int63n(int64(nOrders)) + 1)
		row[1] = iv(int64(i%7 + 1))
		liGen.fill(row, rng)
		addRow(lineitem, row, liGen, cfg, rng)
	}
	w.Tables["lineitem"] = lineitem

	return w
}

// cellGenerators lists the column positions eligible for uncertainty, in
// ascending order, with their value generators (keys are never made
// uncertain, matching PDBench). Walking a slice rather than a map keeps the
// draws from the seeded source in one fixed order, so a seed determines the
// generated database.
type cellGenerators []cellGen

type cellGen struct {
	col int
	gen func(*rand.Rand) types.Value
}

// fill draws every eligible cell of row, in column order.
func (gs cellGenerators) fill(row types.Tuple, rng *rand.Rand) {
	for _, g := range gs {
		row[g.col] = g.gen(rng)
	}
}

// addRow injects uncertainty: with probability proportional to the cell
// uncertainty rate, a row becomes an x-tuple whose alternatives redraw each
// uncertain cell. The original row stays the first alternative, so the
// best-guess world is the clean generation.
func addRow(rel *models.XRelation, row types.Tuple, gens cellGenerators, cfg Config, rng *rand.Rand) {
	var dirty cellGenerators
	for _, g := range gens {
		if rng.Float64() < cfg.Uncertainty {
			dirty = append(dirty, g)
		}
	}
	if len(dirty) == 0 {
		rel.AddCertain(row)
		return
	}
	nAlts := rng.Intn(MaxAlternatives-1) + 2 // 2..8 alternatives
	alts := make([]models.Alternative, 0, nAlts)
	alts = append(alts, models.Alternative{Data: row, Prob: 1 / float64(nAlts)})
	for a := 1; a < nAlts; a++ {
		alt := row.Clone()
		dirty.fill(alt, rng)
		alts = append(alts, models.Alternative{Data: alt, Prob: 1 / float64(nAlts)})
	}
	rel.Add(models.XTuple{Alts: alts})
}

// Stats summarizes the generated uncertainty.
func (w *Workload) Stats() map[string][2]int {
	out := make(map[string][2]int)
	for name, rel := range w.Tables {
		uncertain := 0
		for _, x := range rel.XTuples {
			if len(x.Alts) > 1 || x.Optional {
				uncertain++
			}
		}
		out[name] = [2]int{len(rel.XTuples), uncertain}
	}
	return out
}

// Query pairs the SQL form (run on the engine and the UA frontend) with the
// equivalent RA⁺ form (run on lineage / symbolic evaluators).
type Query struct {
	Name string
	SQL  string
	RA   kdb.Query
}

// Queries returns the three PDBench benchmark queries. Date constants index
// days; the midpoint of the generated range keeps selectivities moderate.
func Queries() []Query {
	q1SQL := `SELECT o.o_orderkey, o.o_orderdate, o.o_shippriority
		FROM customer c, orders o, lineitem l
		WHERE c.c_mktsegment = 'BUILDING'
		  AND c.c_custkey = o.o_custkey
		  AND l.l_orderkey = o.o_orderkey
		  AND o.o_orderdate < 1200
		  AND l.l_shipdate > 1200`
	q1RA := kdb.ProjectQ{
		Input: kdb.SelectQ{
			Input: kdb.JoinQ{
				Left: kdb.JoinQ{
					Left: kdb.Table{Name: "customer"}, Right: kdb.Table{Name: "orders"},
					Pred: kdb.AttrAttr{Left: "c_custkey", Right: "o_custkey", PosLeft: -1, PosRight: -1, Op: kdb.OpEq},
				},
				Right: kdb.Table{Name: "lineitem"},
				Pred:  kdb.AttrAttr{Left: "o_orderkey", Right: "l_orderkey", PosLeft: -1, PosRight: -1, Op: kdb.OpEq},
			},
			Pred: kdb.And{
				kdb.AttrConst{Attr: "c_mktsegment", Op: kdb.OpEq, Const: sv("BUILDING")},
				kdb.AttrConst{Attr: "o_orderdate", Op: kdb.OpLt, Const: iv(1200)},
				kdb.AttrConst{Attr: "l_shipdate", Op: kdb.OpGt, Const: iv(1200)},
			},
		},
		Attrs: []string{"o_orderkey", "o_orderdate", "o_shippriority"},
	}

	q2SQL := `SELECT l_orderkey, l_extendedprice, l_discount
		FROM lineitem
		WHERE l_shipdate >= 800 AND l_shipdate < 1200
		  AND l_discount BETWEEN 0.05 AND 0.07
		  AND l_quantity < 24`
	q2RA := kdb.ProjectQ{
		Input: kdb.SelectQ{
			Input: kdb.Table{Name: "lineitem"},
			Pred: kdb.And{
				kdb.AttrConst{Attr: "l_shipdate", Op: kdb.OpGe, Const: iv(800)},
				kdb.AttrConst{Attr: "l_shipdate", Op: kdb.OpLt, Const: iv(1200)},
				kdb.AttrConst{Attr: "l_discount", Op: kdb.OpGe, Const: fv(0.05)},
				kdb.AttrConst{Attr: "l_discount", Op: kdb.OpLe, Const: fv(0.07)},
				kdb.AttrConst{Attr: "l_quantity", Op: kdb.OpLt, Const: iv(24)},
			},
		},
		Attrs: []string{"l_orderkey", "l_extendedprice", "l_discount"},
	}

	q3SQL := `SELECT n.n_name, o.o_orderkey
		FROM customer c, orders o, nation n
		WHERE c.c_custkey = o.o_custkey
		  AND c.c_nationkey = n.n_nationkey
		  AND (n.n_name = 'FRANCE' OR n.n_name = 'GERMANY')
		  AND o.o_orderdate BETWEEN 800 AND 1600`
	q3RA := kdb.ProjectQ{
		Input: kdb.SelectQ{
			Input: kdb.JoinQ{
				Left: kdb.JoinQ{
					Left: kdb.Table{Name: "customer"}, Right: kdb.Table{Name: "orders"},
					Pred: kdb.AttrAttr{Left: "c_custkey", Right: "o_custkey", PosLeft: -1, PosRight: -1, Op: kdb.OpEq},
				},
				Right: kdb.Table{Name: "nation"},
				Pred:  kdb.AttrAttr{Left: "c_nationkey", Right: "n_nationkey", PosLeft: -1, PosRight: -1, Op: kdb.OpEq},
			},
			Pred: kdb.And{
				kdb.Or{
					kdb.AttrConst{Attr: "n_name", Op: kdb.OpEq, Const: sv("FRANCE")},
					kdb.AttrConst{Attr: "n_name", Op: kdb.OpEq, Const: sv("GERMANY")},
				},
				kdb.AttrConst{Attr: "o_orderdate", Op: kdb.OpGe, Const: iv(800)},
				kdb.AttrConst{Attr: "o_orderdate", Op: kdb.OpLe, Const: iv(1600)},
			},
		},
		Attrs: []string{"n_name", "o_orderkey"},
	}

	return []Query{
		{Name: "Q1", SQL: q1SQL, RA: q1RA},
		{Name: "Q2", SQL: q2SQL, RA: q2RA},
		{Name: "Q3", SQL: q3SQL, RA: q3RA},
	}
}

// String describes the workload.
func (w *Workload) String() string {
	return fmt.Sprintf("pdbench SF=%.2f u=%.0f%% seed=%d", w.Config.SF, w.Config.Uncertainty*100, w.Config.Seed)
}
