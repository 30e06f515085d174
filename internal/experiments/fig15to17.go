package experiments

import (
	"math/rand"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/types"
	"repro/internal/uadb"
)

// fnrOfProjection computes the false negative rate of the UA-DB labeling for
// one projection over an x-relation: the fraction of truly certain result
// tuples that the labeling marks uncertain. ua must be uadb.FromXDB(x).
func fnrOfProjection(x *models.XRelation, ua *uadb.Relation[int64], idx []int) float64 {
	attrs := make([]string, len(idx))
	for i, j := range idx {
		attrs[i] = x.Schema.Attrs[j]
	}
	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	uaDB.Put(ua)
	res, err := uadb.Eval(kdb.ProjectQ{Input: kdb.Table{Name: x.Schema.Name}, Attrs: attrs}, uaDB)
	if err != nil {
		panic(err)
	}
	truth := models.CertainSP(x, nil, idx)
	total, missed := 0, 0
	truth.ForEach(func(t types.Tuple, cert int64) {
		if cert == 0 {
			return
		}
		total++
		if res.Get(t).Cert == 0 {
			missed++
		}
	})
	if total == 0 {
		return 0
	}
	return float64(missed) / float64(total)
}

// Fig15Config controls the FNR-distribution experiment.
type Fig15Config struct {
	TrialsPerK int
	Points     int // number of k values sampled between 1 and #cols
	Seed       int64
}

// DefaultFig15 uses 8 random projections per projection width.
func DefaultFig15() Fig15Config { return Fig15Config{TrialsPerK: 8, Points: 8, Seed: 5} }

// Fig15 reproduces Figure 15 (a–i): quartile distributions of the false
// negative rate of random projection queries over the nine real-world
// datasets, as a function of the number of projection attributes. FNR
// decreases with more projection attributes and stays low overall.
func Fig15(cfg Fig15Config) *Report {
	rep := &Report{ID: "Fig15", Title: "FNR of random projections (min/q1/median/q3/max)"}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, spec := range datagen.Specs() {
		d := datagen.Generate(spec)
		ua := uadb.FromXDB(d.X)
		rep.addf("-- %s (%d rows, %d cols)", spec.Name, spec.Rows, spec.Cols)
		rep.addf("   %-4s %-8s %-8s %-8s %-8s %-8s", "k", "min", "q1", "med", "q3", "max")
		step := spec.Cols / cfg.Points
		if step < 1 {
			step = 1
		}
		for k := 1; k <= spec.Cols; k += step {
			var fnrs []float64
			for trial := 0; trial < cfg.TrialsPerK; trial++ {
				idx := rng.Perm(spec.Cols)[:k]
				fnrs = append(fnrs, fnrOfProjection(d.X, ua, idx))
			}
			q := quartiles(fnrs)
			rep.addf("   %-4d %-8.4f %-8.4f %-8.4f %-8.4f %-8.4f", k, q[0], q[1], q[2], q[3], q[4])
		}
	}
	return rep
}

// Fig16 reproduces the dataset-statistics table: rows, columns, and realized
// uncertainty rates of the generated datasets.
func Fig16() *Report {
	rep := &Report{ID: "Fig16", Title: "Real-world dataset statistics"}
	rep.addf("%-24s %-8s %-6s %-8s %-8s", "dataset", "rows", "cols", "U_attr", "U_row")
	for _, spec := range datagen.Specs() {
		d := datagen.Generate(spec)
		rep.addf("%-24s %-8d %-6d %-8.2f%% %-8.1f%%",
			spec.Name, spec.Rows, spec.Cols,
			100*d.UncertainCellFraction(), 100*d.UncertainRowFraction())
	}
	return rep
}

// Fig17Row is one real query's measurements.
type Fig17Row struct {
	Query    string
	Det      time.Duration
	UADB     time.Duration
	Overhead float64 // (UADB-Det)/Det
	ErrRate  float64 // FNR against exact certain answers
}

// Fig17 reproduces the real-query experiment (Section 11.3 "Real Queries"):
// the five queries of Section 11.4 over the crime / graffiti / food
// inspection tables, reporting UA-DB overhead relative to deterministic
// processing and the false negative rate.
func Fig17(nRows int, uRow float64, seed int64) (*Report, []Fig17Row, error) {
	rt := datagen.GenerateRealTables(nRows, uRow, seed)
	tables := rt.Tables()

	uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
	for _, x := range tables {
		uaDB.Put(uadb.FromXDB(x))
	}
	detCat := rewrite.DetCatalog(uaDB)
	encCat := rewrite.EncodeUADatabase(uaDB)
	front := rewrite.NewFrontend(encCat)

	rep := &Report{ID: "Fig17", Title: "Real queries: UA-DB overhead and error rate"}
	rep.addf("%-4s %-12s %-12s %-10s %-10s", "qry", "Det", "UA-DB", "overhead", "err rate")
	var rows []Fig17Row
	for _, q := range datagen.RealQueries() {
		var detRes, uaRes *engine.Table
		_ = detRes
		// These queries are sub-millisecond, so each side's time is the
		// median of an odd number of runs, det and UA interleaved: one
		// descheduled run moves a mean, not a median.
		const reps = 7
		var detT, uaT []float64
		for i := 0; i < reps; i++ {
			d, err := timeIt(func() error {
				var e error
				detRes, e = execSQL(detCat, q.SQL)
				return e
			})
			if err != nil {
				return nil, nil, err
			}
			detT = append(detT, float64(d))
			d, err = timeIt(func() error {
				var e error
				uaRes, e = frontQuery(front, q.SQL)
				return e
			})
			if err != nil {
				return nil, nil, err
			}
			uaT = append(uaT, float64(d))
		}
		row := Fig17Row{Query: q.Name,
			Det: time.Duration(quartiles(detT)[2]), UADB: time.Duration(quartiles(uaT)[2])}
		if row.Det > 0 {
			row.Overhead = float64(row.UADB-row.Det) / float64(row.Det)
		}
		row.ErrRate = realQueryFNR(q.Name, rt, uaRes)
		rows = append(rows, row)
		rep.addf("%-4s %-12v %-12v %-10.2f%% %-10.2f%%",
			row.Query, row.Det, row.UADB, 100*row.Overhead, 100*row.ErrRate)
	}
	return rep, rows, nil
}

// realQueryFNR computes the exact FNR of the UA-DB result for one of the
// five real queries using the PTIME certain-answer characterizations of
// models.CertainSP / CertainSPJ.
func realQueryFNR(name string, rt *datagen.RealTables, uaRes *engine.Table) float64 {
	labeled := map[string]bool{} // tuples labeled certain by the UA-DB
	cIdx := uaRes.Schema.Arity() - 1
	for _, row := range uaRes.Rows {
		if row[cIdx].Int() == 1 {
			labeled[types.Tuple(row[:cIdx]).Key()] = true
		}
	}
	truth := realQueryTruth(name, rt)
	total, missed := 0, 0
	truth.ForEach(func(t types.Tuple, cert int64) {
		if cert == 0 {
			return
		}
		total++
		if !labeled[t.Key()] {
			missed++
		}
	})
	if total == 0 {
		return 0
	}
	return float64(missed) / float64(total)
}

func realQueryTruth(name string, rt *datagen.RealTables) *kdb.Relation[int64] {
	crimeS := rt.Crime.Schema
	grafS := rt.Graffiti.Schema
	foodS := rt.FoodInsp.Schema
	switch name {
	case "Q1":
		iucr := crimeS.MustIndexOf("iucr")
		pred := func(t types.Tuple) bool {
			v := t[iucr].Int()
			return v == 820 || v == 486 || v == 1320
		}
		mapFn := func(t types.Tuple) types.Tuple {
			var ctype types.Value
			switch t[iucr].Int() {
			case 820:
				ctype = types.NewString("Theft")
			case 486:
				ctype = types.NewString("Domestic Battery")
			case 1320:
				ctype = types.NewString("Criminal Damage")
			default:
				ctype = types.Null()
			}
			return types.Tuple{t[crimeS.MustIndexOf("id")], t[crimeS.MustIndexOf("case_number")], ctype}
		}
		return models.CertainSPMap(rt.Crime, pred, mapFn, types.Schema{Attrs: []string{"id", "case_number", "crime_type"}})
	case "Q2":
		lon, lat := crimeS.MustIndexOf("longitude"), crimeS.MustIndexOf("latitude")
		pred := func(t types.Tuple) bool {
			lo, la := t[lon].Float(), t[lat].Float()
			return lo >= -87.674 && lo <= -87.619 && la >= 41.892 && la <= 41.903
		}
		return models.CertainSP(rt.Crime, pred, []int{
			crimeS.MustIndexOf("id"), crimeS.MustIndexOf("case_number"), lon, lat})
	case "Q3":
		st := grafS.MustIndexOf("status")
		pred := func(t types.Tuple) bool { return t[st].Str() == "Open" }
		return models.CertainSP(rt.Graffiti, pred, []int{
			grafS.MustIndexOf("street_address"), grafS.MustIndexOf("zip_code"), st})
	case "Q4":
		res, risk := foodS.MustIndexOf("results"), foodS.MustIndexOf("risk")
		pred := func(t types.Tuple) bool {
			return t[res].Str() == "Pass w/ Conditions" && t[risk].Str() == "Risk 1 (High)"
		}
		return models.CertainSP(rt.FoodInsp, pred, []int{
			foodS.MustIndexOf("inspection_date"), foodS.MustIndexOf("address"), foodS.MustIndexOf("zip")})
	case "Q5":
		// graffiti g × crime c with band predicates; concat order g then c.
		gx, gy := grafS.MustIndexOf("x_coordinate"), grafS.MustIndexOf("y_coordinate")
		gpd := grafS.MustIndexOf("police_district")
		off := grafS.Arity()
		cx, cy := off+crimeS.MustIndexOf("x_coordinate"), off+crimeS.MustIndexOf("y_coordinate")
		cd := off + crimeS.MustIndexOf("district")
		pred := func(t types.Tuple) bool {
			if t[gpd].Int() != 8 || t[cd].Str() != "008" {
				return false
			}
			dx := t[cx].Float() - t[gx].Float()
			dy := t[cy].Float() - t[gy].Float()
			return dx < 100 && dx > -100 && dy < 100 && dy > -100
		}
		proj := []int{
			off + crimeS.MustIndexOf("id"), off + crimeS.MustIndexOf("case_number"),
			off + crimeS.MustIndexOf("iucr"), grafS.MustIndexOf("status"),
			grafS.MustIndexOf("service_request_number"), grafS.MustIndexOf("community_area"),
		}
		return models.CertainSPJ(rt.Graffiti, rt.Crime, pred, proj)
	default:
		panic("unknown real query " + name)
	}
}
