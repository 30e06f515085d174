// Attribute-level annotations: the paper's future-work extension
// (Section 12), served as AU-DB attribute ranges. Tuple-level UA-DBs mark a
// whole row uncertain as soon as any cell is imputed; AU ranges track which
// cells are uncertain, so projections that discard the noisy cells recover
// full certainty — removing the false negatives the paper's Figure 15
// measures. Both labelings run through the same Frontend.Query; the session
// picks one with QueryOpts.AttrBounds.
package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/rewrite"
	"repro/internal/types"
	"repro/internal/uadb"
)

func main() {
	s := func(v string) types.Value { return types.NewString(v) }
	i := func(v int64) types.Value { return types.NewInt(v) }

	// A patients table where only the *age* column was imputed: each
	// uncertain row has two candidate ages but identical id/diagnosis.
	x := models.NewXRelation(types.NewSchema("patients", "id", "diagnosis", "age"))
	x.AddCertain(types.Tuple{i(1), s("flu"), i(34)})
	x.AddChoice(
		types.Tuple{i(2), s("asthma"), i(51)},
		types.Tuple{i(2), s("asthma"), i(15)},
	)
	x.AddChoice(
		types.Tuple{i(3), s("flu"), i(42)},
		types.Tuple{i(3), s("flu"), i(44)},
	)

	// One frontend holds both encodings of the table: the tuple-level one
	// (a trailing certainty column) and the AU one (a [lo, bg, hi] range per
	// attribute plus __ec/__ebg existence bounds).
	front := rewrite.NewFrontend(engine.NewCatalog())
	front.Enc.Put(rewrite.TableFromUA(uadb.FromXDB(x)))
	at, err := rewrite.EncodeAttrX(x)
	if err != nil {
		panic(err)
	}
	front.PutAttrTable("patients", at)
	query := func(q string, opt rewrite.QueryOpts) [][]types.Value {
		res, err := front.Query(context.Background(), q, opt)
		if err != nil {
			panic(err)
		}
		return engine.ResultTable(res).Rows
	}
	au := rewrite.QueryOpts{AttrBounds: true}

	// Tuple-level UA-DB: the query "which diagnoses occur?" marks rows 2
	// and 3 uncertain even though their diagnoses are beyond doubt.
	fmt.Println("Tuple-level labels on SELECT id, diagnosis:")
	for _, r := range query("SELECT id, diagnosis FROM patients", rewrite.QueryOpts{}) {
		mark := "uncertain (false negative!)"
		if r[2].Int() > 0 {
			mark = "CERTAIN"
		}
		fmt.Printf("  %-18s %s\n", types.Tuple(r[:2]), mark)
	}

	// AU ranges know the uncertainty lives in the age column only:
	// projecting it away leaves collapsed ranges on certainly-existing rows.
	fmt.Println("\nAttribute-level labels on the same projection:")
	for _, r := range query("SELECT id, diagnosis FROM patients", au) {
		mark := "uncertain"
		if r[0].Equal(r[2]) && r[3].Equal(r[5]) && r[6].Int() > 0 {
			mark = "CERTAIN"
		}
		fmt.Printf("  %-18s %s\n", types.Tuple{r[1], r[4]}, mark)
	}

	// Selections show the flip side: filtering on the uncertain age makes
	// survival uncertain where the age range straddles the cut — patient 2
	// may be 15 — while patient 3 is an adult in every world.
	fmt.Println("\nAfter WHERE age >= 18 (age was imputed):")
	for _, r := range query("SELECT id, age FROM patients WHERE age >= 18", au) {
		mark := "uncertain"
		if r[6].Int() > 0 {
			mark = "certainly present"
		}
		fmt.Printf("  id %v, age in [%v, %v]   %s\n", r[1], r[3], r[5], mark)
	}
}
