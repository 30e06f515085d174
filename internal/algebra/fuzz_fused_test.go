package algebra

import (
	"testing"

	"repro/internal/vector"
)

// FuzzFusedVsUnfused is the fusion twin of FuzzCompileVsEval: it replays the
// exact kernel sequence a FusedPipeline window runs — SelectTruthyVec per
// predicate, ascending intersection of the survivor sets, then EvalVec over
// a contiguous survivor run or EvalVecSel at scattered survivors, boxed into
// rows by vector.Materialize — and requires byte-identical results (kind plus
// canonical key encoding) to interpreted row-at-a-time filtering and
// evaluation. Predicates and projections are decoded from every Expr form,
// each of which fuses. NULL propagation through 3VL predicates,
// div/mod-by-zero, NaN comparison arms, and int→float widening past 2^53
// all flow through the same decoded value pool the kernel fuzzer uses.
func FuzzFusedVsUnfused(f *testing.F) {
	f.Add([]byte{0x01, 0x22, 0x13, 0x05, 0x40, 0x41, 0x42})
	f.Add([]byte{0x02, 0x30, 0x00, 0xff, 0x7f, 0x12, 0x99, 0x01, 0x02, 0x03})
	f.Add([]byte("fused-window-agreement"))
	// One form seed as the predicate and one as the projection.
	seeds := formSeeds()
	for i, e := range seeds {
		f.Add(cat([]byte{1}, e, []byte{0}, seeds[(i+3)%len(seeds)], seedRows))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{data: data}
		const arity = 3
		nPreds := int(d.byte()) % 3
		preds := make([]Expr, nPreds)
		for i := range preds {
			preds[i] = d.expr(arity, 3)
		}
		nProjs := 1 + int(d.byte())%3
		projs := make([]Expr, nProjs)
		for i := range projs {
			projs[i] = d.expr(arity, 3)
		}
		rows := d.rows(arity)
		nRows := len(rows)
		predProgs := CompileAll(preds)
		projProgs := CompileAll(projs)

		// Row-at-a-time reference: sequential filters, interpreted Eval.
		var wantSel []int
		for i, row := range rows {
			keep := true
			for _, p := range preds {
				if !Truthy(p.Eval(row)) {
					keep = false
					break
				}
			}
			if keep {
				wantSel = append(wantSel, i)
			}
		}

		// Fused window: per-predicate vector selection, intersected.
		cols := vector.FromRows(rows, arity).Slice(0, nRows)
		var sel []int
		for i, prog := range predProgs {
			s := prog.SelectTruthyVec(cols, nRows, nil)
			if i == 0 {
				sel = s
			} else {
				sel = intersectSorted(sel, s)
			}
		}
		if nPreds == 0 {
			sel = make([]int, nRows)
			for i := range sel {
				sel[i] = i
			}
		}
		if !equalSel(sel, wantSel) {
			t.Fatalf("preds %v: fused sel %v, want %v", preds, sel, wantSel)
		}
		if len(sel) == 0 {
			return // nothing survives: the pipeline emits an empty result
		}

		// Projection at the survivors, exactly as the pipeline's one output
		// routine runs it: a contiguous survivor run evaluates dense over a
		// zero-copy sub-window, a scattered selection evaluates over the whole
		// window and gathers the survivors; vector.Materialize then boxes the
		// result vectors into rows.
		lo, m := sel[0], len(sel)
		dense := sel[m-1]-lo == m-1
		win := make([]vector.Vector, len(cols))
		for j, v := range cols {
			win[j] = v.Slice(lo, lo+m)
		}
		out := make([]vector.Vector, nProjs)
		for j, prog := range projProgs {
			if dense {
				out[j] = prog.EvalVec(win, m)
			} else {
				out[j] = prog.EvalVecSel(cols, nRows, sel)
			}
		}
		got := vector.Materialize(out, m)
		for r, i := range sel {
			for j, p := range projs {
				if want := p.Eval(rows[i]); !sameValueFuzz(want, got[r][j]) {
					t.Fatalf("proj %s row %d: Eval=%v fused=%v", p, i, want, got[r][j])
				}
			}
		}
	})
}

// intersectSorted returns the values present in both ascending slices.
func intersectSorted(a, b []int) []int {
	var out []int
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == x {
			out = append(out, x)
		}
	}
	return out
}
