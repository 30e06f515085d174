package csvio

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

func TestReadTypesInference(t *testing.T) {
	in := "id,score,name,flag,missing\n1,2.5,alice,true,\n-3,1e2,bob,false,null\n"
	tb, err := Read("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema.Arity() != 5 || tb.NumRows() != 2 {
		t.Fatalf("shape: %v", tb.Schema)
	}
	r0 := tb.Rows[0]
	if r0[0].Kind() != types.KindInt || r0[0].Int() != 1 {
		t.Error("int")
	}
	if r0[1].Kind() != types.KindFloat || r0[1].Float() != 2.5 {
		t.Error("float")
	}
	if r0[2].Kind() != types.KindString {
		t.Error("string")
	}
	if r0[3].Kind() != types.KindBool || !r0[3].Bool() {
		t.Error("bool")
	}
	if !r0[4].IsNull() {
		t.Error("empty -> NULL")
	}
	if !tb.Rows[1][4].IsNull() {
		t.Error("'null' -> NULL")
	}
	if tb.Rows[1][1].Float() != 100 {
		t.Error("scientific notation")
	}
}

func TestRoundTrip(t *testing.T) {
	in := "a,b\n1,x\n,y\n3.5,z\n"
	tb, err := Read("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.EqualBag(back) {
		t.Errorf("round trip changed table:\n%s\nvs\n%s", tb, back)
	}
}

func TestLoadSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	in := "x\n1\n2\n"
	tb, err := Read("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(tb, path); err != nil {
		t.Fatal(err)
	}
	back, err := Load("t", path)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.EqualBag(back) {
		t.Error("load/save round trip")
	}
	if _, err := Load("t", filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read("t", strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Read("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged row should fail")
	}
}

// TestHeaderOnlyIsZeroRowTable: a header with no data rows is a valid,
// empty table — not an error — and survives a write/read round trip.
func TestHeaderOnlyIsZeroRowTable(t *testing.T) {
	tb, err := Read("t", strings.NewReader("a,b,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema.Arity() != 3 || tb.NumRows() != 0 {
		t.Fatalf("shape: %v, %d rows", tb.Schema, tb.NumRows())
	}
	var buf bytes.Buffer
	if err := Write(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 || back.Schema.Arity() != 3 {
		t.Errorf("zero-row round trip: %v, %d rows", back.Schema, back.NumRows())
	}
}

// TestQuotedSeparatorsAndQuotes: quoted cells carrying the separator,
// embedded quotes, and newlines stay one cell, and the round trip
// re-quotes them correctly.
func TestQuotedSeparatorsAndQuotes(t *testing.T) {
	in := "name,note\n\"a,b\",\"he said \"\"hi\"\"\"\n\"line1\nline2\",plain\n"
	tb, err := Read("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tb.NumRows())
	}
	if got := tb.Rows[0][0].Str(); got != "a,b" {
		t.Errorf("quoted separator: %q", got)
	}
	if got := tb.Rows[0][1].Str(); got != `he said "hi"` {
		t.Errorf("escaped quotes: %q", got)
	}
	if got := tb.Rows[1][0].Str(); got != "line1\nline2" {
		t.Errorf("quoted newline: %q", got)
	}
	var buf bytes.Buffer
	if err := Write(tb, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.EqualBag(back) {
		t.Errorf("quoted round trip changed table:\n%s\nvs\n%s", tb, back)
	}
}

// TestWhitespaceAndSpelledNulls: leading whitespace trims, and the NULL
// spellings are case-insensitive.
func TestWhitespaceAndSpelledNulls(t *testing.T) {
	tb, err := Read("t", strings.NewReader("a,b,c\n  7 , NULL ,  True\n"))
	if err != nil {
		t.Fatal(err)
	}
	r := tb.Rows[0]
	if r[0].Kind() != types.KindInt || r[0].Int() != 7 {
		t.Errorf("trimmed int: %v", r[0])
	}
	if !r[1].IsNull() {
		t.Errorf("NULL spelling: %v", r[1])
	}
	if r[2].Kind() != types.KindBool || !r[2].Bool() {
		t.Errorf("trimmed bool: %v", r[2])
	}
}

// TestWriteColumnsWriteResultParity pins that every CSV write path — the
// boxed row loop (Write) and the vector-direct loop (WriteResult,
// WriteColumns) — emits byte-identical output over
// an adversarial value set: NULLs in typed and boxed columns, embedded
// separators / quotes / newlines, unicode, negative zero, large ints, and
// a mixed-kind column that forces the boxed vector arm. The -connect CSV
// path renders through WriteColumns, the one-shot path through WriteResult;
// any drift between them is a user-visible difference for the same query.
func TestWriteColumnsWriteResultParity(t *testing.T) {
	schema := types.NewSchema("res", "i", "f", "s", "b", "mixed")
	rows := [][]types.Value{
		{types.NewInt(1), types.NewFloat(2.5), types.NewString("plain"), types.NewBool(true), types.NewInt(7)},
		{types.Null(), types.Null(), types.Null(), types.Null(), types.Null()},
		{types.NewInt(-9007199254740993), types.NewFloat(math.Copysign(0, -1)), types.NewString("a,b"), types.NewBool(false), types.NewString("x")},
		{types.NewInt(0), types.NewFloat(1e300), types.NewString(`quote " inside`), types.NewBool(true), types.NewFloat(0.25)},
		{types.NewInt(42), types.NewFloat(0.1), types.NewString("line\nbreak"), types.NewBool(false), types.NewBool(true)},
		{types.NewInt(-1), types.NewFloat(-2.25), types.NewString("héllo, wörld — ünïcode"), types.NewBool(true), types.NewInt(-3)},
		{types.NewInt(8), types.NewFloat(3.5), types.NewString("null"), types.NewBool(false), types.NewString("it's; fine\ttab")},
	}

	tbl := engine.NewTable(schema)
	for _, r := range rows {
		tbl.Append(r)
	}
	cols := vector.FromRows(rows, schema.Arity())
	// The fixture must actually cover both vector representations.
	if _, boxed := cols.Vecs[4].(*vector.ValueVector); !boxed {
		t.Fatalf("mixed column built %T, want the boxed fallback", cols.Vecs[4])
	}
	if _, typed := cols.Vecs[0].(*vector.Int64Vector); !typed {
		t.Fatalf("int column built %T, want *vector.Int64Vector", cols.Vecs[0])
	}

	outputs := map[string]string{}
	var buf bytes.Buffer
	if err := Write(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	outputs["Write(table)"] = buf.String()

	buf.Reset()
	if err := WriteResult(physical.NewColumnarResult(schema, cols), &buf); err != nil {
		t.Fatal(err)
	}
	outputs["WriteResult(columns)"] = buf.String()

	buf.Reset()
	if err := WriteColumns(schema.Attrs, cols, &buf); err != nil {
		t.Fatal(err)
	}
	outputs["WriteColumns"] = buf.String()

	want := outputs["Write(table)"]
	for name, got := range outputs {
		if got != want {
			t.Errorf("%s diverges from Write(table):\n got: %q\nwant: %q", name, got, want)
		}
	}

	// The adversarial cells survive a CSV round-trip, proving the quoting
	// actually engaged (not just matched between writers).
	back, err := Read("res", strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != len(rows) {
		t.Fatalf("round-trip rows = %d, want %d", back.NumRows(), len(rows))
	}
	if got := back.Rows[4][2].Str(); got != "line\nbreak" {
		t.Errorf("embedded newline round-tripped as %q", got)
	}
	if got := back.Rows[5][2].Str(); got != "héllo, wörld — ünïcode" {
		t.Errorf("unicode cell round-tripped as %q", got)
	}
	if got := back.Rows[3][2].Str(); got != `quote " inside` {
		t.Errorf("embedded quote round-tripped as %q", got)
	}
	// NULL spelling: every writer renders NULL as the empty cell, which
	// reads back as NULL; the string "null" is indistinguishable by design
	// (parseCell folds it) — pinned so a future spelling change shows up.
	if !back.Rows[1][0].IsNull() || !back.Rows[1][2].IsNull() {
		t.Error("empty cells must read back as NULL")
	}
	if !back.Rows[6][2].IsNull() {
		t.Error(`the literal string "null" reads back as NULL (documented lossy spelling)`)
	}
}

// TestWriteColumnsZeroRows: a zero-row columnar result (typed or boxed
// empties) writes a header and nothing else, on both columnar paths.
func TestWriteColumnsZeroRows(t *testing.T) {
	schema := types.NewSchema("res", "a", "b")
	for name, cols := range map[string]*vector.Columns{
		"typed": {N: 0, Vecs: []vector.Vector{
			vector.NewInt64Vector(nil, nil), vector.NewStringVector(nil, nil)}},
		"boxed": vector.FromRows(nil, 2),
	} {
		var buf bytes.Buffer
		if err := WriteColumns(schema.Attrs, cols, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := buf.String(); got != "a,b\n" {
			t.Errorf("%s: zero-row output = %q, want header only", name, got)
		}
		buf.Reset()
		if err := WriteResult(physical.NewColumnarResult(schema, cols), &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := buf.String(); got != "a,b\n" {
			t.Errorf("%s: WriteResult zero-row output = %q, want header only", name, got)
		}
	}
}
