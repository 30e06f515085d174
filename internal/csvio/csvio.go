// Package csvio loads and stores engine tables as CSV files with header
// rows, inferring column types (integer, float, string; empty cells are
// NULL). It backs the uadb command-line tool and the runnable examples.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// Load reads a CSV file (first row = attribute names) into a table named
// name.
func Load(name, path string) (*engine.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(name, f)
}

// Read parses CSV content from r.
func Read(name string, r io.Reader) (*engine.Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	attrs := make([]string, len(header))
	for i, h := range header {
		attrs[i] = strings.TrimSpace(h)
	}
	t := engine.NewTable(types.Schema{Name: name, Attrs: attrs})
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: %w", err)
		}
		row := make([]types.Value, len(rec))
		for i, cell := range rec {
			row[i] = parseCell(cell)
		}
		t.Append(row)
	}
	return t, nil
}

func parseCell(cell string) types.Value {
	s := strings.TrimSpace(cell)
	if s == "" || strings.EqualFold(s, "null") {
		return types.Null()
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return types.NewInt(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return types.NewFloat(f)
	}
	if strings.EqualFold(s, "true") {
		return types.NewBool(true)
	}
	if strings.EqualFold(s, "false") {
		return types.NewBool(false)
	}
	return types.NewString(s)
}

// Write stores the table as CSV (values rendered with Value.String; NULLs
// become empty cells).
func Write(t *engine.Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema.Attrs); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteResult streams a query result as CSV straight from its vectors —
// per-kind cell rendering with no boxed Value in between. The bytes are
// identical to Write over the materialized rows: the typed arms mirror
// Value.String exactly (strconv.FormatInt; FormatFloat 'g' -1;
// "true"/"false"; raw strings) and NULLs become empty cells either way.
func WriteResult(res *physical.Result, w io.Writer) error {
	return WriteColumns(res.Schema.Attrs, res.Cols(), w)
}

// WriteColumns streams a set of result columns as CSV — header row, then
// one record per row rendered straight off the vectors. It is the common
// tail of WriteResult and of the remote client path, where the wire decoder
// hands over vector.Columns without a physical.Result around them.
func WriteColumns(attrs []string, cols *vector.Columns, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(attrs); err != nil {
		return err
	}
	rec := make([]string, len(cols.Vecs))
	for i := 0; i < cols.N; i++ {
		for j, vec := range cols.Vecs {
			rec[j] = renderCell(vec, i)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// renderCell renders one vector element as Write would render the boxed
// Value: "" for NULL, Value.String otherwise, with unboxed fast paths for
// the typed vectors.
func renderCell(vec vector.Vector, i int) string {
	if vec.Null(i) {
		return ""
	}
	switch tv := vec.(type) {
	case *vector.Int64Vector:
		return strconv.FormatInt(tv.Vals[i], 10)
	case *vector.Float64Vector:
		return strconv.FormatFloat(tv.Vals[i], 'g', -1, 64)
	case *vector.StringVector:
		return tv.Vals[i]
	case *vector.BoolVector:
		if tv.Vals[i] {
			return "true"
		}
		return "false"
	default:
		return vec.Value(i).String()
	}
}

// Save writes the table to a file.
func Save(t *engine.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(t, f)
}
