// Command uadb is the UA-DB middleware as a command-line tool: load CSV
// tables, issue UA-SQL queries (including the model annotations IS TI /
// IS X / IS CTABLE of Section 9.2), and read results whose last column marks
// each row certain (1) or uncertain (0).
//
//	uadb -table addr=addr.csv -table loc=loc.csv \
//	     -query "SELECT a.id, l.state FROM addr a, loc l WHERE ..."
//
// Plain CSV tables are treated as deterministic (every row certain). Tables
// referenced with a model annotation in the query are read from the same
// -table set and encoded on the fly. With no -query, queries are read from
// stdin, one per line (exit with an empty line or EOF). -dop sets how many
// workers an aggregate over a table folds on (0 = one per CPU, 1 =
// serial) — the engine's only parallel operator; fused chains and probes are serial.
// -mem-budget caps each query's pipeline-breaker working set (e.g. "64M",
// "2G", or plain bytes; 0 = unlimited): sorts, aggregates, and join builds
// that exceed the budget spill to temp files and stream back, so one big
// GROUP BY or join cannot OOM the process. -csv streams results as CSV in
// engine order, straight from the columnar result sink when the plan
// produces one (no boxed result rows at all).
//
// With -connect host:port the tool runs the same query loop against a
// running uadb-server instead of loading tables locally: results arrive in
// the server's binary columnar encoding, -dop / -mem-budget / -attr-bounds
// become session options, and -csv streams straight off the decoded wire
// columns.
//
// For a long-lived multi-session surface over the same engine, see
// cmd/uadb-server.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/csvio"
	"repro/internal/engine"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "uadb:", err)
		os.Exit(1)
	}
}

// run is the whole CLI behind a testable seam: flags in args, queries from
// stdin when -query is absent, results on stdout. Per-query execution errors
// are reported inline on stderr and do not abort the session; setup errors
// return.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("uadb", flag.ContinueOnError)
	tables := cliutil.RegisterTables(fs)
	exec := cliutil.RegisterExec(fs)
	query := fs.String("query", "", "UA-SQL query; omit to read from stdin")
	explain := fs.Bool("explain", false, "print the rewritten logical plan instead of executing")
	csvOut := fs.Bool("csv", false, "stream results as CSV (unsorted engine order, straight from the columnar result sink when the plan allows)")
	connect := fs.String("connect", "", "query a running uadb-server at this address instead of loading tables locally (results arrive as binary column chunks when the server speaks them)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect != "" {
		return runRemote(*connect, *tables, exec, *query, *explain, *csvOut, stdin, stdout, stderr)
	}
	front, err := cliutil.NewFrontend(*tables, exec)
	if err != nil {
		return err
	}

	if *explain && *query != "" {
		plan, err := front.Explain(*query)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, plan)
		return nil
	}
	if *query != "" {
		runQuery(front, *query, *csvOut, stdout, stderr)
		return nil
	}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(stdout, "uadb> enter queries, empty line to quit")
	for {
		fmt.Fprint(stdout, "uadb> ")
		if !sc.Scan() {
			return nil
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			return nil
		}
		runQuery(front, line, *csvOut, stdout, stderr)
	}
}

// runRemote is the -connect mode: the same query loop, but over a running
// uadb-server. Results arrive as binary columns, so CSV output streams
// straight off the decoded wire columns.
func runRemote(addr string, tables cliutil.TableFlags, exec *cliutil.ExecFlags, query string, explain, csvOut bool, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(tables) > 0 {
		return fmt.Errorf("-table loads local CSVs and cannot be combined with -connect (the server owns the catalog)")
	}
	if explain {
		return fmt.Errorf("-explain runs locally and cannot be combined with -connect")
	}
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	var opts server.SessionOpts
	if dop := exec.DOP(); dop != 0 {
		opts.DOP = &dop
	}
	if mb := exec.MemBudgetRaw(); mb != "" {
		opts.MemBudget = &mb
	}
	if ab := exec.AttrBounds(); ab {
		opts.AttrBounds = &ab
	}
	if opts != (server.SessionOpts{}) {
		if err := c.Set(opts); err != nil {
			return err
		}
	}

	if query != "" {
		remoteQuery(c, query, csvOut, stdout, stderr)
		return nil
	}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintf(stdout, "uadb> connected to %s (%s results), empty line to quit\n", addr, c.Encoding())
	for {
		fmt.Fprint(stdout, "uadb> ")
		if !sc.Scan() {
			return nil
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			return nil
		}
		remoteQuery(c, line, csvOut, stdout, stderr)
	}
}

func remoteQuery(c *client.Client, q string, csvOut bool, stdout, stderr io.Writer) {
	res, err := c.Query(q)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return
	}
	if csvOut {
		// Columns() is the decoded wire chunks themselves on a colbin
		// session; no result row is boxed on the way to the CSV writer.
		if err := csvio.WriteColumns(res.Schema, res.Columns(), stdout); err != nil {
			fmt.Fprintln(stderr, "error:", err)
		}
		return
	}
	tbl := engine.NewTable(types.NewSchema("", res.Schema...))
	for _, row := range res.Rows() {
		tbl.Append(row)
	}
	fmt.Fprint(stdout, tbl)
	fmt.Fprintf(stdout, "(%d rows)\n", tbl.NumRows())
}

func runQuery(front *rewrite.Frontend, q string, csvOut bool, stdout, stderr io.Writer) {
	res, err := front.Query(context.Background(), q, front.Opts)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return
	}
	if csvOut {
		// CSV mode streams straight from the columnar result sink: when the
		// plan produces vectors, no result row is ever boxed on the way out.
		if err := csvio.WriteResult(res, stdout); err != nil {
			fmt.Fprintln(stderr, "error:", err)
		}
		return
	}
	tbl := engine.ResultTable(res)
	fmt.Fprint(stdout, tbl)
	fmt.Fprintf(stdout, "(%d rows)\n", tbl.NumRows())
}
