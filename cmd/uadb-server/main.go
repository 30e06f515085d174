// Command uadb-server is the UA-DB middleware as a long-lived multi-session
// query server. It loads CSV tables once, then serves UA-SQL over TCP with
// the wire protocol of internal/server (4-byte length-prefixed frames,
// protocol version 3): a client opens its session with a hello listing the
// "colbin" encoding and receives query results as chunked binary column
// frames — header, CRC-checked column chunks, trailer. A client that sends
// no hello, or one without colbin, gets an explicit error frame instead of
// results. Each connection is a session with its own execution options
// (set op) and prepared statements, all sessions share one catalog and one
// plan cache, and -mem-budget is a server-wide memory budget — concurrent
// queries are admission-controlled so the sum of their grants never exceeds
// it, queueing (not failing) when the server is saturated and spilling
// within their grants exactly as one-shot -mem-budget queries would.
//
//	uadb-server -listen :7483 -table addr=addr.csv -table loc=loc.csv \
//	            -mem-budget 256M -query-budget 32M
//
// -dop and -attr-bounds set the session defaults a client inherits until it
// sends its own (per-session set requests override per query run).
// -query-budget is the default admission ask per query (default: a quarter
// of the global budget); a plan of only scans, filters and projections
// takes no grant and never queues. SIGINT/SIGTERM trigger a graceful
// shutdown: the listener closes, running queries drain (10s grace), then
// stragglers are cancelled and their spill files cleaned.
//
// The Go client for this protocol is repro/internal/server/client.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/physical"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uadb-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("uadb-server", flag.ContinueOnError)
	tables := cliutil.RegisterTables(fs)
	exec := cliutil.ExecFlagSpec{
		BudgetUsage: "server-wide memory budget shared by all concurrent queries, e.g. 256M (empty or 0 = unlimited)",
	}.Register(fs)
	listen := fs.String("listen", "127.0.0.1:7483", "TCP address to listen on")
	queryBudget := fs.String("query-budget", "", "default admission ask per query, e.g. 32M (empty = a quarter of -mem-budget)")
	spillDir := fs.String("spill-dir", "", "directory for spill runs (empty = system temp)")
	planCache := fs.Int("plan-cache", 0, "shared plan-cache entries (0 = default size, negative = disable)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period before in-flight queries are cancelled")
	if err := fs.Parse(args); err != nil {
		return err
	}

	front, err := cliutil.NewFrontend(*tables, exec)
	if err != nil {
		return err
	}
	global := front.Opts.MemBudget
	front.Opts.MemBudget = 0 // the global budget is the server's, not a per-query default
	qb, err := physical.ParseByteSize(*queryBudget)
	if err != nil {
		return fmt.Errorf("-query-budget: %w", err)
	}

	srv := server.New(server.Config{
		Front:        front,
		GlobalBudget: global,
		QueryBudget:  qb,
		SpillDir:     *spillDir,
		PlanCache:    *planCache,
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "uadb-server: listening on %s (budget %s)\n",
			*listen, budgetString(global))
		errc <- srv.ListenAndServe(*listen)
	}()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "uadb-server: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "uadb-server: forced shutdown:", err)
		}
		return <-errc
	}
}

func budgetString(b int64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d bytes", b)
}
