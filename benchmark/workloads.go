package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/kdb"
	"repro/internal/models"
	"repro/internal/pdbench"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/uadb"
)

// workload is one named traffic mix. The names and the one-line reasons are
// the benchmark's contract (BENCHMARK.json repeats them); all sessions run
// fused pipelines, and all load is closed-loop from this process.
type workload struct {
	name, why string
	clients   int  // measured closed-loop clients, at most nproc
	dop       int  // 0 = GOMAXPROCS, 1 = serial
	attr      bool // sessions run in attribute-bounds (AU-DB) mode
	server    bool // drive a loopback uadb-server, not the in-process frontend
	budget    int64
	ask       int64  // mem_budget in bytes every session asks for under the budget
	heavy     string // SQL the convoy's background client loops
	warmOps   int    // warm-up ops per client, part of set-up
	traceOps  int    // ops of the seeded stream the traced pass replays
	build     func(seed int64, st *setupTimes) (*dataset, error)
}

const (
	lookupClients    = 2 // = nproc: the generator, the server and the engine share two cores
	planCacheEntries = 256
	convoyBudget     = 3 << 19 // 1.5 MiB
	convoyAsk        = 1 << 20 // two 1 MiB asks never fit 1.5 MiB together
)

var workloads = []*workload{
	{
		name: "pdbench-inproc",
		why: "Paper Fig. 11: PDBench Q1-Q3, UA vs deterministic twin, in-process; physical execution does the work, " +
			"server/wire/spill none.",
		clients: 1, dop: 0, warmOps: 20, traceOps: 200, build: buildPDBench,
	},
	{
		name: "lookup-short",
		why: "Many-users traffic: 4 tiny Zipf-keyed templates, 2 loopback clients; per-query fixed cost " +
			"(parse, plan cache, optimize, lower, 3 frames) dominates.",
		clients: lookupClients, dop: 1, server: true, warmOps: 1500, traceOps: 200, build: buildLookup,
	},
	{
		name: "bulk-stream",
		why: "Data plane: one client streams a 200k-row x 4-column result as colbin chunks; wire codec, framing, TCP " +
			"and reassembly do the work, the engine little.",
		clients: 1, dop: 1, server: true, warmOps: 10, traceOps: 50, build: buildBulk,
	},
	{
		name: "convoy-spill",
		why: "Admission: a victim's short lookups queue strict-FIFO behind two in-flight spilling ORDER BYs under a " +
			"1.5 MiB global budget; queueing and spilling sort do the work.",
		clients: 1, dop: 1, server: true, budget: convoyBudget, ask: convoyAsk,
		heavy:   fmt.Sprintf("SELECT k, v, pad FROM sortme WHERE k < %d ORDER BY v", heavySortRows),
		warmOps: 20, traceOps: 200, build: buildConvoy,
	},
	{
		name: "audb-aggregate",
		why: "Attribute bounds: grouped SUM/COUNT/MAX and a global SUM over AU-encoded lineitem; the only aggregate path, " +
			"3k+2-column plans and fused aggregation.",
		clients: 1, dop: 0, attr: true, server: true, warmOps: 15, traceOps: 200, build: buildAUDB,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// dataset is what a workload's build step hands the rest of set-up: the
// program's frontend over the generated tables, and the queries to send.
type dataset struct {
	front *rewrite.Frontend
	// det is the deterministic best-guess catalog for the workloads that
	// have a deterministic twin, nil otherwise.
	det     *engine.Catalog
	queries querySet
	streams [][]op // one per measured client
}

// setupTimes splits setup_s, so work moved into set-up or a cache shows.
type setupTimes struct {
	gen, encode, warm, total time.Duration
}

// mirror builds every table's columnar mirror now, so set-up pays for it
// and the first measured query does not.
func mirror(cat *engine.Catalog) {
	for _, name := range cat.Names() {
		cat.Get(name).Columns()
	}
}

// compact moves every table's rows into one backing array per table, in
// order. The repository's encoders allocate each row on its own, so where
// the rows land depends on what the heap held before; row-at-a-time
// operators (joins) then ran up to 10 % faster or slower for a whole set-up.
// A loaded table is contiguous, and the generators' own tables already are.
func compact(cat *engine.Catalog) {
	for _, name := range cat.Names() {
		t := cat.Get(name)
		arity := t.Schema.Arity()
		slab := make([]types.Value, len(t.Rows)*arity)
		for i, row := range t.Rows {
			dst := slab[i*arity : (i+1)*arity : (i+1)*arity]
			copy(dst, row)
			t.Rows[i] = dst
		}
	}
}

// frontendOf registers already UA-encoded tables: the generators emit the
// certainty column themselves, so the encode step is the catalog and the
// columnar mirrors.
func frontendOf(tables ...*engine.Table) *rewrite.Frontend {
	cat := engine.NewCatalog()
	for _, t := range tables {
		cat.Put(t)
	}
	mirror(cat)
	return rewrite.NewFrontend(cat)
}

// timed runs f and adds its duration to *d.
func timed(d *time.Duration, f func()) {
	t := time.Now()
	f()
	*d += time.Since(t)
}

var pdbenchTables = map[string][]string{
	"Q1": {"customer", "orders", "lineitem"},
	"Q2": {"lineitem"},
	"Q3": {"customer", "orders", "nation"},
}

func buildPDBench(seed int64, st *setupTimes) (*dataset, error) {
	var xdb map[string]*models.XRelation
	timed(&st.gen, func() { xdb = genPDBench(seed, pdbenchSF) })
	d := &dataset{}
	timed(&st.encode, func() {
		uaDB := kdb.NewDatabase[semiring.Pair[int64]](semiring.UA[int64](semiring.Nat))
		for _, x := range xdb {
			uaDB.Put(uadb.FromXDB(x))
		}
		d.front = rewrite.NewFrontend(rewrite.EncodeUADatabase(uaDB))
		d.det = rewrite.DetCatalog(uaDB)
		for _, cat := range []*engine.Catalog{d.front.Enc, d.det} {
			compact(cat)
			mirror(cat)
		}
	})
	var round op
	for _, q := range pdbench.Queries() {
		round = append(round, d.queries.add(q.SQL, pdbenchTables[q.Name]...))
	}
	d.streams = [][]op{{round}}
	return d, nil
}

func buildLookup(seed int64, st *setupTimes) (*dataset, error) {
	var tables []*engine.Table
	timed(&st.gen, func() { tables = genEvents(seed) })
	d := &dataset{}
	timed(&st.encode, func() { d.front = frontendOf(tables...) })
	for c := 0; c < lookupClients; c++ {
		d.streams = append(d.streams, lookupStream(seed, c, lookupTemplates, &d.queries))
	}
	return d, nil
}

func buildBulk(seed int64, st *setupTimes) (*dataset, error) {
	var big *engine.Table
	timed(&st.gen, func() { big = genBig(seed) })
	d := &dataset{}
	timed(&st.encode, func() { d.front = frontendOf(big) })
	q := d.queries.add(fmt.Sprintf("SELECT k, k + g AS kg, v FROM big WHERE k < %d", bigRows/2), "big")
	d.streams = [][]op{{{q}}}
	return d, nil
}

func buildConvoy(seed int64, st *setupTimes) (*dataset, error) {
	var tables []*engine.Table
	timed(&st.gen, func() { tables = append(genEvents(seed), genSort(seed)) })
	d := &dataset{}
	timed(&st.encode, func() { d.front = frontendOf(tables...) })
	// The victim sends lookup-short's key-range template.
	d.streams = [][]op{lookupStream(seed, 0, lookupTemplates[:1], &d.queries)}
	return d, nil
}

var audbQueries = []string{
	`SELECT l_linenumber, SUM(l_extendedprice) AS revenue, COUNT(*) AS n, MAX(l_quantity) AS maxq
		FROM lineitem WHERE l_shipdate < 1200 GROUP BY l_linenumber`,
	`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_quantity < 24`,
}

func buildAUDB(seed int64, st *setupTimes) (*dataset, error) {
	var lineitem *models.XRelation
	timed(&st.gen, func() { lineitem = genPDBench(seed, audbSF)["lineitem"] })
	d := &dataset{}
	var err error
	timed(&st.encode, func() {
		var at *rewrite.AttrTable
		if at, err = rewrite.EncodeAttrX(lineitem); err != nil {
			return
		}
		d.front = rewrite.NewFrontend(engine.NewCatalog())
		d.front.PutAttrTable("lineitem", at)
		mirror(d.front.AEnc)
		d.det = engine.NewCatalog()
		d.det.Put(bestGuessWorld(at.Table))
		mirror(d.det)
	})
	if err != nil {
		return nil, err
	}
	var round op
	for _, sql := range audbQueries {
		round = append(round, d.queries.add(sql, "lineitem"))
	}
	d.streams = [][]op{{round}}
	return d, nil
}

// bestGuessWorld projects an AU-encoded table onto its best-guess spines,
// keeping the rows that exist in the best-guess world, in table order so
// float sums add up in the same order as the AU plan's.
func bestGuessWorld(au *engine.Table) *engine.Table {
	k := (au.Schema.Arity() - 2) / 3
	attrs := make([]string, k)
	for i := range attrs {
		attrs[i] = au.Schema.Attrs[3*i+1]
	}
	out := engine.NewTable(types.Schema{Name: au.Schema.Name, Attrs: attrs})
	for _, row := range au.Rows {
		if row[3*k+1].Int() != 1 {
			continue
		}
		bg := make([]types.Value, k)
		for i := range bg {
			bg[i] = row[3*i+1]
		}
		out.Rows = append(out.Rows, bg)
	}
	return out
}

// env is one set-up instance of a workload: the program under test, its
// clients, and the seeded op streams.
type env struct {
	w *workload
	*dataset
	opts     rewrite.QueryOpts // how the in-process twin runs a query
	srv      *server.Server
	served   chan error // Serve's return value
	clients  []*client.Client
	heavy    *heavyLoop
	spillDir string
	// soloMS is the victim's median latency before the heavy client
	// starts, the convoy's no-contention baseline.
	soloMS float64
	times  setupTimes

	errOnce sync.Once
	err     error // first op error, for the report
}

func (e *env) noteErr(err error) { e.errOnce.Do(func() { e.err = err }) }

// setUp builds the workload from the seed: generate, encode, start the
// server and its sessions, warm up. Its wall time is setup_s.
func setUp(w *workload, seed int64, outDir string) (e *env, err error) {
	start := time.Now()
	e = &env{w: w, opts: rewrite.QueryOpts{DOP: w.dop, Fuse: true, AttrBounds: w.attr}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.dataset, err = w.build(seed, &e.times); err != nil {
		return e, err
	}
	if len(e.streams) != w.clients {
		return e, fmt.Errorf("%d op streams for %d clients", len(e.streams), w.clients)
	}
	if w.server {
		if err = e.serve(outDir); err != nil {
			return e, err
		}
	}
	timed(&e.times.warm, func() { err = e.warm() })
	e.times.total = time.Since(start)
	return e, err
}

// serve starts the loopback server and one session per measured client,
// plus the heavy client's when the workload has one.
func (e *env) serve(outDir string) error {
	cfg := server.Config{Front: e.front, PlanCache: planCacheEntries, GlobalBudget: e.w.budget}
	if e.w.budget > 0 {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(outDir, "spill-")
		if err != nil {
			return err
		}
		e.spillDir, cfg.SpillDir = dir, dir
	}
	e.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for i := 0; i < e.w.clients; i++ {
		c, err := e.dial(ln.Addr().String())
		if err != nil {
			return err
		}
		e.clients = append(e.clients, c)
	}
	if e.w.heavy != "" {
		c, err := e.dial(ln.Addr().String())
		if err != nil {
			return err
		}
		e.heavy = &heavyLoop{c: c, sql: e.w.heavy}
	}
	return nil
}

func (e *env) dial(addr string) (*client.Client, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	if enc := c.Encoding(); enc != server.EncodingColBin {
		c.Close()
		return nil, fmt.Errorf("session negotiated %q, want %q", enc, server.EncodingColBin)
	}
	fuse := true
	opts := server.SessionOpts{DOP: &e.w.dop, Fuse: &fuse, AttrBounds: &e.w.attr}
	if e.w.ask > 0 {
		ask := strconv.FormatInt(e.w.ask, 10)
		opts.MemBudget = &ask
	}
	if err := c.Set(opts); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// warm runs each client's first warmOps ops unmeasured. The convoy's victim
// runs them alone first, which gives its solo latency, and again once the
// heavy client is looping.
func (e *env) warm() error {
	run := func() ([]time.Duration, error) {
		var lat []time.Duration
		for c, stream := range e.streams {
			for i := 0; i < e.w.warmOps; i++ {
				t := time.Now()
				if err := e.runOp(c, stream[i%len(stream)], nil, false); err != nil {
					return nil, err
				}
				lat = append(lat, time.Since(t))
			}
		}
		return lat, nil
	}
	lat, err := run()
	if err != nil || e.heavy == nil {
		return err
	}
	e.soloMS = median(msOf(lat))
	e.heavy.start()
	_, err = run()
	return err
}

// exec sends one query the way the workload's users do and returns the
// answer's row count.
func (e *env) exec(c int, sql string) (int, error) {
	if e.srv != nil {
		res, err := e.clients[c].Query(sql)
		if err != nil {
			return 0, err
		}
		return res.NumRows(), nil
	}
	res, err := e.front.Query(context.Background(), sql, e.opts)
	if err != nil {
		return 0, err
	}
	return res.NumRows(), nil
}

// runOp executes one op on client c. With check set, a row count that
// differs from the set-up answer is an error. per, when non-nil, receives
// each query's own duration.
func (e *env) runOp(c int, o op, per []time.Duration, check bool) error {
	for i, qi := range o {
		q := &e.queries.list[qi]
		t := time.Now()
		n, err := e.exec(c, q.sql)
		if per != nil {
			per[i] = time.Since(t)
		}
		if err != nil {
			return err
		}
		if check && n != q.want {
			return fmt.Errorf("%d rows, set-up answer had %d: %s", n, q.want, q.sql)
		}
	}
	return nil
}

// detExec runs one query's deterministic twin: the same SQL planned by the
// plain engine over the best-guess catalog.
func (e *env) detExec(sql string) (*physical.Result, error) {
	plan, err := engine.NewPlanner(e.det).PlanSQL(sql)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(e.det, physical.Options{DOP: e.w.dop, Fuse: true}).Execute(context.Background(), plan)
}

// detRound runs the deterministic twin of every query of an op.
func (e *env) detRound(o op, per []time.Duration) error {
	for i, qi := range o {
		t := time.Now()
		if _, err := e.detExec(e.queries.list[qi].sql); err != nil {
			return err
		}
		per[i] = time.Since(t)
	}
	return nil
}

// close stops the heavy client, the sessions and the server, and waits for
// each; for a governed server it then checks that nothing was leaked.
func (e *env) close() error {
	var errs []error
	if e.heavy != nil {
		e.heavy.stop()
	}
	if e.srv != nil && len(e.clients) > 0 && e.w.budget > 0 {
		if err := e.awaitIdle(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, c := range e.clients {
		c.Close()
	}
	if e.heavy != nil {
		e.heavy.c.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := e.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if e.served != nil {
			if err := <-e.served; err != nil {
				errs = append(errs, err)
			}
		}
	}
	if e.spillDir != "" {
		left, err := filepath.Glob(filepath.Join(e.spillDir, "*"))
		if err != nil || len(left) > 0 {
			errs = append(errs, fmt.Errorf("spill dir not empty after the run: %v %v", left, err))
		}
		os.RemoveAll(e.spillDir)
	}
	return errors.Join(errs...)
}

// awaitIdle checks that a governed server with no query in flight holds no
// grant and no governed bytes. The server releases a grant just after it
// writes the answer's last frame, so the counters are polled briefly.
func (e *env) awaitIdle() error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := e.clients[0].Stats()
		if err != nil {
			return err
		}
		if st.Granted == 0 && st.InUse == 0 && st.QueueLen == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("idle server holds granted=%d in_use=%d queued=%d", st.Granted, st.InUse, st.QueueLen)
		}
		time.Sleep(time.Millisecond)
	}
}

// heavyInFlight is how many heavy queries the background client keeps in
// flight on its one session. With two, a heavy query is always queued in
// admission when the victim's query completes, so strict FIFO serves the
// three requests round-robin and every victim op waits for exactly two heavy
// queries. With one, whether the victim's next request or the heavy client's
// reaches the queue first is a race, and the victim's median flips between
// "no wait" and "one heavy query" from run to run.
const heavyInFlight = 2

// heavyLoop is the convoy's background client: it re-sends one spilling
// query, heavyInFlight at a time, until stopped.
type heavyLoop struct {
	c    *client.Client
	sql  string
	quit chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	ops  int
	err  error
}

func (h *heavyLoop) start() {
	quit := make(chan struct{})
	h.quit = quit
	for i := 0; i < heavyInFlight; i++ {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			for {
				select {
				case <-quit:
					return
				default:
				}
				_, err := h.c.Query(h.sql)
				h.mu.Lock()
				h.ops++
				if err != nil && h.err == nil {
					h.err = err
				}
				h.mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
}

// stop ends the loop after its in-flight queries; calling it again, or
// before start, does nothing.
func (h *heavyLoop) stop() {
	if h.quit == nil {
		return
	}
	close(h.quit)
	h.wg.Wait()
	h.quit = nil
}

// count reports the completed heavy queries and the loop's error, if any.
func (h *heavyLoop) count() (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ops, h.err
}
