package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/physical"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/vector"
)

// Child span names of the decomposed replay: one per public call on the
// path a query takes through the packages.
const (
	spanAdmission = "admission.wait"
	spanParse     = "sql.parse"
	spanPlan      = "rewrite.plan"
	spanAttrPlan  = "rewrite.attr_plan"
	spanOptimize  = "physical.optimize"
	spanLower     = "physical.lower"
	spanDrain     = "physical.drain"
	spanEncode    = "vector.wire_encode"
	spanDecode    = "vector.wire_decode"
)

// tracedPass replays the first ops of client 0's seeded stream three
// times, each for at most budget ops: whole (one root span around the real
// call, under the workload's real contention), in-process (one root span
// around Frontend.Query, for the server workloads), and decomposed (a child
// span around each public call, see decompose).
func (e *env) tracedPass(tr *tracer, ops int) error {
	stream := e.streams[0]
	for i := 0; i < ops; i++ {
		s := tr.begin(spanRoot, -1, i)
		err := e.runOp(0, stream[i%len(stream)], nil, true)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("traced op %d: %w", i, err)
		}
	}
	var adm *physical.Admission
	if e.heavy != nil {
		// The decomposed replay brings its own contention: an in-process
		// heavy loop on a private admission controller of the same budget.
		e.heavy.stop()
		adm = physical.NewAdmission(e.w.budget)
		stop := e.inprocHeavy(adm)
		defer stop()
	}
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		o := stream[i%len(stream)]
		if e.srv != nil {
			s := tr.begin(spanInproc, -1, i)
			for _, qi := range o {
				if _, err := e.front.Query(ctx, e.queries.list[qi].sql, e.opts); err != nil {
					return err
				}
			}
			tr.end(s)
		}
		if err := e.decompose(tr, i, o, adm); err != nil {
			return fmt.Errorf("decomposed op %d: %w", i, err)
		}
	}
	return nil
}

// inprocHeavy loops the heavy query in this process under grants from adm,
// the way the server runs it, until the returned stop function is called.
func (e *env) inprocHeavy(adm *physical.Admission) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < heavyInFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				grant, err := adm.Acquire(ctx, e.w.ask)
				if err != nil {
					return
				}
				opts := e.opts
				opts.Gov, opts.SpillDir = grant.Gov(), e.spillDir
				_, err = e.front.Query(ctx, e.heavy.sql, opts)
				grant.Release()
				if err != nil {
					return
				}
			}
		}()
	}
	return func() { cancel(); wg.Wait() }
}

// decompose runs one op in-process as the sequence of public calls the
// frontend and the server make for it, with a child span around each:
// admission (governed servers only) → parse → plan → optimize → lower →
// drain → wire encode → wire decode (server workloads only). Plans are
// built fresh, as on a plan-cache miss.
func (e *env) decompose(tr *tracer, opID int, o op, adm *physical.Admission) error {
	root := tr.begin(spanDecomposed, -1, opID)
	defer tr.end(root)
	for _, qi := range o {
		if err := e.decomposeQuery(tr, root, opID, &e.queries.list[qi], adm); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) decomposeQuery(tr *tracer, root, opID int, q *query, adm *physical.Admission) error {
	ctx := context.Background()
	opt := physical.Options{DOP: e.w.dop, Fuse: true, Gov: physical.NewMemGovernor(0)}
	cat, planSpan := e.front.Enc, spanPlan
	if e.w.attr {
		cat, planSpan = e.front.AEnc, spanAttrPlan
	}
	var (
		grant  *physical.Grant
		stmt   *sql.SelectStmt
		plan   algebra.Node
		oper   physical.Operator
		res    *physical.Result
		vecs   []vector.Vector
		frames [][]byte
	)
	type step struct {
		span string
		run  func() error
	}
	var steps []step
	if adm != nil {
		steps = append(steps, step{spanAdmission, func() (err error) {
			if grant, err = adm.Acquire(ctx, e.w.ask); err == nil {
				opt.Gov, opt.SpillDir = grant.Gov(), e.spillDir
			}
			return err
		}})
	}
	steps = append(steps,
		step{spanParse, func() (err error) {
			stmt, err = sql.Parse(q.sql)
			return err
		}},
		step{planSpan, func() error {
			var p interface{}
			var err error
			if e.w.attr {
				p, err = e.front.PlanAttr(stmt)
			} else {
				p, err = e.front.Plan(stmt)
			}
			if err == nil {
				plan = p.(algebra.Node)
			}
			return err
		}},
		step{spanOptimize, func() error {
			optimizable, err := physical.Validate(plan)
			if err == nil && optimizable {
				plan = physical.Optimize(plan)
			}
			return err
		}},
		step{spanLower, func() (err error) {
			opt.Gov.Bind(ctx)
			oper, err = physical.LowerOpts(plan, cat, opt)
			return err
		}},
		step{spanDrain, func() (err error) {
			if res, err = physical.DrainColumnsContext(ctx, oper); err == nil && res.NumRows() != q.want {
				err = fmt.Errorf("%d rows, set-up answer had %d", res.NumRows(), q.want)
			}
			return err
		}},
	)
	if e.srv != nil {
		steps = append(steps,
			// Like the server's stream, encoding starts by columnarizing a
			// result the engine handed over as rows.
			step{spanEncode, func() error {
				if cols := res.Cols(); cols != nil {
					vecs = cols.Vecs
				} else {
					vecs = vector.FromRows(res.Rows(), len(res.Schema.Attrs)).Vecs
				}
				frames = encodeChunks(uint64(opID), vecs, res.NumRows())
				return nil
			}},
			step{spanDecode, func() error {
				n, err := decodeChunks(frames, len(vecs))
				if err == nil && n != res.NumRows() {
					err = fmt.Errorf("decoded %d rows of %d", n, res.NumRows())
				}
				return err
			}},
		)
	}
	defer func() {
		if grant != nil {
			grant.Release() // held, like the server's, until the answer is out
		}
	}()
	for _, st := range steps {
		s := tr.begin(st.span, root, opID)
		err := st.run()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s of %q: %w", st.span, q.sql, err)
		}
	}

	for _, name := range q.tables {
		tr.Counts["rows_in"] += int64(cat.Get(name).NumRows())
	}
	tr.Counts["rows_out"] += int64(res.NumRows())
	tr.Counts["output_cols"] += int64(len(res.Schema.Attrs))
	tr.Counts["queries"]++
	for _, f := range frames {
		tr.Counts["wire_bytes"] += int64(len(f))
	}
	tr.Counts["wire_chunks"] += int64(len(frames))
	return nil
}

// encodeChunks cuts a result into column-chunk frames the way the server's
// stream does for fixed-width columns: as many rows as fit the chunk byte
// target, capped at the chunk row limit. (The server also walks string
// columns row by row; the workloads' string results are a few rows.)
func encodeChunks(id uint64, vecs []vector.Vector, n int) [][]byte {
	rows := server.WireChunkRows
	if len(vecs) > 0 && server.WireChunkBytes/(8*len(vecs)) < rows {
		rows = server.WireChunkBytes / (8 * len(vecs))
	}
	var frames [][]byte
	for lo := 0; lo < n; lo += rows {
		hi := min(lo+rows, n)
		window := make([]vector.Vector, len(vecs))
		for j, v := range vecs {
			window[j] = v.Slice(lo, hi)
		}
		frames = append(frames, server.EncodeColChunk(id, uint64(len(frames)), window))
	}
	return frames
}

// decodeChunks is the client's side: decode every frame, then concatenate
// each column's parts. It returns the reassembled row count.
func decodeChunks(frames [][]byte, ncols int) (int, error) {
	parts := make([][]vector.Vector, ncols)
	for _, f := range frames {
		_, _, _, cols, err := server.DecodeColChunk(f)
		if err != nil {
			return 0, err
		}
		if len(cols) != ncols {
			return 0, fmt.Errorf("chunk has %d columns, want %d", len(cols), ncols)
		}
		for j, c := range cols {
			parts[j] = append(parts[j], c)
		}
	}
	n := 0
	for j := range parts {
		if len(parts[j]) > 0 {
			n = vector.Concat(parts[j]).Len()
		}
	}
	return n, nil
}
