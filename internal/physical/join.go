package physical

import (
	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// Joins: every join, at every memory budget, is a pipeline's probe stage
// (see fused.go), running in O(|build| + |probe| + |output|). Open drains
// the build side into a columnar hash table (hashTable); Next expands the
// chain's passes against it (joinProbe). Output comes in probe order, and
// in build order within one probe row. NULL join keys never match. A keyed
// build that does not fit its budget runs as a grace join (graceJoin),
// which partitions columns and joins every partition through the same
// hashTable and joinProbe; only its spill files hold rows.

// hashTable is the build table of every hash join: the build side kept as
// columns, its rows linked in build order into one chain per distinct join
// key — heads[slot] is a key's first build row, next[r] the row after r
// with the same key, -1 the end — so a probe row's matches come out in the
// order the build saw them. NULL-keyed rows are left out of every chain.
// A single numeric key column keys on its joinWord, any other key on its
// byte key (appendVecJoinKey); both encodings agree on which keys are
// equal, so the choice never changes a result. The probe stage's table,
// the grace join's resident partitions (one table together) and each of its
// spilled partitions all build this one structure.
type hashTable struct {
	cols   *vector.Columns
	words  map[uint64]int32 // single numeric key column: join word -> slot
	bytes  map[string]int32 // any other key: byte key -> slot
	heads  []int32
	next   []int32
	keyBuf []byte
}

// buildHashTable drains the probe stage's opened build side into its hash
// table, copying batch columns as they arrive (vector.Append). Under a
// governor each batch is first reserved at its colsMemSize. A keyless
// build that does not fit stays resident as forced slack, having no key to
// partition on; a keyed one switches to the grace join (f.grace).
func (f *FusedPipeline) buildHashTable() error {
	p := f.Probe
	vecs := make([]vector.Vector, p.Build.Schema().Arity())
	n := 0
	for {
		b, err := p.Build.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if p.Mem != nil {
			bytes := colsMemSize(b.Cols(), b.Len())
			if !p.Mem.Reserve(bytes) {
				if len(p.EquiR) > 0 {
					// The grace join's partitions reserve what they hold.
					p.Mem.Release(f.held)
					f.held = 0
					f.grace = newGraceJoin(p, len(vecs), f.schema.Arity())
					return f.grace.build(vecs, n, b, p.Build)
				}
				p.Mem.Force(bytes)
			}
			f.held += bytes
		}
		for c, v := range b.Cols() {
			vecs[c] = vector.Append(vecs[c], v)
		}
		n += b.Len()
	}
	if n == 0 {
		for c := range vecs {
			vecs[c] = vector.NewValueVector(nil)
		}
	}
	table := newHashTable(&vector.Columns{N: n, Vecs: vecs}, p.EquiR)
	f.probe = newJoinProbe(table, p.EquiL, len(f.Projs), p.Residual)
	return nil
}

// newHashTable indexes cols on the key columns keys. Rows are chained from
// the last to the first, so every chain runs in build order.
func newHashTable(cols *vector.Columns, keys []int) *hashTable {
	t := &hashTable{cols: cols, next: make([]int32, cols.N), heads: make([]int32, 0, cols.N)}
	if len(keys) == 1 {
		switch v := cols.Vecs[keys[0]].(type) {
		case *vector.Int64Vector:
			t.words = make(map[uint64]int32, cols.N)
			for r := cols.N - 1; r >= 0; r-- {
				if !v.Null(r) {
					t.chain(r, t.wordSlot(joinWord(float64(v.Vals[r]))))
				}
			}
			return t
		case *vector.Float64Vector:
			t.words = make(map[uint64]int32, cols.N)
			for r := cols.N - 1; r >= 0; r-- {
				if !v.Null(r) {
					t.chain(r, t.wordSlot(joinWord(v.Vals[r])))
				}
			}
			return t
		}
	}
	t.bytes = make(map[string]int32)
	for r := cols.N - 1; r >= 0; r-- {
		key, ok := appendVecJoinKey(t.keyBuf[:0], cols.Vecs, r, keys)
		t.keyBuf = key
		if !ok {
			continue
		}
		slot, seen := t.bytes[string(key)]
		if !seen {
			slot = int32(len(t.heads))
			t.bytes[string(key)] = slot
		}
		t.chain(r, slot)
	}
	return t
}

// wordSlot returns the slot of key word w, opening a new one (the next
// index of heads) for a word not seen yet.
func (t *hashTable) wordSlot(w uint64) int32 {
	slot, seen := t.words[w]
	if !seen {
		slot = int32(len(t.heads))
		t.words[w] = slot
	}
	return slot
}

// chain puts build row r at the head of slot's chain; a slot index equal to
// len(heads) opens the slot.
func (t *hashTable) chain(r int, slot int32) {
	if int(slot) == len(t.heads) {
		t.heads = append(t.heads, -1)
	}
	t.next[r] = t.heads[slot]
	t.heads[slot] = int32(r)
}

// wordHead returns the first build row keyed by w, -1 for none.
func (t *hashTable) wordHead(w uint64) int32 {
	if slot, ok := t.words[w]; ok {
		return t.heads[slot]
	}
	return -1
}

// byteHead returns the first build row keyed by the byte key, -1 for none.
func (t *hashTable) byteHead(key []byte) int32 {
	if slot, ok := t.bytes[string(key)]; ok {
		return t.heads[slot]
	}
	return -1
}

// lookupVec appends to heads, for each of the n rows of a columnar probe
// batch, the first build row its key columns keys match (-1 for none: no
// match, or a NULL key).
func (t *hashTable) lookupVec(cols []vector.Vector, n int, keys []int, heads []int32) []int32 {
	if t.words == nil {
		for i := 0; i < n; i++ {
			key, ok := appendVecJoinKey(t.keyBuf[:0], cols, i, keys)
			t.keyBuf = key
			h := int32(-1)
			if ok {
				h = t.byteHead(key)
			}
			heads = append(heads, h)
		}
		return heads
	}
	switch v := cols[keys[0]].(type) {
	case *vector.Int64Vector:
		for i, x := range v.Vals[:n] {
			h := int32(-1)
			if !v.Null(i) {
				h = t.wordHead(joinWord(float64(x)))
			}
			heads = append(heads, h)
		}
	case *vector.Float64Vector:
		for i, x := range v.Vals[:n] {
			h := int32(-1)
			if !v.Null(i) {
				h = t.wordHead(joinWord(x))
			}
			heads = append(heads, h)
		}
	default: // a boxed column, or one that cannot hold numbers
		for i := 0; i < n; i++ {
			h := int32(-1)
			if x := v.Value(i); x.IsNumeric() {
				h = t.wordHead(joinWord(x.Float()))
			}
			heads = append(heads, h)
		}
	}
	return heads
}

// joinProbe expands probe batches against a hash table into output
// batches: the (probe row, build row) pairs of up to DefaultBatchSize
// matches, both sides' columns gathered at them. A residual's selection
// kernel first narrows the pairs, reading only its own columns gathered at
// the candidates, so every output column is gathered once, at the
// survivors.
type joinProbe struct {
	table    *hashTable
	keys     []int             // key positions in the probe columns
	residual *algebra.Compiled // nil: every match is emitted
	resCols  []int             // the output columns the residual reads

	cols       []vector.Vector // the probe batch being expanded
	heads      []int32         // per probe row, its first match (-1 none)
	pi         int             // next probe row to expand
	bi         int32           // next match of probe row pi-1, -1 none
	psel, bsel []int           // pairs of the batch being built
	sel        []int
	cand       []vector.Vector // the residual's columns at the candidate pairs
	out        Batch
}

// newJoinProbe prepares a probe of table keyed on the columns keys of a
// probe side with probeArity columns.
func newJoinProbe(table *hashTable, keys []int, probeArity int, residual algebra.Expr) joinProbe {
	p := joinProbe{table: table, keys: keys, bi: -1}
	if residual != nil {
		p.residual = algebra.Compile(residual)
		p.cand = make([]vector.Vector, probeArity+len(table.cols.Vecs))
		for c, used := range usedCols(len(p.cand), residual) {
			if used {
				p.resCols = append(p.resCols, c)
			}
		}
	}
	return p
}

// start begins expanding a probe batch of n rows. The columns must stay
// valid until next has returned nil.
func (p *joinProbe) start(cols []vector.Vector, n int) {
	p.cols = cols
	p.heads = p.table.lookupVec(cols, n, p.keys, p.heads[:0])
	p.pi, p.bi = 0, -1
}

// next returns the next output batch of the current probe batch, or nil
// once that batch is fully expanded.
func (p *joinProbe) next() *Batch {
	build := p.table.cols.Vecs
	for {
		p.psel, p.bsel = p.psel[:0], p.bsel[:0]
		for len(p.psel) < DefaultBatchSize {
			if p.bi < 0 {
				if p.pi >= len(p.heads) {
					break
				}
				p.bi = p.heads[p.pi]
				p.pi++
				continue
			}
			p.psel = append(p.psel, p.pi-1)
			p.bsel = append(p.bsel, int(p.bi))
			p.bi = p.table.next[p.bi]
		}
		if len(p.psel) == 0 {
			return nil
		}
		if p.residual != nil {
			for _, c := range p.resCols {
				if c < len(p.cols) {
					p.cand[c] = p.cols[c].Gather(p.psel)
				} else {
					p.cand[c] = build[c-len(p.cols)].Gather(p.bsel)
				}
			}
			p.sel = p.residual.SelectTruthyVec(p.cand, len(p.psel), p.sel[:0])
			if len(p.sel) == 0 {
				continue
			}
			// sel ascends, so the pairs narrow in place.
			for i, s := range p.sel {
				p.psel[i], p.bsel[i] = p.psel[s], p.bsel[s]
			}
			p.psel, p.bsel = p.psel[:len(p.sel)], p.bsel[:len(p.sel)]
		}
		out := make([]vector.Vector, len(p.cols)+len(build))
		for c, v := range p.cols {
			out[c] = v.Gather(p.psel)
		}
		for c, v := range build {
			out[len(p.cols)+c] = v.Gather(p.bsel)
		}
		p.out.SetCols(out, len(p.psel))
		return &p.out
	}
}

// graceJoin is the hybrid Grace hash join a keyed probe stage switches to
// when its build does not fit. It works on columns one DefaultBatchSize
// window at a time, and every partition joins through the probe stage's own
// hashTable and joinProbe; rows exist only where a partition or an output
// run is written to a spill file, or read back from one.
//
// Build rows are hash-partitioned on their join key (routeRows). A resident
// partition gathers its rows under reservation; under pressure the fattest
// is evicted to a temp file, and an evicted partition's later rows go
// straight to that file. The resident partitions then become one hash
// table: a key routes to exactly one partition, so a lookup there finds only
// its own partition's rows, in build order. The probe numbers every row of
// the chain's passes and probes each window, tagged [seq | probe row],
// against that table — a row of a spilled partition finds nothing in it —
// spooling the output, [seq | probe row | build row], to an output run;
// rows of spilled partitions go, tagged, to per-partition probe files.
// Spilled partitions join one at a time afterwards (re-split under a
// re-salted hash when one alone exceeds the budget), and Next streams the
// merge of the output runs by sequence number: exactly the in-memory probe
// order, so spilled and in-memory execution emit identical rows in
// identical order.
type graceJoin struct {
	mem       *MemGovernor
	sp        *spillSet
	equiR     []int
	probeKeys []int        // the probe keys in a [seq | probe row] tag
	residual  algebra.Expr // the residual over [seq | probe row | build row]
	arity     int          // the build side's columns
	width     int          // the output's columns
	tagArity  int          // the columns of a [seq | probe row] tag
	held      int64        // bytes reserved with mem, merge cursors' frames included
	parts     []gracePart
	table     *hashTable             // the resident partitions, until the probe is done
	sels      [SpillPartitions][]int // addBuild's scratch
	routes    []int                  // routeRows' scratch
	keyBuf    []byte
	row       []types.Value   // writeRow's scratch
	heap      *mergeHeap      // the output merge Next streams
	spine     [][]types.Value // the merged rows of the batch being emitted
	out       Batch
}

// gracePart is one hash partition of a grace join's build side: resident
// column chunks, or temp files once evicted.
type gracePart struct {
	chunks  []*vector.Columns // resident build rows, gathered window by window
	bytes   int64             // reserved for chunks
	spilled bool
	bw      *spill.Writer // build rows on disk
	brun    *spill.Run
	pw      *spill.Writer // probe rows on disk, [seq | probe row]
}

// newGraceJoin prepares the grace join of probe stage p, whose build side
// has arity columns and whose output has width.
func newGraceJoin(p *FusedProbe, arity, width int) *graceJoin {
	g := &graceJoin{mem: p.Mem, sp: newSpillSet(p.SpillDir, p.Mem), equiR: p.EquiR,
		arity: arity, width: width, tagArity: 1 + width - arity}
	for _, k := range p.EquiL {
		g.probeKeys = append(g.probeKeys, k+1)
	}
	if p.Residual != nil {
		g.residual = algebra.ShiftCols(p.Residual, 0, 1)
	}
	return g
}

// routeRows appends to dst the spill partition of each of the n rows of
// cols: the salted hash of the row's byte join key on the columns keys,
// modulo SpillPartitions, or -1 for a NULL key, which never matches.
func (g *graceJoin) routeRows(dst []int, cols []vector.Vector, n int, keys []int, salt uint64) []int {
	for i := 0; i < n; i++ {
		key, ok := appendVecJoinKey(g.keyBuf[:0], cols, i, keys)
		g.keyBuf = key
		p := -1
		if ok {
			p = int(keyHashSalted(key, salt) % SpillPartitions)
		}
		dst = append(dst, p)
	}
	return dst
}

// writeRow appends row r of cols to w, boxed into one reused row: where
// the grace join's columns become the spill format's rows.
func (g *graceJoin) writeRow(w *spill.Writer, cols []vector.Vector, r int) error {
	g.row = g.row[:0]
	for _, v := range cols {
		g.row = append(g.row, v.Value(r))
	}
	return w.Append(g.row)
}

// build partitions the build side: the n rows buffered in cols, the batch b
// whose reservation failed, and the rest of op. Spilled partitions then
// finish their files, and the resident ones become one hash table.
func (g *graceJoin) build(cols []vector.Vector, n int, b *Batch, op Operator) error {
	g.parts = make([]gracePart, SpillPartitions)
	if err := g.addBuild(cols, n); err != nil {
		return err
	}
	for b != nil {
		if err := g.addBuild(b.Cols(), b.Len()); err != nil {
			return err
		}
		var err error
		if b, err = op.Next(); err != nil {
			return err
		}
	}
	resident := &vector.Columns{Vecs: make([]vector.Vector, g.arity)}
	for i := range g.parts {
		p := &g.parts[i]
		if !p.spilled {
			for _, chunk := range p.chunks {
				for c, v := range chunk.Vecs {
					resident.Vecs[c] = vector.Append(resident.Vecs[c], v)
				}
				resident.N += chunk.N
			}
			p.chunks = nil
			continue
		}
		run, err := g.sp.finish(p.bw)
		if err != nil {
			return err
		}
		p.brun, p.bw = run, nil
	}
	// With no resident rows the columns stay nil: a probe never gathers
	// from a table it finds no match in.
	g.table = newHashTable(resident, g.equiR)
	return nil
}

// addBuild partitions n build rows of cols one window at a time. A resident
// partition gathers its rows and reserves them, evicting fattest-first; a
// spilled one boxes them straight into its file. NULL-keyed rows are
// dropped before they are reserved.
func (g *graceJoin) addBuild(cols []vector.Vector, n int) error {
	win := make([]vector.Vector, len(cols))
	for lo := 0; lo < n; lo += DefaultBatchSize {
		hi := min(lo+DefaultBatchSize, n)
		for c, v := range cols {
			win[c] = v.Slice(lo, hi)
		}
		g.routes = g.routeRows(g.routes[:0], win, hi-lo, g.equiR, 0)
		for p := range g.sels {
			g.sels[p] = g.sels[p][:0]
		}
		for r, p := range g.routes {
			if p >= 0 {
				g.sels[p] = append(g.sels[p], r)
			}
		}
		for i, sel := range g.sels {
			if len(sel) == 0 {
				continue
			}
			p := &g.parts[i]
			if !p.spilled {
				chunk := make([]vector.Vector, len(win))
				for c, v := range win {
					chunk[c] = v.Gather(sel)
				}
				bytes := colsMemSize(chunk, len(sel))
				if err := g.reserve(bytes); err != nil {
					return err
				}
				if !p.spilled {
					p.chunks = append(p.chunks, &vector.Columns{N: len(sel), Vecs: chunk})
					p.bytes += bytes
					continue
				}
				// The reservation evicted this very partition.
				g.mem.Release(bytes)
				g.held -= bytes
			}
			for _, r := range sel {
				if err := g.writeRow(p.bw, win, r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// reserve makes room for bytes more build rows, evicting the fattest
// resident partition until the reservation fits (or nothing resident
// remains, in which case the rows proceed as forced slack).
func (g *graceJoin) reserve(bytes int64) error {
	for !g.mem.Reserve(bytes) {
		best, bestBytes := -1, int64(0)
		for i := range g.parts {
			if g.parts[i].bytes > bestBytes {
				best, bestBytes = i, g.parts[i].bytes
			}
		}
		if best < 0 {
			g.mem.Force(bytes)
			break
		}
		if err := g.spillPart(&g.parts[best]); err != nil {
			return err
		}
	}
	g.held += bytes
	return nil
}

// spillPart evicts one partition's resident rows to its new file.
func (g *graceJoin) spillPart(p *gracePart) error {
	// A cancelled query aborts before paying the eviction I/O; Close
	// releases the reservations and removes any spill files.
	if err := g.mem.Err(); err != nil {
		return err
	}
	w, err := g.sp.newWriter()
	if err != nil {
		return err
	}
	for _, chunk := range p.chunks {
		for r := 0; r < chunk.N; r++ {
			if err := g.writeRow(w, chunk.Vecs, r); err != nil {
				return err
			}
		}
	}
	g.mem.Release(p.bytes)
	g.held -= p.bytes
	p.bw, p.chunks, p.bytes, p.spilled = w, nil, 0, true
	return nil
}

// joinInto expands n probe rows, tagged [seq | probe row] in cols, against
// jp's table, writing every output row [seq | probe row | build row] to w.
func (g *graceJoin) joinInto(w *spill.Writer, jp *joinProbe, cols []vector.Vector, n int) error {
	jp.start(cols, n)
	for b := jp.next(); b != nil; b = jp.next() {
		for r := 0; r < b.Len(); r++ {
			if err := g.writeRow(w, b.Cols(), r); err != nil {
				return err
			}
		}
	}
	return nil
}

// probePasses numbers the rows of the chain's passes and works them one
// window at a time: the window, tagged [seq | probe row], joins against the
// resident table into w, and its rows of spilled partitions go, tagged, to
// their probe files.
func (g *graceJoin) probePasses(w *spill.Writer, pass func() (*vector.Columns, error)) error {
	jp := newJoinProbe(g.table, g.probeKeys, g.tagArity, g.residual)
	var seq int64
	for {
		c, err := pass()
		if err != nil {
			return err
		}
		if c == nil {
			break
		}
		for lo := 0; lo < c.N; lo += DefaultBatchSize {
			hi := min(lo+DefaultBatchSize, c.N)
			seqs := make([]int64, hi-lo)
			for i := range seqs {
				seqs[i] = seq
				seq++
			}
			win := make([]vector.Vector, 1+len(c.Vecs))
			win[0] = vector.NewInt64Vector(seqs, nil)
			for j, v := range c.Vecs {
				win[1+j] = v.Slice(lo, hi)
			}
			if err := g.joinInto(w, &jp, win, hi-lo); err != nil {
				return err
			}
			g.routes = g.routeRows(g.routes[:0], win, hi-lo, g.probeKeys, 0)
			for r, i := range g.routes {
				if i < 0 || !g.parts[i].spilled {
					continue
				}
				p := &g.parts[i]
				if p.pw == nil {
					if p.pw, err = g.sp.newWriter(); err != nil {
						return err
					}
				}
				if err := g.writeRow(p.pw, win, r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// probe consumes the probe side, the chain's passes, against the resident
// table (probePasses). Then every spilled partition joins on its own, and
// the output runs are wired into the sequence merge Next streams.
func (g *graceJoin) probe(pass func() (*vector.Columns, error)) error {
	memOut, err := g.sp.newWriter()
	if err != nil {
		return err
	}
	if err := g.probePasses(memOut, pass); err != nil {
		return err
	}
	memRun, err := g.sp.finish(memOut)
	if err != nil {
		return err
	}
	outRuns := []*spill.Run{memRun}
	// Resident partitions are done probing, and held is exactly their
	// reservation; release it before loading spilled build partitions, so
	// the budget is free for the joins.
	g.table = nil
	g.mem.Release(g.held)
	g.held = 0
	for i := range g.parts {
		p := &g.parts[i]
		if !p.spilled {
			continue
		}
		if p.pw == nil {
			// No probe rows routed here: no output, drop the build file.
			if err := p.brun.Remove(); err != nil {
				return err
			}
			continue
		}
		prun, err := g.sp.finish(p.pw)
		if err != nil {
			return err
		}
		if err := g.joinPartition(p.brun, prun, 1, &outRuns); err != nil {
			return err
		}
	}
	// Deep re-splitting can leave one output run per leaf partition; cap
	// the final merge's fan-in. Each run covers a disjoint set of probe
	// sequence numbers, so merging a prefix of runs by sequence yields a
	// sequence-ordered run and the cascade preserves the final order.
	bySeq := func(a, b []types.Value) bool { return a[0].Int() < b[0].Int() }
	outRuns, err = cascadeRuns(g.sp, g.mem, &g.held, outRuns, bySeq)
	if err != nil {
		return err
	}
	g.heap = &mergeHeap{less: bySeq}
	for i, run := range outRuns {
		rd, err := g.sp.open(run)
		if err != nil {
			return err
		}
		if err := g.heap.add(mergeItem{run: i, refill: frameCursor(rd, g.mem, &g.held)}); err != nil {
			return err
		}
	}
	return nil
}

// joinPartition joins one spilled partition pair: the build file is loaded
// under reservation into a hash table, and the probe file is expanded
// against it frame by frame, appending a new sequence-ordered output run.
// If the build partition alone exceeds the budget it is re-split under a
// re-salted hash and the sub-pairs join recursively. Consumed temp files
// are removed eagerly.
func (g *graceJoin) joinPartition(brun, prun *spill.Run, depth int, outRuns *[]*spill.Run) error {
	rd, err := g.sp.open(brun)
	if err != nil {
		return err
	}
	var rows [][]types.Value
	var bytes int64
	split := false
loadLoop:
	for {
		frame, err := rd.Next()
		if err != nil {
			return err
		}
		if frame == nil {
			break
		}
		for fi, row := range frame {
			b := RowMemSize(row)
			if !g.mem.Reserve(b) {
				if depth < maxSpillDepth {
					// Budget tripped: carry the rest of this frame, unreserved,
					// into the re-split below.
					split = true
					rows = append(rows, frame[fi:]...)
					break loadLoop
				}
				g.mem.Force(b)
			}
			g.held += b
			bytes += b
			rows = append(rows, row)
		}
	}
	if split {
		err := g.splitPartition(rows, bytes, rd, prun, depth, outRuns)
		rd.Close()
		if err != nil {
			return err
		}
		return brun.Remove()
	}
	rd.Close()

	jp := newJoinProbe(newHashTable(vector.FromRows(rows, g.arity), g.equiR),
		g.probeKeys, g.tagArity, g.residual)
	out, err := g.sp.newWriter()
	if err != nil {
		return err
	}
	prd, err := g.sp.open(prun)
	if err != nil {
		return err
	}
	for {
		frame, err := prd.Next()
		if err != nil {
			return err
		}
		if frame == nil {
			break
		}
		if err := g.joinInto(out, &jp, vector.FromRows(frame, g.tagArity).Vecs, len(frame)); err != nil {
			return err
		}
	}
	prd.Close()
	orun, err := g.sp.finish(out)
	if err != nil {
		return err
	}
	*outRuns = append(*outRuns, orun)
	g.mem.Release(bytes)
	g.held -= bytes
	if err := brun.Remove(); err != nil {
		return err
	}
	return prun.Remove()
}

// splitPartition re-partitions an over-budget build partition (the rows
// loaded so far plus the unread remainder) and its probe file under a
// re-salted hash, then joins the sub-pairs recursively.
func (g *graceJoin) splitPartition(loaded [][]types.Value, bytes int64, rd *spill.Reader,
	prun *spill.Run, depth int, outRuns *[]*spill.Run) error {
	var subB, subP [SpillPartitions]*spill.Writer
	// route appends each of rows to the sub-partition its key columns keys
	// route to at this depth, dropping NULL keys.
	route := func(subs *[SpillPartitions]*spill.Writer, rows [][]types.Value, arity int, keys []int) error {
		for lo := 0; lo < len(rows); lo += DefaultBatchSize {
			win := rows[lo:min(lo+DefaultBatchSize, len(rows))]
			g.routes = g.routeRows(g.routes[:0], vector.FromRows(win, arity).Vecs, len(win), keys, uint64(depth))
			for i, p := range g.routes {
				if p < 0 {
					continue
				}
				if subs[p] == nil {
					w, err := g.sp.newWriter()
					if err != nil {
						return err
					}
					subs[p] = w
				}
				if err := subs[p].Append(win[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := route(&subB, loaded, g.arity, g.equiR); err != nil {
		return err
	}
	g.mem.Release(bytes)
	g.held -= bytes
	for {
		frame, err := rd.Next()
		if err != nil {
			return err
		}
		if frame == nil {
			break
		}
		if err := route(&subB, frame, g.arity, g.equiR); err != nil {
			return err
		}
	}
	prd, err := g.sp.open(prun)
	if err != nil {
		return err
	}
	for {
		frame, err := prd.Next()
		if err != nil {
			return err
		}
		if frame == nil {
			break
		}
		if err := route(&subP, frame, g.tagArity, g.probeKeys); err != nil {
			return err
		}
	}
	prd.Close()
	if err := prun.Remove(); err != nil {
		return err
	}
	for p := 0; p < SpillPartitions; p++ {
		bw, pw := subB[p], subP[p]
		if bw == nil || pw == nil {
			// One side empty: no matches possible in this sub-partition.
			if bw != nil {
				bw.Abort()
			}
			if pw != nil {
				pw.Abort()
			}
			continue
		}
		bsub, err := g.sp.finish(bw)
		if err != nil {
			return err
		}
		psub, err := g.sp.finish(pw)
		if err != nil {
			return err
		}
		if err := g.joinPartition(bsub, psub, depth+1, outRuns); err != nil {
			return err
		}
	}
	return nil
}

// next streams the sequence-ordered merge of the output runs through a
// reused spine, stripping the leading sequence tag, and emits it converted
// to columns.
func (g *graceJoin) next() (*Batch, error) {
	var err error
	if g.spine, err = g.heap.emit(g.spine[:0], DefaultBatchSize); err != nil {
		return nil, err
	}
	if len(g.spine) == 0 {
		return nil, nil
	}
	for i, row := range g.spine {
		g.spine[i] = row[1:]
	}
	g.out.setRows(g.spine, g.width)
	return &g.out, nil
}

// close releases every reservation the grace join still holds — its
// partitions' and its merge cursors' frames — and removes every spill file,
// including on early Close mid-merge. Safe on nil.
func (g *graceJoin) close() error {
	if g == nil {
		return nil
	}
	g.mem.Release(g.held)
	g.held = 0
	return g.sp.cleanup()
}
