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
// in build order within one probe row. NULL join keys never match.

// hashTable is the build table of every hash join: the build side kept as
// columns, its rows linked in build order into one chain per distinct join
// key — heads[slot] is a key's first build row, next[r] the row after r
// with the same key, -1 the end — so a probe row's matches come out in the
// order the build saw them. NULL-keyed rows are left out of every chain.
// A single numeric key column keys on its joinWord, any other key on its
// byte key (appendVecJoinKey); both encodings agree on which keys are
// equal, so the choice never changes a result. The probe stage's table,
// the grace join's resident partitions and each spilled partition join all
// build this one structure.
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
					f.grace = &graceJoin{mem: p.Mem, sp: newSpillSet(p.SpillDir, p.Mem), equiL: p.EquiL,
						equiR: p.EquiR, residual: p.Residual, arity: len(vecs), width: f.schema.Arity()}
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

// lookupRow returns the first build row matching a boxed row's key columns
// keys, -1 for none — the grace join's probe of a resident or loaded
// partition.
func (t *hashTable) lookupRow(row []types.Value, keys []int) int32 {
	if t.words != nil {
		if x := row[keys[0]]; x.IsNumeric() {
			return t.wordHead(joinWord(x.Float()))
		}
		return -1
	}
	key, ok := appendJoinKey(t.keyBuf[:0], row, keys)
	t.keyBuf = key
	if !ok {
		return -1
	}
	return t.byteHead(key)
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
// when its build does not fit. Build rows, boxed for the row spill format
// (boxRows), are hash-partitioned; resident partitions are evicted to temp
// files fattest-first under pressure, and the survivors become in-memory
// hash tables. The probe pass then routes each row of the chain's passes by
// the same hash — rows hitting resident partitions join immediately, rows
// hitting spilled partitions are appended to per-partition probe files —
// and every output row is tagged with its probe row's sequence number and
// spooled to an output run. Spilled partitions join one at a time
// afterwards (re-split under a re-salted hash when one alone exceeds the
// budget), and Next streams the merge of the output runs by sequence
// number: exactly the in-memory probe order. A partition's table keeps
// build order (one key routes to one partition), so spilled and in-memory
// execution emit byte-identical rows in identical order.
type graceJoin struct {
	mem          *MemGovernor
	sp           *spillSet
	equiL, equiR []int
	residual     algebra.Expr
	arity        int   // the build side's columns
	width        int   // the output's columns
	held         int64 // bytes reserved with mem
	parts        []gracePart
	keyBuf       []byte

	heap  *mergeHeap      // the output merge Next streams
	tag   []types.Value   // scratch: [seq | concatenated output row]
	spine [][]types.Value // the merged rows of the batch being emitted
	out   Batch
}

// gracePart is one hash partition of a grace join's build side: resident
// rows (later a built hash table), or temp files once evicted.
type gracePart struct {
	rows    [][]types.Value // resident build rows, or a spilled tail buffer
	bytes   int64           // reserved estimate of rows
	spilled bool
	bw      *spill.Writer // build rows on disk
	brun    *spill.Run
	pw      *spill.Writer // probe rows on disk, [seq | probe row]
	table   *hashTable    // a resident partition's build table
}

// graceFlushRows is how many rows a spilled partition buffers before the
// buffer is appended to its file.
const graceFlushRows = 1024

// build partitions the build side, reserving it row by row: the n rows
// buffered in cols, the batch b whose reservation failed, and the rest of
// op. Spilled partitions then flush their tails, and resident ones become
// per-partition hash tables (same layout as the single table).
func (g *graceJoin) build(cols []vector.Vector, n int, b *Batch, op Operator) error {
	g.parts = make([]gracePart, SpillPartitions)
	addRows := func(rows [][]types.Value) error {
		for _, row := range rows {
			bytes := RowMemSize(row)
			if err := g.reserveBuild(bytes); err != nil {
				return err
			}
			if err := g.routeBuild(row, bytes); err != nil {
				return err
			}
		}
		return nil
	}
	if err := boxRows(cols, n, addRows); err != nil {
		return err
	}
	for b != nil {
		if err := boxRows(b.Cols(), b.Len(), addRows); err != nil {
			return err
		}
		var err error
		if b, err = op.Next(); err != nil {
			return err
		}
	}
	for i := range g.parts {
		p := &g.parts[i]
		if !p.spilled {
			p.table, p.rows = newHashTable(vector.FromRows(p.rows, g.arity), g.equiR), nil
			continue
		}
		if len(p.rows) > 0 {
			if err := g.spillPart(p); err != nil {
				return err
			}
		}
		run, err := g.sp.finish(p.bw)
		if err != nil {
			return err
		}
		p.brun, p.bw = run, nil
	}
	return nil
}

// spillPart evicts one partition's resident rows to its file.
func (g *graceJoin) spillPart(p *gracePart) error {
	// A cancelled query aborts before paying the eviction I/O; Close
	// releases the reservations and removes any spill files.
	if err := g.mem.Err(); err != nil {
		return err
	}
	if p.bw == nil {
		w, err := g.sp.newWriter()
		if err != nil {
			return err
		}
		p.bw = w
	}
	if err := p.bw.AppendAll(p.rows); err != nil {
		return err
	}
	g.mem.Release(p.bytes)
	g.held -= p.bytes
	p.rows, p.bytes, p.spilled = nil, 0, true
	return nil
}

// routeBuild assigns an already-reserved row to its partition; NULL-key
// rows are dropped (they never match), releasing their reservation.
func (g *graceJoin) routeBuild(row []types.Value, bytes int64) error {
	key, ok := appendJoinKey(g.keyBuf[:0], row, g.equiR)
	g.keyBuf = key
	if !ok {
		g.mem.Release(bytes)
		g.held -= bytes
		return nil
	}
	p := &g.parts[keyHashSalted(key, 0)%SpillPartitions]
	p.rows = append(p.rows, row)
	p.bytes += bytes
	if p.spilled && len(p.rows) >= graceFlushRows {
		return g.spillPart(p)
	}
	return nil
}

// reserveBuild makes room for one more build row, evicting the fattest
// resident partition until the reservation fits (or nothing resident
// remains, in which case the row proceeds as forced slack).
func (g *graceJoin) reserveBuild(bytes int64) error {
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

// emitMatches writes the joined output rows of probe row l against its
// matches in t, each tagged with the probe sequence number, to w — all but
// those the residual rejects.
func (g *graceJoin) emitMatches(w *spill.Writer, seq int64, l []types.Value, t *hashTable) error {
	if cap(g.tag) < g.width+1 {
		g.tag = make([]types.Value, g.width+1)
	}
	tag := g.tag[:g.width+1]
	tag[0] = types.NewInt(seq)
	copy(tag[1:], l)
	for r := t.lookupRow(l, g.equiL); r >= 0; r = t.next[r] {
		for c, v := range t.cols.Vecs {
			tag[1+len(l)+c] = v.Value(int(r))
		}
		if g.residual != nil && !algebra.Truthy(g.residual.Eval(tag[1:])) {
			continue
		}
		if err := w.Append(tag); err != nil {
			return err
		}
	}
	return nil
}

// probe consumes the probe side, the chain's passes: resident-partition
// rows join immediately into the memOut run, spilled-partition rows are
// appended to per-partition probe files; then every spilled partition
// joins on its own and the output runs are wired into the sequence merge
// Next streams.
func (g *graceJoin) probe(pass func() (*vector.Columns, error)) error {
	memOut, err := g.sp.newWriter()
	if err != nil {
		return err
	}
	var probeTag []types.Value
	var seq int64
	route := func(rows [][]types.Value) error {
		for _, row := range rows {
			s := seq
			seq++
			key, ok := appendJoinKey(g.keyBuf[:0], row, g.equiL)
			g.keyBuf = key
			if !ok {
				continue
			}
			p := &g.parts[keyHashSalted(key, 0)%SpillPartitions]
			if !p.spilled {
				if err := g.emitMatches(memOut, s, row, p.table); err != nil {
					return err
				}
				continue
			}
			if p.pw == nil {
				w, err := g.sp.newWriter()
				if err != nil {
					return err
				}
				p.pw = w
			}
			probeTag = append(append(probeTag[:0], types.NewInt(s)), row...)
			if err := p.pw.Append(probeTag); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		c, err := pass()
		if err != nil {
			return err
		}
		if c == nil {
			break
		}
		if err := boxRows(c.Vecs, c.N, route); err != nil {
			return err
		}
	}
	memRun, err := g.sp.finish(memOut)
	if err != nil {
		return err
	}
	outRuns := []*spill.Run{memRun}
	// Resident partitions are done probing; release them before loading
	// spilled build partitions, so the budget is free for the joins.
	for i := range g.parts {
		p := &g.parts[i]
		if p.spilled {
			continue
		}
		g.mem.Release(p.bytes)
		g.held -= p.bytes
		p.bytes, p.table = 0, nil
	}
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
	outRuns, err = cascadeRuns(g.sp, g.mem, outRuns, bySeq)
	if err != nil {
		return err
	}
	g.heap = &mergeHeap{less: bySeq}
	for i, run := range outRuns {
		rd, err := g.sp.open(run)
		if err != nil {
			return err
		}
		if err := g.heap.add(mergeItem{run: i, refill: frameCursor(rd, g.mem)}); err != nil {
			return err
		}
	}
	return nil
}

// joinPartition joins one spilled partition pair: the build file is loaded
// under reservation and probed by the streamed probe file, appending a new
// sequence-ordered output run. If the build partition alone exceeds the
// budget it is re-split under a re-salted hash and the sub-pairs join
// recursively. Consumed temp files are removed eagerly.
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

	table := newHashTable(vector.FromRows(rows, g.arity), g.equiR)
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
		for _, pr := range frame {
			if err := g.emitMatches(out, pr[0].Int(), pr[1:], table); err != nil {
				return err
			}
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
	route := func(subs *[SpillPartitions]*spill.Writer, row []types.Value, key []byte) error {
		p := keyHashSalted(key, uint64(depth)) % SpillPartitions
		if subs[p] == nil {
			w, err := g.sp.newWriter()
			if err != nil {
				return err
			}
			subs[p] = w
		}
		return subs[p].Append(row)
	}
	routeBuild := func(row []types.Value) error {
		key, ok := appendJoinKey(g.keyBuf[:0], row, g.equiR)
		g.keyBuf = key
		if !ok {
			return nil
		}
		return route(&subB, row, key)
	}
	for _, row := range loaded {
		if err := routeBuild(row); err != nil {
			return err
		}
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
		for _, row := range frame {
			if err := routeBuild(row); err != nil {
				return err
			}
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
		for _, pr := range frame {
			key, ok := appendJoinKey(g.keyBuf[:0], pr[1:], g.equiL)
			g.keyBuf = key
			if !ok {
				continue
			}
			if err := route(&subP, pr, key); err != nil {
				return err
			}
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

// close releases every reservation the grace join still holds and removes
// every spill file — including on early Close mid-merge. Safe on nil.
func (g *graceJoin) close() error {
	if g == nil {
		return nil
	}
	g.mem.Release(g.held)
	g.held = 0
	return g.sp.cleanup()
}
