package physical

import (
	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// HashJoin is the governed equi-join: the lowering picks it only under a
// memory budget, and every equi-join lowered without one is a pipeline's
// probe stage (FusedPipeline), which shares its hash table and probe. It
// runs in O(|build| + |probe| + |output|): Open drains the right (build)
// input, reserving each row with the governor (Mem; a nil governor grants
// every reservation, so the join never spills), into a columnar hash table
// keyed on EquiR (hashTable), then Next streams the left (probe) input batch
// by batch. Each probe batch is read as columns and matched against the
// table, and the joined rows go out as batches, both sides'
// columns gathered at the matching positions; a residual predicate selects
// among them with its column kernel. One probe batch can fan out into many
// output batches, so the probe (joinProbe) resumes mid-row across Next
// calls. Output comes in probe order, and in build order within one probe
// row. NULL join keys never match, per SQL semantics.
//
// The first failed reservation switches Open to a hybrid Grace hash join:
// build rows are hash-partitioned, resident partitions are evicted to temp
// files fattest-first under pressure, and the survivors become in-memory
// hash tables. The probe pass then routes each probe row by the same hash —
// rows hitting resident partitions join immediately, rows hitting spilled
// partitions are appended to per-partition probe files — and every output
// row is tagged with its probe row's global sequence number and spooled to
// an output run. Spilled partitions join partition at a time afterwards
// (recursing with a re-salted hash when one partition alone exceeds the
// budget), each producing its own sequence-ordered output run, and Next
// streams the k-way merge of the runs by sequence number — which is exactly
// the in-memory operator's probe order, so spilled and in-memory execution
// emit byte-identical rows in identical order. A partition's table keeps
// global build order (one key routes to one partition), so per-probe-row
// match order is preserved too.
type HashJoin struct {
	Left, Right  Operator // Right is the build side
	EquiL, EquiR []int
	Residual     algebra.Expr
	Mem          *MemGovernor // nil: never spill
	SpillDir     string       // temp dir for spill files; "" means os.TempDir()
	schema       types.Schema

	probe   joinProbe // the in-memory probe; its table is the build side
	probing bool      // probe holds a batch not yet fully expanded
	keyBuf  []byte

	held      int64
	sp        *spillSet
	graceHeap *mergeHeap      // non-nil: Next streams the grace output merge
	graceTag  []types.Value   // scratch: [seq | concatenated output row]
	spine     [][]types.Value // the merged rows of the grace batch being emitted
	out       Batch           // grace output
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

// NewHashJoin builds a hash join; key positions are left- and right-relative.
func NewHashJoin(l, r Operator, equiL, equiR []int, residual algebra.Expr) *HashJoin {
	return &HashJoin{Left: l, Right: r, EquiL: equiL, EquiR: equiR,
		Residual: residual, schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Operator.
func (j *HashJoin) Schema() types.Schema { return j.schema }

// Open implements Operator: it builds the build side's hash table (or,
// under memory pressure, the grace partitioning — see the type comment).
func (j *HashJoin) Open() error {
	j.probe, j.probing = joinProbe{}, false
	j.held, j.sp, j.graceHeap = 0, nil, nil
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	return j.openGoverned()
}

// hashTable is the build table of every hash join: the build side kept as
// columns, its rows linked in build order into one chain per distinct join
// key — heads[slot] is a key's first build row, next[r] the row after r
// with the same key, -1 the end — so a probe row's matches come out in the
// order the build saw them. NULL-keyed rows are left out of every chain.
// A single numeric key column keys on its joinWord, any other key on its
// byte key (appendVecJoinKey); both encodings agree on which keys are
// equal, so the choice never changes a result. The governed join's
// whole-build table and resident grace partitions, each spilled partition
// join, and the pipeline probe stage all build this one structure.
type hashTable struct {
	cols   *vector.Columns
	words  map[uint64]int32 // single numeric key column: join word -> slot
	bytes  map[string]int32 // any other key: byte key -> slot
	heads  []int32
	next   []int32
	keyBuf []byte
}

// buildHashTable drains an opened operator into a hash table on the key
// columns keys. Batch columns are copied as they arrive (vector.Append): a
// columnar view lives only until its producer's next Next.
func buildHashTable(op Operator, keys []int) (*hashTable, error) {
	vecs := make([]vector.Vector, op.Schema().Arity())
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for c, v := range b.Cols() {
			vecs[c] = vector.Append(vecs[c], v)
		}
		n += b.Len()
	}
	if n == 0 {
		return newHashTable(vector.FromRows(nil, len(vecs)), keys), nil
	}
	return newHashTable(&vector.Columns{N: n, Vecs: vecs}, keys), nil
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
// batches: the (probe row, build row) pairs of up to
// DefaultBatchSize matches, both sides' columns gathered at them, the
// residual's selection kernel narrowing them. HashJoin and the pipeline
// probe stage share it.
type joinProbe struct {
	table    *hashTable
	keys     []int             // key positions in the probe columns
	residual *algebra.Compiled // nil: every match is emitted

	cols       []vector.Vector // the probe batch being expanded
	heads      []int32         // per probe row, its first match (-1 none)
	pi         int             // next probe row to expand
	bi         int32           // next match of probe row pi-1, -1 none
	psel, bsel []int           // pairs of the batch being built
	sel        []int
	out        Batch
}

// newJoinProbe prepares a probe of table keyed on the probe columns keys.
func newJoinProbe(table *hashTable, keys []int, residual algebra.Expr) joinProbe {
	p := joinProbe{table: table, keys: keys, bi: -1}
	if residual != nil {
		p.residual = algebra.Compile(residual)
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
		n := len(p.psel)
		if n == 0 {
			return nil
		}
		build := p.table.cols.Vecs
		out := make([]vector.Vector, len(p.cols)+len(build))
		for c, v := range p.cols {
			out[c] = v.Gather(p.psel)
		}
		for c, v := range build {
			out[len(p.cols)+c] = v.Gather(p.bsel)
		}
		if p.residual != nil {
			p.sel = p.residual.SelectTruthyVec(out, n, p.sel[:0])
			if len(p.sel) == 0 {
				continue
			}
			if len(p.sel) < n {
				for c, v := range out {
					out[c] = v.Gather(p.sel)
				}
				n = len(p.sel)
			}
		}
		p.out.SetCols(out, n)
		return &p.out
	}
}

// graceFlushRows is how many rows a spilled partition buffers before the
// buffer is appended to its file.
const graceFlushRows = 1024

// openGoverned drains the build side under reservation; if it fits, the
// probe streams against one in-memory table. Otherwise it runs the full
// hybrid grace join (partitioned build, routed probe, per-partition joins)
// and leaves Next a sequence-ordered merge of the output runs.
func (j *HashJoin) openGoverned() error {
	var buffer [][]types.Value
	var parts []gracePart
	grace := false

	// spillPart evicts one partition's resident rows to its file.
	spillPart := func(p *gracePart) error {
		// A cancelled query aborts before paying the eviction I/O; Close
		// releases the reservations and removes any spill files.
		if err := j.Mem.Err(); err != nil {
			return err
		}
		if p.bw == nil {
			if j.sp == nil {
				j.sp = newSpillSet(j.SpillDir, j.Mem)
			}
			w, err := j.sp.newWriter()
			if err != nil {
				return err
			}
			p.bw = w
		}
		if err := p.bw.AppendAll(p.rows); err != nil {
			return err
		}
		j.Mem.Release(p.bytes)
		j.held -= p.bytes
		p.rows, p.bytes, p.spilled = nil, 0, true
		return nil
	}
	// routeBuild assigns an already-reserved row to its partition; NULL-key
	// rows are dropped (they never match), releasing their reservation.
	routeBuild := func(row []types.Value, bytes int64) error {
		key, ok := appendJoinKey(j.keyBuf[:0], row, j.EquiR)
		j.keyBuf = key
		if !ok {
			j.Mem.Release(bytes)
			j.held -= bytes
			return nil
		}
		p := &parts[keyHashSalted(key, 0)%SpillPartitions]
		p.rows = append(p.rows, row)
		p.bytes += bytes
		if p.spilled && len(p.rows) >= graceFlushRows {
			return spillPart(p)
		}
		return nil
	}
	enterGrace := func() error {
		if j.sp == nil {
			// Even if no partition ever reaches its file (pressure may come
			// entirely from sibling operators' reservations), the probe
			// pass needs the spill set for its output runs.
			j.sp = newSpillSet(j.SpillDir, j.Mem)
		}
		parts = make([]gracePart, SpillPartitions)
		grace = true
		for _, row := range buffer {
			if err := routeBuild(row, RowMemSize(row)); err != nil {
				return err
			}
		}
		buffer = nil
		return nil
	}
	// reserveBuild makes room for one more build row, evicting the fattest
	// resident partition until the reservation fits (or nothing resident
	// remains, in which case the row proceeds as forced slack).
	reserveBuild := func(bytes int64) error {
		if j.Mem.Reserve(bytes) {
			j.held += bytes
			return nil
		}
		for {
			best, bestBytes := -1, int64(0)
			for i := range parts {
				if parts[i].bytes > bestBytes {
					best, bestBytes = i, parts[i].bytes
				}
			}
			if best < 0 {
				j.Mem.Force(bytes)
				j.held += bytes
				return nil
			}
			if err := spillPart(&parts[best]); err != nil {
				return err
			}
			if j.Mem.Reserve(bytes) {
				j.held += bytes
				return nil
			}
		}
	}

	for {
		b, err := j.Right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, row := range b.Rows() {
			bytes := RowMemSize(row)
			if !grace {
				if j.Mem.Reserve(bytes) {
					j.held += bytes
					buffer = append(buffer, row)
					continue
				}
				if err := enterGrace(); err != nil {
					return err
				}
			}
			if err := reserveBuild(bytes); err != nil {
				return err
			}
			if err := routeBuild(row, bytes); err != nil {
				return err
			}
		}
	}

	arity := j.Right.Schema().Arity()
	if !grace {
		// The build fit: identical table, identical streaming probe.
		j.probe = newJoinProbe(newHashTable(vector.FromRows(buffer, arity), j.EquiR), j.EquiL, j.Residual)
		return nil
	}

	// Finish the partitions: spilled ones flush their tails, resident ones
	// become per-partition hash tables (same layout as the single table).
	for i := range parts {
		p := &parts[i]
		if p.spilled {
			if len(p.rows) > 0 {
				if err := spillPart(p); err != nil {
					return err
				}
			}
			run, err := j.sp.finish(p.bw)
			if err != nil {
				return err
			}
			p.brun, p.bw = run, nil
			continue
		}
		p.table, p.rows = newHashTable(vector.FromRows(p.rows, arity), j.EquiR), nil
	}
	return j.graceProbe(parts)
}

// emitMatches writes the joined output rows of probe row l against its
// matches in t, each tagged with the probe sequence number, to w — all but
// those the residual rejects.
func (j *HashJoin) emitMatches(w *spill.Writer, seq int64, l []types.Value, t *hashTable) error {
	width := j.schema.Arity()
	if cap(j.graceTag) < width+1 {
		j.graceTag = make([]types.Value, width+1)
	}
	tag := j.graceTag[:width+1]
	tag[0] = types.NewInt(seq)
	copy(tag[1:], l)
	for r := t.lookupRow(l, j.EquiL); r >= 0; r = t.next[r] {
		for c, v := range t.cols.Vecs {
			tag[1+len(l)+c] = v.Value(int(r))
		}
		if j.Residual != nil && !algebra.Truthy(j.Residual.Eval(tag[1:])) {
			continue
		}
		if err := w.Append(tag); err != nil {
			return err
		}
	}
	return nil
}

// graceProbe consumes the probe input: resident-partition rows join
// immediately into the memOut run, spilled-partition rows are appended to
// per-partition probe files; then every spilled partition joins on its own
// and the output runs are wired into the sequence merge Next streams.
func (j *HashJoin) graceProbe(parts []gracePart) error {
	memOut, err := j.sp.newWriter()
	if err != nil {
		return err
	}
	var probeTag []types.Value
	var seq int64
	for {
		b, err := j.Left.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, row := range b.Rows() {
			s := seq
			seq++
			key, ok := appendJoinKey(j.keyBuf[:0], row, j.EquiL)
			j.keyBuf = key
			if !ok {
				continue
			}
			p := &parts[keyHashSalted(key, 0)%SpillPartitions]
			if p.spilled {
				if p.pw == nil {
					w, err := j.sp.newWriter()
					if err != nil {
						return err
					}
					p.pw = w
				}
				probeTag = append(probeTag[:0], types.NewInt(s))
				probeTag = append(probeTag, row...)
				if err := p.pw.Append(probeTag); err != nil {
					return err
				}
				continue
			}
			if err := j.emitMatches(memOut, s, row, p.table); err != nil {
				return err
			}
		}
	}
	memRun, err := j.sp.finish(memOut)
	if err != nil {
		return err
	}
	outRuns := []*spill.Run{memRun}
	// Resident partitions are done probing; release them before loading
	// spilled build partitions, so the budget is free for the joins.
	for i := range parts {
		p := &parts[i]
		if p.spilled {
			continue
		}
		j.Mem.Release(p.bytes)
		j.held -= p.bytes
		p.bytes, p.table = 0, nil
	}
	for i := range parts {
		p := &parts[i]
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
		prun, err := j.sp.finish(p.pw)
		if err != nil {
			return err
		}
		if err := j.joinPartition(p.brun, prun, 1, &outRuns); err != nil {
			return err
		}
	}
	// Deep re-splitting can leave one output run per leaf partition; cap
	// the final merge's fan-in. Each run covers a disjoint set of probe
	// sequence numbers, so merging a prefix of runs by sequence yields a
	// sequence-ordered run and the cascade preserves the final order.
	bySeq := func(a, b []types.Value) bool { return a[0].Int() < b[0].Int() }
	outRuns, err = cascadeRuns(j.sp, j.Mem, outRuns, bySeq)
	if err != nil {
		return err
	}
	j.graceHeap = &mergeHeap{less: bySeq}
	for i, run := range outRuns {
		rd, err := j.sp.open(run)
		if err != nil {
			return err
		}
		if err := j.graceHeap.add(mergeItem{run: i, refill: frameCursor(rd, j.Mem)}); err != nil {
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
func (j *HashJoin) joinPartition(brun, prun *spill.Run, depth int, outRuns *[]*spill.Run) error {
	rd, err := j.sp.open(brun)
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
			if !j.Mem.Reserve(b) {
				if depth < maxSpillDepth {
					// Budget tripped: carry the rest of this frame, unreserved,
					// into the re-split below.
					split = true
					rows = append(rows, frame[fi:]...)
					break loadLoop
				}
				j.Mem.Force(b)
			}
			j.held += b
			bytes += b
			rows = append(rows, row)
		}
	}
	if split {
		err := j.splitPartition(rows, bytes, rd, prun, depth, outRuns)
		rd.Close()
		if err != nil {
			return err
		}
		return brun.Remove()
	}
	rd.Close()

	table := newHashTable(vector.FromRows(rows, j.Right.Schema().Arity()), j.EquiR)
	out, err := j.sp.newWriter()
	if err != nil {
		return err
	}
	prd, err := j.sp.open(prun)
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
			if err := j.emitMatches(out, pr[0].Int(), pr[1:], table); err != nil {
				return err
			}
		}
	}
	prd.Close()
	orun, err := j.sp.finish(out)
	if err != nil {
		return err
	}
	*outRuns = append(*outRuns, orun)
	j.Mem.Release(bytes)
	j.held -= bytes
	if err := brun.Remove(); err != nil {
		return err
	}
	return prun.Remove()
}

// splitPartition re-partitions an over-budget build partition (the rows
// loaded so far plus the unread remainder) and its probe file under a
// re-salted hash, then joins the sub-pairs recursively.
func (j *HashJoin) splitPartition(loaded [][]types.Value, bytes int64, rd *spill.Reader,
	prun *spill.Run, depth int, outRuns *[]*spill.Run) error {
	var subB, subP [SpillPartitions]*spill.Writer
	route := func(subs *[SpillPartitions]*spill.Writer, row []types.Value, key []byte) error {
		p := keyHashSalted(key, uint64(depth)) % SpillPartitions
		if subs[p] == nil {
			w, err := j.sp.newWriter()
			if err != nil {
				return err
			}
			subs[p] = w
		}
		return subs[p].Append(row)
	}
	routeBuild := func(row []types.Value) error {
		key, ok := appendJoinKey(j.keyBuf[:0], row, j.EquiR)
		j.keyBuf = key
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
	j.Mem.Release(bytes)
	j.held -= bytes
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
	prd, err := j.sp.open(prun)
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
			key, ok := appendJoinKey(j.keyBuf[:0], pr[1:], j.EquiL)
			j.keyBuf = key
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
		bsub, err := j.sp.finish(bw)
		if err != nil {
			return err
		}
		psub, err := j.sp.finish(pw)
		if err != nil {
			return err
		}
		if err := j.joinPartition(bsub, psub, depth+1, outRuns); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (*Batch, error) {
	if j.graceHeap != nil {
		return j.graceNext()
	}
	for {
		if j.probing {
			if b := j.probe.next(); b != nil {
				return b, nil
			}
			j.probing = false
		}
		b, err := j.Left.Next()
		if b == nil || err != nil {
			return nil, err
		}
		j.probe.start(b.Cols(), b.Len())
		j.probing = true
	}
}

// graceNext streams the sequence-ordered merge of the grace output runs
// through a reused spine, stripping the leading sequence tag, and emits it
// converted to columns.
func (j *HashJoin) graceNext() (*Batch, error) {
	if j.graceHeap.Len() == 0 {
		return nil, nil
	}
	var err error
	if j.spine, err = j.graceHeap.emit(j.spine[:0], DefaultBatchSize); err != nil {
		return nil, err
	}
	if len(j.spine) == 0 {
		return nil, nil
	}
	for i, row := range j.spine {
		j.spine[i] = row[1:]
	}
	j.out.setRows(j.spine, j.schema.Arity())
	return &j.out, nil
}

// Close implements Operator: beyond the in-memory state, release any
// reservation still held and remove every spill file — including on early
// Close mid-merge.
func (j *HashJoin) Close() error {
	j.probe, j.probing, j.graceHeap, j.spine = joinProbe{}, false, nil, nil
	j.Mem.Release(j.held)
	j.held = 0
	serr := j.sp.cleanup()
	j.sp = nil
	lerr := j.Left.Close()
	rerr := j.Right.Close()
	if lerr != nil {
		return lerr
	}
	if rerr != nil {
		return rerr
	}
	return serr
}
