package physical

import (
	"repro/internal/algebra"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// HashJoin executes an equi-join in O(|build| + |probe| + |output|): Open
// drains the right (build) input into a hash table keyed on EquiR with the
// shared canonical key encoding (key.go), then Next streams the left
// (probe) input batch by batch, emitting concatenated rows that satisfy the
// residual predicate (evaluated over the concatenated row). Output rows are
// carved from slabs, so one probe batch costs O(1) allocations however many
// matches it produces. NULL join keys never match, per SQL semantics.
//
// One probe batch can fan out into many output batches; Next keeps its
// probe cursor (batch, row, match index) across calls and resumes mid-row.
//
// With a memory governor (Mem non-nil), the build side is reserved as it
// is drained; while it fits, execution is exactly the in-memory operator.
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
// emit byte-identical rows in identical order. Bucket contents keep global
// build order within each partition (one key routes to one partition), so
// per-probe-row match order is preserved too.
type HashJoin struct {
	Left, Right  Operator // Right is the build side
	EquiL, EquiR []int
	Residual     algebra.Expr
	Mem          *MemGovernor // nil: never spill (today's in-memory behavior)
	SpillDir     string       // temp dir for spill files; "" means os.TempDir()
	schema       types.Schema

	table  *hashTable // the in-memory build table
	keyBuf []byte
	probe  *Batch // current probe batch, nil when a new one is needed
	pi     int    // next probe row index
	// Per-probe-batch cached views: probeKeyCols keys off the vectors when
	// the batch has no row view yet (typed fast path); probeRows is the row
	// view, resolved lazily in that case — a batch probing with no matches
	// never materializes it.
	probeKeyCols []vector.Vector
	probeRows    [][]types.Value
	matches      [][]types.Value
	mi           int
	out          Batch
	sl           *slab

	held      int64
	sp        *spillSet
	graceHeap *mergeHeap    // non-nil: Next streams the grace output merge
	graceTag  []types.Value // scratch: [seq | concatenated output row]
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

// Open implements Operator: it materializes the build side's hash table
// (or, under memory pressure, the grace partitioning — see the type
// comment). Build rows are retained directly — row slices are stable until
// Close — only the batch spines are ephemeral.
func (j *HashJoin) Open() error {
	j.probe, j.matches, j.pi, j.mi = nil, nil, 0, 0
	j.sl = newSlab(j.schema.Arity())
	j.held, j.sp, j.graceHeap = 0, nil, nil
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	if j.Mem != nil {
		return j.openGoverned()
	}
	j.table = newHashTable(j.EquiR)
	return j.table.addFrom(j.Right)
}

// hashTable is the build table of every hash join: build rows grouped by
// canonical join key (key.go) into buckets that keep build order, so a
// probe row's matches come out in the order the build saw them. NULL-keyed
// rows are dropped on add — NULL join keys never match. The ungoverned
// HashJoin, the governed join's whole-build replay and resident grace
// partitions, each spilled partition join, and the fused probe all build
// this one structure.
type hashTable struct {
	keys    []int             // key positions in the build rows
	idx     map[string]int    // canonical key -> index into buckets
	buckets [][][]types.Value // build rows per distinct key
	keyBuf  []byte
}

func newHashTable(keys []int) *hashTable {
	return &hashTable{keys: keys, idx: make(map[string]int)}
}

// add files row in its key's bucket. The m[string(b)] lookup is
// allocation-free; the key string is materialized once per distinct key, not
// once per build row.
func (t *hashTable) add(row []types.Value) {
	key, ok := appendJoinKey(t.keyBuf[:0], row, t.keys)
	t.keyBuf = key
	if !ok {
		return
	}
	bi, seen := t.idx[string(key)]
	if !seen {
		bi = len(t.buckets)
		t.idx[string(key)] = bi
		t.buckets = append(t.buckets, nil)
	}
	t.buckets[bi] = append(t.buckets[bi], row)
}

// addRows adds every row of a slice and returns the table.
func (t *hashTable) addRows(rows [][]types.Value) *hashTable {
	for _, row := range rows {
		t.add(row)
	}
	return t
}

// addFrom adds every row an opened operator emits. Buckets retain row
// slices, so the build side always reads the row view and keys come off the
// spine directly.
func (t *hashTable) addFrom(op Operator) error {
	for {
		b, err := op.Next()
		if b == nil || err != nil {
			return err
		}
		t.addRows(b.Rows())
	}
}

// lookup returns the build rows matching an encoded key, in build order.
func (t *hashTable) lookup(key []byte) [][]types.Value {
	if bi, ok := t.idx[string(key)]; ok {
		return t.buckets[bi]
	}
	return nil
}

// graceFlushRows is how many rows a spilled partition buffers before the
// buffer is appended to its file.
const graceFlushRows = 1024

// openGoverned drains the build side under reservation; if it fits, probing
// proceeds exactly like the ungoverned operator. Otherwise it runs the full
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

	if !grace {
		// The build fit: identical table, identical streaming probe.
		j.table = newHashTable(j.EquiR).addRows(buffer)
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
		p.table = newHashTable(j.EquiR).addRows(p.rows)
	}
	return j.graceProbe(parts)
}

// emitTagged writes one joined output row, tagged with its probe sequence
// number, to w — unless the residual rejects the concatenation.
func (j *HashJoin) emitTagged(w *spill.Writer, seq int64, l, r []types.Value) error {
	width := j.schema.Arity()
	if cap(j.graceTag) < width+1 {
		j.graceTag = make([]types.Value, width+1)
	}
	tag := j.graceTag[:width+1]
	tag[0] = types.NewInt(seq)
	copy(tag[1:], l)
	copy(tag[1+len(l):], r)
	if j.Residual != nil && !algebra.Truthy(j.Residual.Eval(tag[1:])) {
		return nil
	}
	return w.Append(tag)
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
			for _, r := range p.table.lookup(key) {
				if err := j.emitTagged(memOut, s, row, r); err != nil {
					return err
				}
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
		p.rows, p.bytes, p.table = nil, 0, nil
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

	table := newHashTable(j.EquiR).addRows(rows)
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
			cells := pr[1:]
			key, ok := appendJoinKey(j.keyBuf[:0], cells, j.EquiL)
			j.keyBuf = key
			if !ok {
				continue
			}
			for _, r := range table.lookup(key) {
				if err := j.emitTagged(out, pr[0].Int(), cells, r); err != nil {
					return err
				}
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

// emit concatenates l and r into a slab row and appends it to the output
// batch when the residual accepts it; slab storage is only committed for
// emitted rows.
func (j *HashJoin) emit(l, r []types.Value) {
	row := j.sl.peek()
	copy(row, l)
	copy(row[len(l):], r)
	if j.Residual != nil && !algebra.Truthy(j.Residual.Eval(row)) {
		return
	}
	j.sl.commit()
	j.out.Append(row)
}

// Next implements Operator.
func (j *HashJoin) Next() (*Batch, error) {
	if j.graceHeap != nil {
		return j.graceNext()
	}
	j.out.Reset()
	for {
		if j.probe != nil {
			for {
				for j.mi < len(j.matches) {
					if j.probeRows == nil {
						// First match of a column-only probe batch: now the
						// row view is needed for output construction.
						j.probeRows = j.probe.Rows()
					}
					j.emit(j.probeRows[j.pi-1], j.matches[j.mi])
					j.mi++
					if j.out.Len() >= DefaultBatchSize {
						return &j.out, nil
					}
				}
				if j.pi >= j.probe.Len() {
					j.probe = nil
					break
				}
				pi := j.pi
				j.pi++
				j.matches, j.mi = nil, 0
				var key []byte
				var ok bool
				if j.probeKeyCols != nil {
					key, ok = appendVecJoinKey(j.keyBuf[:0], j.probeKeyCols, pi, j.EquiL)
				} else {
					key, ok = appendJoinKey(j.keyBuf[:0], j.probeRows[pi], j.EquiL)
				}
				j.keyBuf = key
				if ok {
					j.matches = j.table.lookup(key)
				}
			}
		}
		b, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if j.out.Len() > 0 {
				return &j.out, nil
			}
			return nil, nil
		}
		j.probe, j.pi, j.matches, j.mi = b, 0, nil, 0
		j.probeKeyCols = b.KeyCols()
		j.probeRows = nil
		if j.probeKeyCols == nil {
			j.probeRows = b.Rows()
		}
	}
}

// graceNext streams the sequence-ordered merge of the grace output runs,
// stripping the leading sequence tag. Decoded rows are freshly allocated,
// so the re-sliced rows obey the engine-wide stability rule.
func (j *HashJoin) graceNext() (*Batch, error) {
	if j.graceHeap.Len() == 0 {
		return nil, nil
	}
	j.out.Reset()
	if err := j.graceHeap.emit(&j.out, DefaultBatchSize); err != nil {
		return nil, err
	}
	if j.out.Len() == 0 {
		return nil, nil
	}
	for i, row := range j.out.rows {
		j.out.rows[i] = row[1:]
	}
	return &j.out, nil
}

// Close implements Operator: beyond the in-memory state, release any
// reservation still held and remove every spill file — including on early
// Close mid-merge.
func (j *HashJoin) Close() error {
	j.table, j.matches, j.probe, j.sl = nil, nil, nil, nil
	j.probeRows, j.probeKeyCols, j.graceHeap = nil, nil, nil
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

// NestedLoopJoin is the theta-join fallback: the right input is materialized
// once on Open, and every (left, right) pair satisfying the predicate is
// emitted, batch by batch with the same slab discipline as HashJoin.
// O(n·m); the optimizer extracts equi-join keys precisely so this operator
// only runs for genuinely non-equi predicates.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        algebra.Expr // nil accepts all pairs
	schema      types.Schema

	inner     [][]types.Value
	probe     *Batch
	probeRows [][]types.Value // cached row view of the current probe batch
	pi        int             // probe row index currently being expanded
	ii        int             // next inner row for that probe row
	out       Batch
	sl        *slab
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(l, r Operator, pred algebra.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{Left: l, Right: r, Pred: pred,
		schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() types.Schema { return j.schema }

// Open implements Operator: it materializes the inner (right) input.
func (j *NestedLoopJoin) Open() error {
	j.inner, j.probe, j.pi, j.ii = nil, nil, 0, 0
	j.sl = newSlab(j.schema.Arity())
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	for {
		b, err := j.Right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		j.inner = append(j.inner, b.Rows()...)
	}
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (*Batch, error) {
	j.out.Reset()
	for {
		if j.probe != nil {
			for j.pi < j.probe.Len() {
				l := j.probeRows[j.pi]
				for j.ii < len(j.inner) {
					row := j.sl.peek()
					copy(row, l)
					copy(row[len(l):], j.inner[j.ii])
					j.ii++
					if j.Pred != nil && !algebra.Truthy(j.Pred.Eval(row)) {
						continue
					}
					j.sl.commit()
					j.out.Append(row)
					if j.out.Len() >= DefaultBatchSize {
						return &j.out, nil
					}
				}
				j.pi++
				j.ii = 0
			}
			j.probe = nil
		}
		b, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if j.out.Len() > 0 {
				return &j.out, nil
			}
			return nil, nil
		}
		j.probe, j.probeRows, j.pi, j.ii = b, b.Rows(), 0, 0
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.inner, j.probe, j.probeRows, j.sl = nil, nil, nil, nil
	lerr := j.Left.Close()
	rerr := j.Right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}
