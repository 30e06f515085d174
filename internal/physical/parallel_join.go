package physical

import (
	"sync"

	"repro/internal/types"
)

// keyHash is FNV-1a over a canonical key encoding; it only routes keys to
// build partitions, so equality still rests on the byte-exact key itself.
func keyHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// keyHashSalted re-mixes keyHash with a salt, so recursive spill
// partitioning (aggregate generations, grace join sub-partitions) splits a
// partition's keys differently at every depth — without a new salt, an
// over-budget partition would re-partition into itself forever.
func keyHashSalted(key []byte, salt uint64) uint64 {
	h := keyHash(key)
	if salt != 0 {
		h ^= (salt + 1) * 0x9e3779b97f4a7c15
		h *= 1099511628211
	}
	return h
}

// hashBuild is the build table of a fused hash join, shared, read-only, by
// every probe worker of a parallel one. It is partitioned by key hash so construction
// parallelizes: one pass computes each build row's partition in parallel
// chunks, then one worker per partition inserts its rows — in global build
// order, so bucket contents match the serial HashJoin's first-seen order
// exactly. After build() returns the structure is immutable; the Gather
// starts probe workers only then, which is what makes the lock-free
// concurrent probing sound.
type hashBuild struct {
	Input Operator // build-side plan, drained once per Open by build()
	Keys  []int
	dop   int

	parts []buildPart
}

// buildPart is one hash partition: the same idx/buckets layout as the serial
// HashJoin's table, just restricted to keys that route here.
type buildPart struct {
	idx     map[string]int
	buckets [][][]types.Value
}

// build drains the build input and constructs the partitioned table with dop
// goroutines. NULL-keyed rows are dropped here, as in the serial build —
// NULL join keys never match.
func (hb *hashBuild) build() error {
	rows, err := Drain(hb.Input)
	if err != nil {
		return err
	}
	p := hb.dop
	if p < 1 {
		p = 1
	}
	// Pass 1, parallel over row chunks: route every row to a partition
	// (-1 for NULL keys).
	partOf := make([]int32, len(rows))
	var wg sync.WaitGroup
	chunk := (len(rows) + p - 1) / p
	for w := 0; w < p && w*chunk < len(rows); w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var buf []byte
			for i := lo; i < hi; i++ {
				key, ok := appendJoinKey(buf[:0], rows[i], hb.Keys)
				buf = key
				if !ok {
					partOf[i] = -1
					continue
				}
				partOf[i] = int32(keyHash(key) % uint64(p))
			}
		}(lo, hi)
	}
	wg.Wait()
	// Pass 2, parallel over partitions: each worker owns one partition's map
	// outright, so insertion needs no locks; scanning partOf is cheap next
	// to encoding and inserting the partition's own rows.
	hb.parts = make([]buildPart, p)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := buildPart{idx: make(map[string]int)}
			var buf []byte
			for i, row := range rows {
				if partOf[i] != int32(w) {
					continue
				}
				key, _ := appendJoinKey(buf[:0], row, hb.Keys)
				buf = key
				idx, seen := part.idx[string(key)]
				if !seen {
					idx = len(part.buckets)
					part.idx[string(key)] = idx
					part.buckets = append(part.buckets, nil)
				}
				part.buckets[idx] = append(part.buckets[idx], row)
			}
			hb.parts[w] = part
		}(w)
	}
	wg.Wait()
	return nil
}

// lookup returns the bucket of build rows matching the encoded key, in the
// deterministic build order. Read-only; safe for concurrent probe workers.
// A single-partition table (serial build) skips the FNV routing hash — the
// partition map's own hash is the only per-key hashing the probe loop pays,
// same as the serial HashJoin's buildIdx.
func (hb *hashBuild) lookup(key []byte) [][]types.Value {
	part := &hb.parts[0]
	if len(hb.parts) > 1 {
		part = &hb.parts[keyHash(key)%uint64(len(hb.parts))]
	}
	if idx, ok := part.idx[string(key)]; ok {
		return part.buckets[idx]
	}
	return nil
}
