// Package clauseset owns the representation of the lineage compile kernel
// (internal/dtree): a residual formula is a canonical clause set —
// [][]int32, every clause an ascending literal list, clauses sorted
// lexicographically and deduplicated (Normalize) — and a Store interns such
// sets under an FNV-1a hash with structural-equality collision chains, so a
// residual reached along two expansion paths compiles once, to one exact
// probability; what a literal means (an order level in its ordered setting,
// a raw variable id in its decomposing one) is the kernel's business, not
// the store's.
//
// The store is allocation-lean by construction: entries sit inline in the
// map (only a genuine hash collision between distinct sets allocates an
// overflow chain), clause-set headers are carved from an arena in blocks
// and recycled through a free list, and Reset drops every entry while
// keeping the map buckets and rewinding the arena to its first block — a
// builder pooled across a batch of per-answer compilations pays the
// allocations once per worker, not once per formula.
//
// The package also holds the contract the kernel speaks to its callers in
// both settings: Options (budget, anytime target width, stop probe) and
// Result (exact value or certified [lo, hi] bounds plus effort counters).
package clauseset

import (
	"slices"

	"repro/internal/prob"
)

// Hash folds a canonical clause set word by word (prob.FNVWord): clause
// literals in order, with a separator no literal can equal (^0; literals
// are non-negative) per clause boundary. Collisions are resolved by
// structural equality, so hash quality only affects chain length.
func Hash(cls [][]int32) uint64 {
	h := prob.FNVInit()
	for _, c := range cls {
		for _, l := range c {
			h = prob.FNVWord(h, uint32(l))
		}
		h = prob.FNVWord(h, ^uint32(0))
	}
	return h
}

// Normalize sorts clauses lexicographically and drops duplicates, in place,
// making a residual clause set canonical regardless of the expansion path
// that produced it.
func Normalize(cls [][]int32) [][]int32 {
	slices.SortFunc(cls, Compare)
	out := cls[:0]
	for i, c := range cls {
		if i > 0 && slices.Equal(cls[i-1], c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Compare is the lexicographic clause order canonical sets are sorted by:
// literal by literal, a proper prefix first.
func Compare(a, b []int32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

func equalClauseSets(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// entry interns one clause set: the canonical set itself (for structural
// equality under its hash) and its probability.
type entry struct {
	cls [][]int32
	p   float64
}

// hdrArenaBlock is how many clause-set header slots the arena allocates per
// backing array.
const hdrArenaBlock = 4096

// Store is the interned clause-set memo plus the header arena and scratch
// free list its keys live in. The zero value is ready after Reset. A Store
// is not safe for concurrent use — each compiling worker owns one.
type Store struct {
	memo map[uint64]entry
	over map[uint64][]entry // hash collisions between distinct sets
	free [][][]int32        // recycled headers
	// The header arena: every block ever allocated, kept across Resets, the
	// index of the one being carved, and its unused tail.
	blocks [][][]int32
	block  int
	hdrs   [][]int32

	// Effort counters, cumulative across Resets (callers record per-formula
	// deltas): memo hits and misses, and headers served from the free list
	// rather than carved fresh from the arena.
	hits, misses, recycled int64
}

// Reset drops every interned set and keeps all storage: the map buckets,
// and the arena's blocks, which Scratch carves again from the first. Every
// header handed out before — retained by Put, parked on the free list — is
// dead after it, so the free list empties too: its headers point into
// blocks about to be handed out again.
func (s *Store) Reset() {
	if s.memo == nil {
		s.memo = make(map[uint64]entry)
	}
	clear(s.memo)
	clear(s.over)
	s.free = s.free[:0]
	s.block, s.hdrs = -1, nil // Scratch steps to block 0
}

// Counters returns the cumulative memo hits, memo misses and recycled
// headers. They survive Reset, so per-formula figures are deltas.
func (s *Store) Counters() (hits, misses, recycled int64) {
	return s.hits, s.misses, s.recycled
}

// Get looks a canonical clause set up under its Hash.
func (s *Store) Get(h uint64, cls [][]int32) (p float64, ok bool) {
	e, ok := s.memo[h]
	if !ok {
		s.misses++
		return 0, false
	}
	if equalClauseSets(e.cls, cls) {
		s.hits++
		return e.p, true
	}
	for _, o := range s.over[h] {
		if equalClauseSets(o.cls, cls) {
			s.hits++
			return o.p, true
		}
	}
	s.misses++
	return 0, false
}

// Put interns a clause set the caller just missed on, retaining its header.
// The common case stores the entry inline in the map; only a hash collision
// between distinct sets allocates an overflow chain.
func (s *Store) Put(h uint64, cls [][]int32, p float64) {
	if _, ok := s.memo[h]; !ok {
		s.memo[h] = entry{cls: cls, p: p}
		return
	}
	if s.over == nil {
		s.over = make(map[uint64][]entry)
	}
	s.over[h] = append(s.over[h], entry{cls: cls, p: p})
}

// Scratch returns an empty clause-set header with room for n clauses: a
// recycled one from the free list when it fits, otherwise a slice of the
// header arena: the current block's tail, else the next kept block that
// fits, else a new block (one allocation per hdrArenaBlock slots, once per
// store — Reset rewinds instead of freeing). Headers retained by Put keep
// their arena storage until Reset; dead ones come back through Recycle.
func (s *Store) Scratch(n int) [][]int32 {
	if k := len(s.free); k > 0 {
		if f := s.free[k-1]; cap(f) >= n {
			s.free = s.free[:k-1]
			s.recycled++
			return f[:0]
		}
	}
	for len(s.hdrs) < n {
		if s.block++; s.block >= len(s.blocks) {
			s.blocks = append(s.blocks, make([][]int32, max(n, hdrArenaBlock)))
			s.block = len(s.blocks) - 1
		}
		s.hdrs = s.blocks[s.block]
	}
	f := s.hdrs[:0:n]
	s.hdrs = s.hdrs[n:]
	return f
}

// Recycle returns a clause-set header whose contents are dead.
func (s *Store) Recycle(cls [][]int32) {
	if cap(cls) > 0 {
		s.free = append(s.free, cls)
	}
}
