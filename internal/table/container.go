package table

// Hash-keyed tuple containers: the equality structures behind the engine's
// hash join build side, duplicate elimination, and answer dedup. Keys are
// HashOn hashes (uint64) with Compare-based collision chains, so inserting
// or probing an existing key never allocates — unlike a map[string] keyed by
// a rendered key, which pays one string build per row. Values equal under
// Compare hash equally (see HashOn), so cross-kind numeric keys (int vs
// float join attributes) land in the same bucket and chain-compare equal.

// EqualOn2 reports whether a's values at aIdx equal b's values at bIdx
// pairwise under Compare semantics — the key equality of the containers'
// collision chains.
func EqualOn2(a Tuple, aIdx []int, b Tuple, bIdx []int) bool {
	for i := range aIdx {
		if Compare(a[aIdx[i]], b[bIdx[i]]) != 0 {
			return false
		}
	}
	return true
}

// tmGroup holds the rows sharing one exact key value: the first row inline
// (the representative the probe compares against) and any further rows in
// rest — so a unique key never allocates a per-group slice.
type tmGroup struct {
	first Tuple
	rest  []Tuple
}

// TupleMap is a multimap from key columns to tuples — the build side of a
// hash equi-join. Groups live inline in a map keyed by the tuple hash;
// distinct keys that collide on the hash (rare) spill to an overflow chain.
// Stored tuples must be stable: the map retains them.
type TupleMap struct {
	keyIdx   []int
	buckets  map[uint64]tmGroup
	overflow map[uint64][]tmGroup
}

// NewTupleMap builds an empty map keyed on the given column indexes.
func NewTupleMap(keyIdx []int, sizeHint int) *TupleMap {
	return &TupleMap{keyIdx: keyIdx, buckets: make(map[uint64]tmGroup, sizeHint)}
}

// AddHashed inserts t under its key columns, given their HashOn hash —
// precomputed because the hash join's build loop hashes each batch at once
// (ColBatch.HashInto).
func (m *TupleMap) AddHashed(h uint64, t Tuple) {
	g, ok := m.buckets[h]
	if !ok {
		m.buckets[h] = tmGroup{first: t}
		return
	}
	if EqualOn2(t, m.keyIdx, g.first, m.keyIdx) {
		g.rest = append(g.rest, t)
		m.buckets[h] = g
		return
	}
	if m.overflow == nil {
		m.overflow = make(map[uint64][]tmGroup)
	}
	chain := m.overflow[h]
	for i := range chain {
		if EqualOn2(t, m.keyIdx, chain[i].first, m.keyIdx) {
			chain[i].rest = append(chain[i].rest, t)
			return
		}
	}
	m.overflow[h] = append(chain, tmGroup{first: t})
}

// Group names one key's rows: First, then Rest in insertion order.
type Group struct {
	First Tuple
	Rest  []Tuple
}

// LookupHashedCols returns the group of stored tuples whose key columns
// equal physical row `row` of b at probeIdx (ok=false when none). The hash
// is precomputed (ColBatch.HashInto), and key equality compares the stored
// tuples' key cells against the batch row without materializing it; values
// equal under Compare hash equally. The probe allocates nothing.
func (m *TupleMap) LookupHashedCols(h uint64, b *ColBatch, probeIdx []int, row int) (Group, bool) {
	g, found := m.buckets[h]
	if !found {
		return Group{}, false
	}
	if equalColsTuple(b, probeIdx, row, g.first, m.keyIdx) {
		return Group{First: g.first, Rest: g.rest}, true
	}
	for _, o := range m.overflow[h] {
		if equalColsTuple(b, probeIdx, row, o.first, m.keyIdx) {
			return Group{First: o.first, Rest: o.rest}, true
		}
	}
	return Group{}, false
}

// equalColsTuple reports pairwise key equality between a batch row's cells
// and a stored tuple under Compare semantics.
func equalColsTuple(b *ColBatch, bIdx []int, row int, t Tuple, tIdx []int) bool {
	for k := range bIdx {
		if b.Cols[bIdx[k]].CompareValue(row, t[tIdx[k]]) != 0 {
			return false
		}
	}
	return true
}

// TupleSet is a set of tuples keyed on a fixed column subset — duplicate
// elimination without per-row key strings.
type TupleSet struct {
	keyIdx  []int
	buckets map[uint64][]Tuple
	len     int
}

// NewTupleSet builds an empty set keyed on the given column indexes.
func NewTupleSet(keyIdx []int, sizeHint int) *TupleSet {
	return &TupleSet{keyIdx: keyIdx, buckets: make(map[uint64][]Tuple, sizeHint)}
}

// Len returns the number of distinct keys inserted.
func (s *TupleSet) Len() int { return s.len }

// Add inserts t's key if absent, returning the retained tuple and whether
// it was new (on a duplicate, the previously stored tuple). Probing an
// existing key allocates nothing. When clone is set, a newly inserted tuple
// is cloned before the set retains it — pass clone=false only for tuples
// that are already stable (owned by the caller, never overwritten).
func (s *TupleSet) Add(t Tuple, clone bool) (Tuple, bool) {
	h := HashOn(t, s.keyIdx)
	chain := s.buckets[h]
	for _, e := range chain {
		if EqualOn2(t, s.keyIdx, e, s.keyIdx) {
			return e, false
		}
	}
	if clone {
		t = t.Clone()
	}
	s.buckets[h] = append(chain, t)
	s.len++
	return t, true
}

// slabBlock is how many values a Slab allocates per backing array.
const slabBlock = 4096

// Slab carves tuples out of large shared backing arrays: one allocation per
// slabBlock values instead of one per tuple. Its tuples stay valid
// forever (blocks are never reused), so a Slab suits materialization —
// collectors, hash join builds — where every tuple is retained anyway.
type Slab struct {
	vals []Value
}

// Alloc carves a zeroed n-value tuple out of slab storage.
func (s *Slab) Alloc(n int) Tuple {
	if n > len(s.vals) {
		size := slabBlock
		if n > size {
			size = n
		}
		s.vals = make([]Value, size)
	}
	c := Tuple(s.vals[:n:n])
	s.vals = s.vals[n:]
	return c
}
