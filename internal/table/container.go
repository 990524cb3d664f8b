package table

// Hash-keyed tuple containers: the equality structure behind duplicate
// elimination and answer dedup.
// Keys are HashOn hashes (uint64) with Compare-based collision chains, so
// inserting or probing an existing key never allocates — unlike a
// map[string] keyed by a rendered key, which pays one string build per row.
// Values equal under Compare hash equally (see HashOn), so cross-kind
// numeric keys (int vs float) land in the same bucket and chain-compare
// equal.

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
