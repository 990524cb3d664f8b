package clauseset

import (
	"testing"
)

// TestCollisionChain forces two distinct canonical sets under one hash —
// the caller supplies the hash, so no hook is needed — and checks the
// overflow chain neither tier ever exercised: both sets stay retrievable,
// the counters tell hits from misses, and Reset drops both while keeping
// the storage.
func TestCollisionChain(t *testing.T) {
	var s Store
	s.Reset()
	a := [][]int32{{1, 2}, {3}}
	b := [][]int32{{1}, {2, 3}}
	c := [][]int32{{7}}
	const h = 42 // one forced hash for all three

	if _, ok := s.Get(h, a); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put(h, a, 0.25)
	if _, ok := s.Get(h, b); ok {
		t.Fatal("colliding but distinct set reported a hit")
	}
	s.Put(h, b, 0.75)
	if got, ok := s.Get(h, a); !ok || got != 0.25 {
		t.Errorf("inline entry: got %v, %v", got, ok)
	}
	if got, ok := s.Get(h, b); !ok || got != 0.75 {
		t.Errorf("overflow entry: got %v, %v", got, ok)
	}
	if _, ok := s.Get(h, c); ok {
		t.Error("third colliding set reported a hit")
	}
	if hits, misses, _ := s.Counters(); hits != 2 || misses != 3 {
		t.Errorf("counters: %d hits, %d misses, want 2 and 3", hits, misses)
	}

	s.Reset()
	if _, ok := s.Get(h, a); ok {
		t.Error("Reset kept the inline entry")
	}
	if _, ok := s.Get(h, b); ok {
		t.Error("Reset kept the overflow entry")
	}
	if hits, misses, _ := s.Counters(); hits != 2 || misses != 5 {
		t.Errorf("counters after Reset: %d hits, %d misses, want 2 and 5 (cumulative)", hits, misses)
	}
	// Capacity survives: re-interning into the cleared buckets is free.
	if avg := testing.AllocsPerRun(10, func() {
		s.Reset()
		s.Put(h, a, 0.25)
		s.Put(Hash(b), b, 0.75)
	}); avg != 0 {
		t.Errorf("re-interning after Reset allocated %.1f times, want 0", avg)
	}
}

// TestScratchRecycling: headers come from the arena, return through
// Recycle, and are handed out again when they fit.
func TestScratchRecycling(t *testing.T) {
	var s Store
	h := s.Scratch(4)
	if len(h) != 0 || cap(h) != 4 {
		t.Fatalf("fresh header len %d cap %d, want 0 and 4", len(h), cap(h))
	}
	s.Recycle(h)
	if got := s.Scratch(3); cap(got) != 4 {
		t.Errorf("fitting request got cap %d, want the recycled header (cap 4)", cap(got))
	}
	s.Recycle(h)
	if got := s.Scratch(5); cap(got) != 5 {
		t.Errorf("oversized request got cap %d, want a fresh header of cap 5", cap(got))
	}
	if _, _, recycled := s.Counters(); recycled != 1 {
		t.Errorf("recycled = %d, want 1", recycled)
	}
	s.Recycle(nil) // a nil header has no storage to keep
	if got := s.Scratch(hdrArenaBlock + 1); cap(got) != hdrArenaBlock+1 {
		t.Errorf("request beyond the block size got cap %d", cap(got))
	}
}

// TestResetRewindsArena: Reset keeps the arena's blocks and hands them out
// again from the first — a second formula's worth of headers, spanning
// several blocks and one oversized request, allocates nothing — and empties
// the free list, whose headers point into the blocks being reused.
func TestResetRewindsArena(t *testing.T) {
	var s Store
	lits := []int32{7}
	formula := func() {
		s.Reset()
		for i := 0; i < 3*hdrArenaBlock/64; i++ {
			s.Put(uint64(i), append(s.Scratch(64), lits), float64(i))
		}
		s.Recycle(s.Scratch(hdrArenaBlock + 7))
	}
	formula()
	if avg := testing.AllocsPerRun(10, formula); avg != 0 {
		t.Errorf("a second formula on a Reset store allocated %.1f times, want 0", avg)
	}
	_, _, before := s.Counters()
	s.Reset()
	first := s.Scratch(64)
	if _, _, after := s.Counters(); after != before {
		t.Error("Reset kept the free list: the first header of the next formula was a recycled one")
	}
	// The rewound arena must not hand one slot out twice.
	second := s.Scratch(64)
	first, second = append(first, []int32{1}), append(second, []int32{2})
	if first[0][0] != 1 || second[0][0] != 2 {
		t.Error("two live headers share arena storage after Reset")
	}
}

// TestNormalize: sorted, deduplicated, in place — and the canonical form is
// what Hash keys on.
func TestNormalize(t *testing.T) {
	got := Normalize([][]int32{{2, 3}, {1}, {2}, {2, 3}, {1}})
	want := [][]int32{{1}, {2}, {2, 3}}
	if !equalClauseSets(got, want) {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
	if Hash(got) != Hash(want) {
		t.Error("equal canonical sets hash differently")
	}
	if Hash([][]int32{{1, 2}}) == Hash([][]int32{{1}, {2}}) {
		t.Error("clause boundaries do not reach the hash")
	}
}
