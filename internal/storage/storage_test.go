package storage

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

func sampleTuple(i int) table.Tuple {
	return table.Tuple{
		table.Int(int64(i)),
		table.Str("name-" + string(rune('a'+i%26))),
		table.Float(float64(i) / 3),
		table.Bool(i%2 == 0),
		table.Null(),
	}
}

func tuplesEqual(a, b table.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !table.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestHeapFileWriteReadScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := h.Append(sampleTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FinishWrites(); err != nil {
		t.Fatal(err)
	}
	if h.NumTuples() != n {
		t.Fatalf("NumTuples = %d", h.NumTuples())
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
	sc := h.NewScanner(nil)
	count := 0
	for {
		tup, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !tuplesEqual(tup, sampleTuple(count)) {
			t.Fatalf("tuple %d mismatch: %v", count, tup)
		}
		count++
	}
	if count != n {
		t.Fatalf("scanned %d tuples, want %d", count, n)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open read-only and scan through a buffer pool.
	h2, err := OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := h2.Append(sampleTuple(0)); err == nil {
		t.Error("append to read-only heap file should fail")
	}
	pool := NewBufferPool(2)
	sc2 := h2.NewScanner(pool)
	defer sc2.Close()
	count = 0
	for {
		_, ok, err := sc2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != n {
		t.Fatalf("pooled scan saw %d tuples, want %d", count, n)
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := h.Append(sampleTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FinishWrites(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.NumPages() < 3 {
		t.Fatalf("need ≥3 pages, got %d", h.NumPages())
	}
	pool := NewBufferPool(2)
	// Fetch page 0 twice: second time must be a hit.
	fr, err := pool.Fetch(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fr)
	fr, err = pool.Fetch(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fr)
	hits, misses := pool.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Touch pages 1 and 2: page 0 must be evicted (capacity 2).
	for _, no := range []int64{1, 2} {
		fr, err := pool.Fetch(h, no)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr)
	}
	fr, err = pool.Fetch(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fr)
	_, misses = pool.Stats()
	if misses != 4 {
		t.Fatalf("misses=%d, want 4 (page 0 was evicted)", misses)
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := h.Append(sampleTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FinishWrites(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pool := NewBufferPool(1)
	fr, err := pool.Fetch(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(h, 1); err == nil {
		t.Error("fetch with all frames pinned should fail")
	}
	pool.Unpin(fr)
	if _, err := pool.Fetch(h, 1); err != nil {
		t.Errorf("fetch after unpin should succeed: %v", err)
	}
}

func cmpFirstInt(a, b table.Tuple) int { return table.Compare(a[0], b[0]) }

func TestExternalSortInMemory(t *testing.T) {
	s := NewExternalSorter(cmpFirstInt, 1000, t.TempDir())
	for _, v := range []int64{5, 3, 9, 1} {
		if err := s.Add(table.Tuple{table.Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	want := []int64{1, 3, 5, 9}
	for _, w := range want {
		tup, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
		if tup[0].I != w {
			t.Fatalf("got %d, want %d", tup[0].I, w)
		}
	}
	if _, ok, _ := it.Next(); ok {
		t.Error("iterator should be exhausted")
	}
	if s.Spills() != 0 {
		t.Errorf("small input should not spill, got %d runs", s.Spills())
	}
}

func TestExternalSortSpilling(t *testing.T) {
	const n = 10000
	r := rand.New(rand.NewSource(7))
	s := NewExternalSorter(cmpFirstInt, 512, t.TempDir())
	vals := make([]int, n)
	for i := range vals {
		vals[i] = r.Intn(100000)
		if err := s.Add(table.Tuple{table.Int(int64(vals[i])), table.Str("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if s.Spills() < 2 {
		t.Fatalf("expected multiple spilled runs, got %d", s.Spills())
	}
	slices.Sort(vals)
	for i := 0; i < n; i++ {
		tup, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
		if tup[0].I != int64(vals[i]) {
			t.Fatalf("position %d: got %d, want %d", i, tup[0].I, vals[i])
		}
	}
	if _, ok, _ := it.Next(); ok {
		t.Error("iterator should be exhausted")
	}
}

func TestExternalSortStability(t *testing.T) {
	// Equal keys must retain insertion order within and across runs.
	s := NewExternalSorter(cmpFirstInt, 4, t.TempDir())
	for i := 0; i < 20; i++ {
		if err := s.Add(table.Tuple{table.Int(int64(i % 2)), table.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	lastSeq := map[int64]int64{0: -1, 1: -1}
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		k, seq := tup[0].I, tup[1].I
		if seq <= lastSeq[k] {
			t.Fatalf("stability violated for key %d: %d after %d", k, seq, lastSeq[k])
		}
		lastSeq[k] = seq
	}
}

func TestQuickExternalSortMatchesSortSlice(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(300)
		vals := make([]int, n)
		s := NewExternalSorter(cmpFirstInt, 16, t.TempDir())
		for i := range vals {
			vals[i] = r.Intn(50)
			if err := s.Add(table.Tuple{table.Int(int64(vals[i]))}); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		slices.Sort(vals)
		for i := 0; i < n; i++ {
			tup, ok, err := it.Next()
			if err != nil || !ok || tup[0].I != int64(vals[i]) {
				return false
			}
		}
		_, ok, _ := it.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
