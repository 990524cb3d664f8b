package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/table"
)

// backing lists the first element of every backing array the buffers hold,
// as a comparable pointer: two buffers share an array exactly when they
// list the same pointer.
func backing(b *sortBufs) []any {
	var out []any
	add := func(ps ...any) {
		for _, p := range ps {
			if p != nil {
				out = append(out, p)
			}
		}
	}
	for c := range b.run.Cols {
		add(vecBacking(&b.run.Cols[c])...)
	}
	add(first(b.keys), first(b.offs), first(b.ents), first(b.aux))
	return out
}

func vecBacking(v *table.ColVec) []any {
	return []any{first(v.Ints), first(v.Floats), first(v.Strs), first(v.Bytes),
		first(v.Offs), first(v.Nulls)}
}

func first[T any](s []T) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// idleBacking lists the backing arrays on the free list, failing on one
// listed twice: a buffer returned twice would be drawn by two sorters.
func idleBacking(t *testing.T) map[any]bool {
	t.Helper()
	sortBufPool.mu.Lock()
	defer sortBufPool.mu.Unlock()
	seen := make(map[any]bool)
	add := func(ps ...any) {
		for _, p := range ps {
			if p == nil {
				continue
			}
			if seen[p] {
				t.Fatalf("a backing array is on the free list twice")
			}
			seen[p] = true
		}
	}
	for i := range sortBufPool.slots {
		s := &sortBufPool.slots[i]
		for k := range s.vecs {
			for j := range s.vecs[k] {
				add(vecBacking(&s.vecs[k][j])...)
			}
		}
		for _, b := range s.keys {
			add(first(b))
		}
		for _, b := range s.offs {
			add(first(b))
		}
		for _, b := range s.ents {
			add(first(b))
		}
	}
	return seen
}

func feedKeySort(t *testing.T, s *ExternalSorter, rows []table.Tuple) {
	t.Helper()
	if err := addRows(s, rows...); err != nil {
		t.Fatal(err)
	}
}

// TestSortBuffersOneOwner: a key sorter's buffers go back to the free list
// at most once, whatever order its owners are released in — the stream
// closed twice, the sorter discarded after its stream closed, discarded
// after a failed FinishBatches, and a governed sorter's buffers dropped
// mid-sort — so no array is ever idle twice, and two live sorters never
// share one.
func TestSortBuffersOneOwner(t *testing.T) {
	cols := []int{0, 1, 2}
	rows := keySortInput(rand.New(rand.NewSource(5)), 3000, "")

	// Unspilled: the stream owns the buffers once FinishBatches returns.
	s := NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	feedKeySort(t, s, rows)
	it, err := s.FinishBatches()
	if err != nil {
		t.Fatal(err)
	}
	s.Discard() // before Close: the stream's buffers are not the sorter's
	if got := drain(t, it); len(got) != len(rows) {
		t.Fatalf("sorted %d rows after Discard, want %d", len(got), len(rows))
	}
	for range 2 {
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s.Discard()
	idleBacking(t)

	// Spilled: FinishBatches gives the buffers back before the merge.
	s = NewKeySorter(keySortSchema, cols, 700, t.TempDir())
	feedKeySort(t, s, rows)
	it, err = s.FinishBatches()
	if err != nil {
		t.Fatal(err)
	}
	s.Discard()
	drain(t, it)
	it.Close()
	it.Close()
	idleBacking(t)

	// A failed FinishBatches discards the sort itself; Discard again finds
	// nothing to give back.
	dir := t.TempDir()
	s = NewKeySorter(keySortSchema, cols, 700, dir)
	feedKeySort(t, s, rows) // four runs and a 200-row tail
	s.tmpDir = filepath.Join(dir, "gone")
	if _, err := s.FinishBatches(); err == nil {
		t.Fatal("FinishBatches succeeded with its tail spill failing")
	}
	s.Discard()
	s.Discard()
	idleBacking(t)

	// Governed: neither drawn nor given back, also through the early
	// spills that drop the buffers mid-sort.
	before := ReadSortBufferStats()
	s = NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	s.Govern(fault.NewGovernor(4*memChunk, nil))
	feedKeySort(t, s, keySortInput(rand.New(rand.NewSource(6)), 20000, ""))
	if s.EarlySpills() == 0 {
		t.Fatal("the tight governor forced no early spill")
	}
	it, err = s.FinishBatches()
	if err != nil {
		t.Fatal(err)
	}
	drain(t, it)
	it.Close()
	s.Discard()
	if after := ReadSortBufferStats(); after != before {
		t.Errorf("a governed sort moved the free list's figures: %+v → %+v", before, after)
	}
	idleBacking(t)

	// Two live sorters draw disjoint buffers, none of them still idle.
	a := NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	b := NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	feedKeySort(t, a, rows[:100])
	feedKeySort(t, b, rows[:100])
	if !a.pooled || !b.pooled || a.drawn == 0 {
		t.Fatal("ungoverned sorters did not draw from the free list")
	}
	idle := idleBacking(t)
	owner := make(map[any]string)
	for name, bufs := range map[string]*sortBufs{"a": &a.sortBufs, "b": &b.sortBufs} {
		for _, p := range backing(bufs) {
			if o, dup := owner[p]; dup {
				t.Fatalf("sorters %s and %s share a backing array", o, name)
			}
			if idle[p] {
				t.Fatalf("sorter %s holds an array that is still on the free list", name)
			}
			owner[p] = name
		}
	}
	a.Discard()
	b.Discard()
	idleBacking(t)
}

// strBatch is a batch of the (s string, seq int) schema whose string column
// is in the flat layout, the heap scan's, or holds shared headers.
func strBatch(schema *table.Schema, strs []string, seq0 int, flat bool) *table.ColBatch {
	b := table.NewColBatch(schema)
	for i, s := range strs {
		if flat {
			b.Cols[0].AppendStrBytes([]byte(s))
		} else {
			b.Cols[0].AppendValue(i, table.Str(s))
		}
		b.Cols[1].AppendInt(int64(seq0 + i))
	}
	b.N = len(strs)
	return b
}

// TestRecycledStringColumnLayouts: a string vector recycled from one sort
// into the next — flat into flat with other strings and other
// cardinalities, into shared headers, and headers back into flat — takes
// the layout a fresh vector takes and sorts bit-identically to a fresh
// sorter: no layout carries over from the column it held before.
func TestRecycledStringColumnLayouts(t *testing.T) {
	schema := table.NewSchema(table.DataCol("s", table.KindString), table.DataCol("seq", table.KindInt))
	cols := []int{0, 1}
	rng := rand.New(rand.NewSource(9))
	input := func(prefix string, distinct int, flat bool) []*table.ColBatch {
		var out []*table.ColBatch
		for lo := 0; lo < 3000; lo += 1000 {
			strs := make([]string, 1000)
			for i := range strs {
				strs[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(distinct))
			}
			out = append(out, strBatch(schema, strs, lo, flat))
		}
		return out
	}
	sortOn := func(s *ExternalSorter, in []*table.ColBatch) (table.StrMode, []table.Tuple) {
		for _, b := range in {
			if err := s.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.FinishBatches()
		if err != nil {
			t.Fatal(err)
		}
		mode := it.bufs.run.Cols[0].Mode
		out := drain(t, it)
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		return mode, out
	}
	const slot = 97 // a slot of the test's own: each sort draws what the previous one gave back
	for _, step := range []struct {
		name string
		in   []*table.ColBatch
		mode table.StrMode
	}{
		{"few", input("a", 4, true), table.StrFlat},
		{"few-other-strings", input("b", 5, true), table.StrFlat},
		{"many", input("c", 2000, true), table.StrFlat},
		{"few-after-many", input("d", 3, true), table.StrFlat},
		{"header-after-flat", input("e", 4, false), table.StrHeader},
		{"flat-after-header", input("f", 3, true), table.StrFlat},
	} {
		fresh := NewKeySorter(schema, cols, 1<<16, t.TempDir())
		fresh.Govern(fault.NewGovernor(0, nil)) // governed: bypasses the free list
		wantMode, want := sortOn(fresh, step.in)
		recycled := NewKeySorter(schema, cols, 1<<16, t.TempDir())
		recycled.Slot(slot)
		gotMode, got := sortOn(recycled, step.in)
		if wantMode != step.mode {
			t.Fatalf("%s: a fresh run buffer took layout %d, want %d", step.name, wantMode, step.mode)
		}
		if gotMode != wantMode {
			t.Errorf("%s: recycled run buffer took layout %d; fresh: %d", step.name, gotMode, wantMode)
		}
		if err := sameTuples(got, want); err != nil {
			t.Errorf("%s: recycled sort differs from a fresh one: %v", step.name, err)
		}
	}
}
