package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/freelist"
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

// drainList takes every idle buffer off a list.
func drainList[T any](l *freelist.List[T]) []T {
	var ls freelist.Lease
	var out []T
	for {
		x, ok := l.Largest(&ls)
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

// vecKinds has one column of every kind.
var vecKinds = table.NewSchema(table.DataCol("i", table.KindInt), table.DataCol("f", table.KindFloat),
	table.DataCol("s", table.KindString), table.DataCol("b", table.KindBool))

// drainVecs takes every idle column vector off the free list, in batches
// of one column a kind.
func drainVecs(ls *freelist.Lease) []*table.ColBatch {
	var out []*table.ColBatch
	for {
		b := table.NewColBatch(vecKinds)
		b.Draw(ls, 0)
		if b.MemSize() == 0 {
			return out
		}
		out = append(out, b)
	}
}

// drainSortLists takes every idle buffer a key sort draws off the free
// list, and drops them.
func drainSortLists() {
	var ls freelist.Lease
	drainVecs(&ls)
	drainList(freelist.Bytes)
	drainList(freelist.Uint32s)
	drainList(entLists)
	drainList(freelist.Int32s)
}

// idleBacking lists the backing arrays of the free list's idle sort
// buffers, failing on one listed twice: a buffer returned twice would be
// drawn by two sorters. It takes them off the list to look and puts them
// back, so it moves the list's figures.
func idleBacking(t *testing.T) map[any]bool {
	t.Helper()
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
	var ls freelist.Lease
	vecs := drainVecs(&ls)
	for _, b := range vecs {
		for c := range b.Cols {
			add(vecBacking(&b.Cols[c])...)
		}
		b.Recycle(&ls)
	}
	keys, offs, ents := drainList(freelist.Bytes), drainList(freelist.Uint32s), drainList(entLists)
	for _, b := range keys {
		add(first(b))
		freelist.Bytes.Put(&ls, b)
	}
	for _, b := range offs {
		add(first(b))
		freelist.Uint32s.Put(&ls, b)
	}
	for _, b := range ents {
		add(first(b))
		entLists.Put(&ls, b)
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
// after a failed FinishBatches, a governed sorter's buffers dropped
// mid-sort, and the four sorters of one partitioned pass sharing the lists
// — so no array is ever idle twice, and two live sorters never share one.
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
	before := freelist.Read()
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
	if after := freelist.Read(); after != before {
		t.Errorf("a governed sort moved the free list's figures: %+v → %+v", before, after)
	}
	idleBacking(t)

	// Two live sorters draw disjoint buffers, none of them still idle.
	a := NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	b := NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	feedKeySort(t, a, rows[:100])
	feedKeySort(t, b, rows[:100])
	if !a.pooled || !b.pooled || a.lease == (freelist.Lease{}) {
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

	// A partitioned pass: four sorters, two spilling and two not, are fed
	// and finished concurrently on the one set of lists, and their streams
	// are closed in random order. Each sorts what a lone sorter sorts.
	const parts = 4
	budgets := [2]int{700, 1 << 16}
	in := make([][]table.Tuple, parts)
	for i, r := range keySortInput(rand.New(rand.NewSource(7)), 6000, "") {
		in[i%parts] = append(in[i%parts], r)
	}
	want := make([][]table.Tuple, parts)
	for p := range parts {
		lone := NewKeySorter(keySortSchema, cols, budgets[p%2], t.TempDir())
		feedKeySort(t, lone, in[p])
		it, err := lone.FinishBatches()
		if err != nil {
			t.Fatal(err)
		}
		want[p] = drain(t, it)
		it.Close()
	}
	streams := make([]*SortedBatches, parts)
	errs := make([]error, parts)
	spills := make([]int, parts)
	var wg sync.WaitGroup
	for p := range parts {
		dir := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewKeySorter(keySortSchema, cols, budgets[p%2], dir)
			if errs[p] = addRows(s, in[p]...); errs[p] != nil {
				s.Discard()
				return
			}
			streams[p], errs[p] = s.FinishBatches()
			spills[p] = s.Spills()
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		if spilled := spills[p] > 0; spilled != (p%2 == 0) {
			t.Fatalf("partition %d spilled %d runs under a budget of %d rows", p, spills[p], budgets[p%2])
		}
	}
	for _, p := range rand.New(rand.NewSource(8)).Perm(parts) {
		if err := sameTuples(drain(t, streams[p]), want[p]); err != nil {
			t.Errorf("partition %d sorted differently from a lone sorter: %v", p, err)
		}
		if err := streams[p].Close(); err != nil {
			t.Fatal(err)
		}
		idleBacking(t)
	}
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
		b.Cols[1].AppendValue(i, table.Int(int64(seq0+i)))
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
	// Start from empty lists, so that each sort draws what the previous one
	// gave back.
	drainSortLists()
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
