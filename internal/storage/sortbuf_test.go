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

// memChunk is a governed sorter's charge step.
const memChunk = fault.ReservationStep

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
	return []any{first(v.Ints), first(v.Floats), first(v.Bytes), first(v.Offs), first(v.Nulls)}
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
		b.Recycle(&ls, 0)
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

	// Governed: the run buffers are neither drawn nor given back, also
	// through the early spills that drop them mid-sort; the merge of the
	// runs, which is never charged, draws its pages and block vectors off
	// the free list and gives each back once when its stream closes — a
	// block of short strings too, so that the next merge draws it again.
	idle := idleBacking(t)
	idlePages := make(map[*Page]bool)
	for _, p := range drainList(pageList) {
		idlePages[p] = true
		pageList.Put(new(freelist.Lease), p)
	}
	s = NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	s.Govern(fault.NewGovernor(4*memChunk, nil))
	feedKeySort(t, s, keySortInput(rand.New(rand.NewSource(6)), 20000, ""))
	if s.EarlySpills() == 0 {
		t.Fatal("the tight governor forced no early spill")
	}
	run := backing(&s.sortBufs)
	if s.pooled || len(run) == 0 {
		t.Fatalf("a governed sorter drew its run buffers (%v) or holds none (%d arrays)", s.pooled, len(run))
	}
	for _, p := range run {
		if idle[p] {
			t.Fatal("a governed sorter holds an array that was idle on the free list")
		}
	}
	it, err = s.FinishBatches()
	if err != nil {
		t.Fatal(err)
	}
	drain(t, it) // the blocks' arrays as they end
	var merged []any
	drewPage := false
	for _, hs := range [][]mergeHead{it.merge.heads, it.merge.idle} {
		for i := range hs {
			merged = append(merged, hs[i].page)
			drewPage = drewPage || idlePages[hs[i].page]
			for c := range hs[i].block.Cols {
				for _, p := range vecBacking(&hs[i].block.Cols[c]) {
					if p != nil {
						merged = append(merged, p)
					}
				}
			}
		}
	}
	if !drewPage {
		t.Fatal("the governed sort's merge drew no page off the free list")
	}
	it.Close()
	it.Close()
	s.Discard()
	idle = idleBacking(t)
	for _, p := range run {
		if idle[p] {
			t.Fatal("a governed sorter gave a run buffer back to the free list")
		}
	}
	pages := make(map[any]int)
	for _, p := range drainList(pageList) {
		pages[p]++
		pageList.Put(new(freelist.Lease), p)
	}
	for _, p := range merged {
		if pg, ok := p.(*Page); ok {
			if pages[pg] != 1 {
				t.Fatalf("a merge page is idle %d times after its stream closed, want once", pages[pg])
			}
		} else if !idle[p] {
			t.Fatal("a merge block's array is not back on the free list after its stream closed")
		}
	}

	// Two live sorters draw disjoint buffers, none of them still idle.
	a := NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	b := NewKeySorter(keySortSchema, cols, 1<<16, t.TempDir())
	feedKeySort(t, a, rows[:100])
	feedKeySort(t, b, rows[:100])
	if !a.pooled || !b.pooled || a.lease == (freelist.Lease{}) {
		t.Fatal("ungoverned sorters did not draw from the free list")
	}
	idle = idleBacking(t)
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

// strBatch is a batch of the (s string, seq int) schema.
func strBatch(schema *table.Schema, strs []string, seq0 int) *table.ColBatch {
	b := table.NewColBatch(schema)
	for i, s := range strs {
		b.AppendRow(table.Tuple{table.Str(s), table.Int(int64(seq0 + i))})
	}
	return b
}

// TestRecycledStringColumnLayouts: a string vector recycled from one sort
// into the next — with other strings, other cardinalities, shorter and
// longer cells — is the one the previous sort gave back, and sorts
// bit-identically to a fresh sorter: nothing carries over from the column
// it held before.
func TestRecycledStringColumnLayouts(t *testing.T) {
	schema := table.NewSchema(table.DataCol("s", table.KindString), table.DataCol("seq", table.KindInt))
	cols := []int{0, 1}
	rng := rand.New(rand.NewSource(9))
	input := func(prefix string, distinct int) []*table.ColBatch {
		var out []*table.ColBatch
		for lo := 0; lo < 3000; lo += 1000 {
			strs := make([]string, 1000)
			for i := range strs {
				strs[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(distinct))
			}
			out = append(out, strBatch(schema, strs, lo))
		}
		return out
	}
	sortOn := func(s *ExternalSorter, in []*table.ColBatch) (any, []table.Tuple) {
		for _, b := range in {
			if err := s.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.FinishBatches()
		if err != nil {
			t.Fatal(err)
		}
		offs := first(it.bufs.run.Cols[0].Offs)
		out := drain(t, it)
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		return offs, out
	}
	// Start from empty lists, so that each sort draws what the previous one
	// gave back.
	drainSortLists()
	var last any
	for _, step := range []struct {
		name string
		in   []*table.ColBatch
	}{
		{"few", input("a", 4)},
		{"few-other-strings", input("b", 5)},
		{"many", input("c", 2000)},
		{"few-after-many", input("d", 3)},
		{"long-after-short", input("a-much-longer-prefix-", 40)},
		{"short-after-long", input("f", 3)},
	} {
		fresh := NewKeySorter(schema, cols, 1<<16, t.TempDir())
		fresh.Govern(fault.NewGovernor(0, nil)) // governed: bypasses the free list
		_, want := sortOn(fresh, step.in)
		recycled := NewKeySorter(schema, cols, 1<<16, t.TempDir())
		offs, got := sortOn(recycled, step.in)
		if last != nil && offs != last {
			t.Errorf("%s: the run's string vector is not the one the previous sort gave back", step.name)
		}
		last = offs
		if err := sameTuples(got, want); err != nil {
			t.Errorf("%s: recycled sort differs from a fresh one: %v", step.name, err)
		}
	}
}
