package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/table"
)

// keySortInput generates n four-column tuples — string, int, float, arrival
// sequence — with few distinct values per sort column, so that earlier
// columns tie, whole keys repeat, and NULLs appear everywhere. stem leads
// every string: a long one pushes the first differing key byte past what a
// run's prefix scan looks at.
func keySortInput(rng *rand.Rand, n int, stem string) []table.Tuple {
	rows := make([]table.Tuple, n)
	for i := range rows {
		s := table.Str(stem + strings.Repeat("k", rng.Intn(3)) + string(rune('a'+rng.Intn(4))))
		iv := table.Int(int64(rng.Intn(600) - 300))
		fv := table.Float(float64(rng.Intn(9)-4) / 4)
		for _, v := range []*table.Value{&s, &iv, &fv} {
			if rng.Intn(12) == 0 {
				*v = table.Null()
			}
		}
		rows[i] = table.Tuple{s, iv, fv, table.Int(int64(i))}
	}
	return rows
}

// keySortSchema is the schema of keySortInput's rows.
var keySortSchema = table.NewSchema(table.DataCol("s", table.KindString), table.DataCol("i", table.KindInt),
	table.DataCol("f", table.KindFloat), table.DataCol("seq", table.KindInt))

// drain materializes a key sort's sorted batches into tuples, checking that
// no batch is over table.BatchSize rows.
func drain(t *testing.T, it *SortedBatches) []table.Tuple {
	t.Helper()
	var out []table.Tuple
	var b table.ColBatch
	for {
		n, err := it.NextColBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		if n > table.BatchSize || b.Sel != nil {
			t.Fatalf("sorted batch of %d rows (selection %v)", n, b.Sel != nil)
		}
		for i := 0; i < n; i++ {
			row := make(table.Tuple, len(b.Cols))
			b.WriteRow(i, row)
			out = append(out, row)
		}
	}
}

// addRows feeds rows to a key sorter in order, one row per column batch of
// the sorter's schema.
func addRows(s *ExternalSorter, rows ...table.Tuple) error {
	schema := s.run.Schema
	b := table.NewColBatch(schema)
	for _, r := range rows {
		b.Reset(schema)
		b.AppendRow(r)
		if err := s.AddBatch(b); err != nil {
			return err
		}
	}
	return nil
}

func sameTuples(a, b []table.Tuple) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d tuples, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return fmt.Errorf("position %d: got %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestKeySorterMatchesStableSort: the key sorter's output equals a stable
// comparator sort of the same input — unspilled (radix and small-run
// paths) and spilled into many runs.
func TestKeySorterMatchesStableSort(t *testing.T) {
	cols := []int{0, 1, 2}
	for _, tc := range []struct {
		name      string
		n, budget int
		stem      string
	}{
		{"small-unspilled", 100, 1 << 16, ""},
		{"radix-unspilled", 5000, 1 << 16, ""},
		{"spilled-small-runs", 3000, 64, ""},
		{"spilled-radix-runs", 6000, 700, ""},
		{"long-common-stem", 2000, 600, strings.Repeat("s", 300)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := keySortInput(rand.New(rand.NewSource(int64(tc.n))), tc.n, tc.stem)
			want := slices.Clone(rows)
			slices.SortStableFunc(want, func(a, b table.Tuple) int { return table.CompareOn(a, b, cols) })

			dir := t.TempDir()
			s := NewKeySorter(keySortSchema, cols, tc.budget, dir)
			if err := addRows(s, rows...); err != nil {
				t.Fatal(err)
			}
			it, err := s.FinishBatches()
			if err != nil {
				t.Fatal(err)
			}
			if spilled := s.Spills() > 0; spilled != (tc.budget < tc.n) {
				t.Fatalf("spilled %d runs with budget %d for %d tuples", s.Spills(), tc.budget, tc.n)
			}
			var onDisk int64
			for _, e := range spillDirEntries(t, dir) {
				info, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				onDisk += info.Size()
			}
			if s.SpillBytes() != onDisk {
				t.Errorf("SpillBytes %d, run files hold %d", s.SpillBytes(), onDisk)
			}
			got := drain(t, it)
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sameTuples(got, want); err != nil {
				t.Fatal(err)
			}
			if left := spillDirEntries(t, dir); len(left) != 0 {
				t.Errorf("spill files left after Close: %v", left)
			}
		})
	}
}

// TestBorrowedMergeReusesStorage: a spilled sort's merge decodes into
// per-run buffers and appends each row to the caller's batch — no value
// storage per tuple, no string copy when a run repeats the previous tuple's
// string, and a reused batch that stops growing after the first fill.
func TestBorrowedMergeReusesStorage(t *testing.T) {
	const n = 4000
	schema := table.NewSchema(table.DataCol("g", table.KindString), table.DataCol("k", table.KindInt))
	s := NewKeySorter(schema, []int{0, 1}, 500, t.TempDir())
	for i := 0; i < n; i++ {
		if err := addRows(s, table.Tuple{table.Str(fmt.Sprintf("group-%02d", i%7)), table.Int(int64(i * 7919 % n))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.FinishBatches()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	rows := 0
	var b table.ColBatch
	allocs := testing.AllocsPerRun(1, func() {
		for {
			k, err := it.NextColBatch(&b)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				return
			}
			rows += k
		}
	})
	if rows != n {
		t.Fatalf("merged %d tuples, want %d", rows, n)
	}
	// 8 runs × 7 group strings each, plus a page buffer per run that the
	// first Next may still have to allocate.
	if allocs > 100 {
		t.Errorf("merge of %d tuples allocated %.0f times", n, allocs)
	}
}

// transpose lays rows out as column batches of at most per rows, every
// other batch behind a selection vector that hides a junk row.
func transpose(schema *table.Schema, rows []table.Tuple, per int) []*table.ColBatch {
	var out []*table.ColBatch
	for lo := 0; lo < len(rows); lo += per {
		b := table.NewColBatch(schema)
		if len(out)%2 == 1 {
			b.AppendRow(rows[0]) // physical row 0 is not selected
			b.Sel = []int32{}
		}
		for _, r := range rows[lo:min(lo+per, len(rows))] {
			if b.Sel != nil {
				b.Sel = append(b.Sel, int32(b.N))
			}
			b.AppendRow(r)
		}
		out = append(out, b)
	}
	return out
}

// TestKeySorterBatchFeedMatchesTupleFeed: feeding column batches — some
// straddling the budget boundary, some behind a selection vector — gives
// the sorted stream and exactly the runs that feeding the same rows one
// row per batch gives, and nothing of a batch is kept: each one is
// scribbled over as soon as AddBatch returns.
func TestKeySorterBatchFeedMatchesTupleFeed(t *testing.T) {
	cols := []int{0, 1, 2}
	for _, tc := range []struct{ n, budget, per int }{
		{3000, 1 << 16, 1024}, // unspilled
		{3000, 700, 1024},     // every batch straddles a run boundary
		{5000, 1024, 1024},    // batches end exactly on the boundary
		{2500, 64, 300},
	} {
		rows := keySortInput(rand.New(rand.NewSource(int64(tc.n+tc.budget))), tc.n, "")
		byTuple := NewKeySorter(keySortSchema, cols, tc.budget, t.TempDir())
		if err := addRows(byTuple, rows...); err != nil {
			t.Fatal(err)
		}
		byBatch := NewKeySorter(keySortSchema, cols, tc.budget, t.TempDir())
		for _, b := range transpose(keySortSchema, rows, tc.per) {
			if err := byBatch.AddBatch(b); err != nil {
				t.Fatal(err)
			}
			for c := range b.Cols {
				clear(b.Cols[c].Ints)
				clear(b.Cols[c].Floats)
				clear(b.Cols[c].Strs)
			}
		}
		if byBatch.Rows() != int64(tc.n) || byTuple.Rows() != int64(tc.n) {
			t.Fatalf("sorters counted %d / %d rows, want %d", byBatch.Rows(), byTuple.Rows(), tc.n)
		}
		wantIt, err := byTuple.FinishBatches()
		if err != nil {
			t.Fatal(err)
		}
		gotIt, err := byBatch.FinishBatches()
		if err != nil {
			t.Fatal(err)
		}
		if byBatch.Spills() != byTuple.Spills() || byBatch.SpillBytes() != byTuple.SpillBytes() {
			t.Errorf("n=%d budget=%d: batch feed spilled %d runs (%d B), tuple feed %d (%d B)", tc.n, tc.budget,
				byBatch.Spills(), byBatch.SpillBytes(), byTuple.Spills(), byTuple.SpillBytes())
		}
		if want := (tc.n - 1) / tc.budget; tc.budget < tc.n && byBatch.Spills() != want+1 {
			t.Errorf("n=%d budget=%d: %d runs, want %d", tc.n, tc.budget, byBatch.Spills(), want+1)
		}
		got, want := drain(t, gotIt), drain(t, wantIt)
		if err := sameTuples(got, want); err != nil {
			t.Fatalf("n=%d budget=%d: %v", tc.n, tc.budget, err)
		}
		gotIt.Close()
		wantIt.Close()
	}
}

// TestGovernedKeySorterChargesItsBuffers: a governed key sorter reserves
// what its run buffer actually holds — a run of 8-byte cells costs a
// fraction of 40-byte values — spills early when the governor denies the
// buffer's next doubling, keeps sorting correctly in the smaller runs, and
// leaves the governor balanced.
func TestGovernedKeySorterChargesItsBuffers(t *testing.T) {
	const n = 40000
	feed := func(s *ExternalSorter) {
		for i := 0; i < n; i++ {
			if err := addRows(s, table.Tuple{table.Int(int64(i * 7919 % n)), table.Int(int64(i)), table.Float(0.5)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Roomy: three 8-byte columns, a 9-byte key and the entry bookkeeping
	// stay under 100 bytes per row of buffer capacity, doubling slack
	// included — under half the 221 a row of three 40-byte values, its
	// slice header, key and bookkeeping used to be estimated at.
	schema := table.NewSchema(table.DataCol("k", table.KindInt), table.DataCol("seq", table.KindInt), table.DataCol("p", table.KindFloat))
	roomy := fault.NewGovernor(0, nil)
	s := NewKeySorter(schema, []int{0}, 1<<16, t.TempDir())
	s.Govern(roomy)
	feed(s)
	if hw := roomy.HighWater(); hw == 0 || hw > 100*(1<<16) {
		t.Errorf("unspilled sort of %d three-column rows reserved %d bytes", n, hw)
	}
	it, err := s.FinishBatches()
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	if s.Spills() != 0 || roomy.Used() != 0 {
		t.Fatalf("roomy sort: %d spills, %d bytes still reserved", s.Spills(), roomy.Used())
	}

	tight := fault.NewGovernor(4*memChunk, nil)
	s = NewKeySorter(schema, []int{0}, 1<<16, t.TempDir())
	s.Govern(tight)
	feed(s)
	if s.EarlySpills() == 0 || !tight.Pressured() {
		t.Fatalf("tight governor: %d early spills, pressured=%v", s.EarlySpills(), tight.Pressured())
	}
	if hw := tight.HighWater(); hw > 4*memChunk {
		t.Errorf("reserved %d bytes past the %d limit", hw, 4*memChunk)
	}
	it, err = s.FinishBatches()
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	rows := drain(t, it)
	for _, r := range rows {
		if r[0].I < prev {
			t.Fatalf("output out of order: %d after %d", r[0].I, prev)
		}
		prev = r[0].I
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != n || tight.Used() != 0 {
		t.Fatalf("sorted %d rows, want %d; %d bytes still reserved", len(rows), n, tight.Used())
	}
}
