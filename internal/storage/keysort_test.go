package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

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

// drain collects an iterator's tuples, cloning each one first when the
// iterator only lends them.
func drain(t *testing.T, it TupleIterator, clone bool) []table.Tuple {
	t.Helper()
	var out []table.Tuple
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if clone {
			tup = tup.Clone()
		}
		out = append(out, tup)
	}
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
// paths), spilled into many runs, through both iterator modes, and with the
// stable mode's tuples retained uncloned until the end.
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
		for _, borrowed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/borrowed=%v", tc.name, borrowed), func(t *testing.T) {
				rows := keySortInput(rand.New(rand.NewSource(int64(tc.n))), tc.n, tc.stem)
				want := slices.Clone(rows)
				slices.SortStableFunc(want, func(a, b table.Tuple) int { return table.CompareOn(a, b, cols) })

				dir := t.TempDir()
				s := NewKeySorter(cols, tc.budget, dir)
				s.Expect(len(rows))
				for _, r := range rows {
					if err := s.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				finish := s.Finish
				if borrowed {
					finish = s.FinishBorrowed
				}
				it, err := finish()
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
				got := drain(t, it, borrowed)
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
}

// TestKeySorterMixedKindsFallsBack: a sort column that shows an int and
// then a float is outside the key codec's contract (table.Compare orders
// the two numerically); the sorter must notice and still deliver
// table.CompareOn order — here with runs spilled both before and after the
// second kind appears.
func TestKeySorterMixedKindsFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows []table.Tuple
	for i := 0; i < 400; i++ {
		v := table.Int(int64(rng.Intn(40)))
		if i >= 150 && rng.Intn(2) == 0 {
			v = table.Float(float64(rng.Intn(80)) / 2)
		}
		rows = append(rows, table.Tuple{v, table.Int(int64(i))})
	}
	cols := []int{0}
	want := slices.Clone(rows)
	slices.SortStableFunc(want, func(a, b table.Tuple) int { return table.CompareOn(a, b, cols) })
	for _, budget := range []int{1 << 16, 64} {
		s := NewKeySorter(cols, budget, t.TempDir())
		for _, r := range rows {
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.FinishBorrowed()
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, it, true)
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sameTuples(got, want); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
}

// TestBorrowedMergeReusesStorage: the borrowed iterator of a spilled sort
// decodes into per-run buffers — no value storage per tuple, and no string
// copy when a run repeats the previous tuple's string.
func TestBorrowedMergeReusesStorage(t *testing.T) {
	const n = 4000
	s := NewKeySorter([]int{0, 1}, 500, t.TempDir())
	for i := 0; i < n; i++ {
		if err := s.Add(table.Tuple{table.Str(fmt.Sprintf("group-%02d", i%7)), table.Int(int64(i * 7919 % n))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.FinishBorrowed()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	rows := 0
	allocs := testing.AllocsPerRun(1, func() {
		for {
			_, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			rows++
		}
	})
	if rows != n {
		t.Fatalf("merged %d tuples, want %d", rows, n)
	}
	// 8 runs × 7 group strings each, plus a page buffer per run that the
	// first Next may still have to allocate.
	if allocs > 100 {
		t.Errorf("borrowed merge of %d tuples allocated %.0f times", n, allocs)
	}
}
