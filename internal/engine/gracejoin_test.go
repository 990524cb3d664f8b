package engine

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/table"
)

func canonRows(rows []table.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// payloadRel builds n rows (key, seq, "row-<seq>") with about n/dups
// distinct keys in random order: the payload columns identify every row, so
// a tuple that was overwritten after it was handed out cannot go unnoticed.
func payloadRel(seed int64, n, dups int) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := table.NewRelation(table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("seq", table.KindInt),
		table.DataCol("tag", table.KindString)))
	for i := 0; i < n; i++ {
		rel.MustAppend(table.Tuple{table.Int(int64(rng.Intn(n/dups + 1))), table.Int(int64(i)), table.Str(fmt.Sprintf("row-%d", i))})
	}
	return rel
}

// graceJoin is hashJoin under a governor below one joinMemChunk, which
// denies a non-empty build side its first reservation, so Open degrades to
// grace mode; the grace sorts spill under a fresh temp dir.
func graceJoin(t *testing.T, l, r *table.Relation, lk, rk []int) *ColHashJoin {
	t.Helper()
	j := hashJoin(t, memScan(l), memScan(r), lk, rk)
	j.Mem = fault.NewGovernor(32<<10, nil)
	j.TmpDir = t.TempDir()
	return j
}

// graceWant is the grace join's exact output: both sides stably sorted on
// their keys, then paired left-major.
func graceWant(l, r *table.Relation, lk, rk []int) *table.Relation {
	sorted := func(rel *table.Relation, keys []int) []table.Tuple {
		rows := slices.Clone(rel.Rows)
		slices.SortStableFunc(rows, func(a, b table.Tuple) int { return table.CompareOn(a, b, keys) })
		return rows
	}
	want := &table.Relation{Schema: l.Schema.Concat(r.Schema)}
	rs := sorted(r, rk)
	for _, lt := range sorted(l, lk) {
		for _, rt := range rs {
			if table.EqualOn2(lt, lk, rt, rk) {
				want.Rows = append(want.Rows, append(slices.Clone(lt), rt...))
			}
		}
	}
	return want
}

// TestHashJoinGraceFallback: a governed hash join that cannot afford its
// build side degrades to sort-merge, produces the same multiset of rows,
// leaves no spill files behind, and balances the governor back to zero.
func TestHashJoinGraceFallback(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var lp, rp [][2]int64
	for i := 0; i < 400; i++ {
		lp = append(lp, [2]int64{int64(r.Intn(30)), int64(i)})
		rp = append(rp, [2]int64{int64(r.Intn(30)), int64(10000 + i)})
	}
	l := pairRel("k", "x", lp...)
	rr := pairRel("k", "y", rp...)

	plain := hashJoin(t, memScan(l), memScan(rr), []int{0}, []int{0})
	want := canonRows(collect(t, plain).Rows)

	dir := t.TempDir()
	g := fault.NewGovernor(32<<10, nil) // below one chunk: first build reservation is denied
	gj := hashJoin(t, memScan(l), memScan(rr), []int{0}, []int{0})
	gj.Mem = g
	gj.SortBudget = 64 // force the grace sorts to spill
	gj.TmpDir = dir
	got := canonRows(collect(t, gj).Rows)

	if !gj.GraceMode() {
		t.Fatal("governed join under pressure must enter grace mode")
	}
	if len(got) != len(want) {
		t.Fatalf("grace join %d rows, hash join %d rows", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("grace join leaked spill files: %v", entries)
	}
	if g.Used() != 0 {
		t.Errorf("governor unbalanced after grace join: %d", g.Used())
	}
	if !g.Pressured() {
		t.Error("governor must record the denial that triggered grace mode")
	}
}

// TestHashJoinGovernedNoPressure: with an ample budget the governed join
// stays on the hash path, produces identical rows in identical order, and
// releases everything it reserved.
func TestHashJoinGovernedNoPressure(t *testing.T) {
	l := pairRel("k", "x", [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})
	rr := pairRel("k", "y", [2]int64{2, 200}, [2]int64{2, 201}, [2]int64{4, 400})

	want := collect(t, hashJoin(t, memScan(l), memScan(rr), []int{0}, []int{0})).Rows

	g := fault.NewGovernor(1<<30, nil)
	gj := hashJoin(t, memScan(l), memScan(rr), []int{0}, []int{0})
	gj.Mem = g
	got := collect(t, gj).Rows

	if gj.GraceMode() {
		t.Fatal("ample budget must not trigger grace mode")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
		}
	}
	if g.Used() != 0 {
		t.Errorf("governor unbalanced: %d", g.Used())
	}
	if g.HighWater() == 0 {
		t.Error("governed build must have charged the governor")
	}
}

// TestGraceJoinSortedInputsStayValid: each sorted stream refills its
// side's batch on every NextColBatch, so the merge copies every equal-key
// right block, piece by piece when a block straddles two sorted batches.
// With both sorts spilling runs of 200 rows and ~50-row blocks whose
// pairings straddle BatchSize boundaries of the output, every row still
// carries the payloads of the tuples it joined, in the exact grace order,
// and Close leaves no spill file behind.
func TestGraceJoinSortedInputsStayValid(t *testing.T) {
	l, r := payloadRel(21, 3*BatchSize, 50), payloadRel(22, 3*BatchSize+5, 50)
	keys := []int{0}
	j := graceJoin(t, l, r, keys, keys)
	j.Mem = fault.NewGovernor(2*joinMemChunk, nil) // denies the first build batch, lets runs reach the budget
	j.SortBudget = 200
	got := collect(t, j)
	if !j.GraceMode() {
		t.Fatal("the governed join must have entered grace mode")
	}
	mustSameRelations(t, "spilled grace join", got, graceWant(l, r, keys, keys))
	if left, err := os.ReadDir(j.TmpDir); err != nil || len(left) != 0 {
		t.Fatalf("spill files left after Close: %v (%v)", left, err)
	}
}

// TestCursorKeepsOnlyWhatRefillsOverwrite: both kinds of grace sort stream
// refill one reused batch on every NextColBatch — the in-memory sort and
// the merge of spilled runs alike — so the merge keeps only what it copies
// into its right block. With ~50-row equal-key blocks straddling BatchSize
// boundaries of the output, the grace join must still pair every block
// member, emitting the hash join's rows, whether or not its sorts spilled.
func TestCursorKeepsOnlyWhatRefillsOverwrite(t *testing.T) {
	l, r := payloadRel(21, 3*BatchSize, 50), payloadRel(22, 3*BatchSize+5, 50)
	keys := []int{0}
	want := canonRows(collect(t, hashJoin(t, memScan(l), memScan(r), keys, keys)).Rows)
	for _, tc := range []struct {
		name    string
		budget  int
		spilled bool
	}{{"in-memory", 1 << 20, false}, {"spilled", 200, true}} {
		t.Run(tc.name, func(t *testing.T) {
			j := graceJoin(t, l, r, keys, keys)
			j.Mem = fault.NewGovernor(8*joinMemChunk, nil) // too small for the build side, room for the sorts in memory
			j.SortBudget = tc.budget
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if !j.GraceMode() {
				t.Fatal("the governed join must have entered grace mode")
			}
			if runs, err := os.ReadDir(j.TmpDir); err != nil || (len(runs) > 0) != tc.spilled {
				t.Fatalf("spill runs on disk: %d (%v), want spilled = %v", len(runs), err, tc.spilled)
			}
			sink := NewRelationSink(j.Schema())
			for b := table.NewColBatch(j.Schema()); ; {
				n, err := j.NextColBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				if err := sink.AddBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			got := canonRows(sink.Rel.Rows)
			if len(got) != len(want) {
				t.Fatalf("grace join: %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d = %s, want %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGraceJoinMatchesHashJoin: a join whose build the governor denies
// degrades to grace mode and emits the hash join's rows, in the grace
// order — over int keys, and over an int key joined to a float key with
// NULL keys on both sides, where the merge's table.Compare must equate what
// the hash path's HashOn does (NULL meets NULL, 3 meets 3.0, 2.5 meets
// nothing).
func TestGraceJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// rel builds 200 rows (key, base+i) under a key column of kind kind.
	rel := func(kind table.Kind, payload string, base int, mk func(i int) table.Value) *table.Relation {
		r := table.NewRelation(table.NewSchema(table.DataCol("k", kind), table.DataCol(payload, table.KindInt)))
		for i := 0; i < 200; i++ {
			r.MustAppend(table.Tuple{mk(i), table.Int(int64(base + i))})
		}
		return r
	}
	intKey := func(i int) table.Value { return table.Int(int64(rng.Intn(20))) }
	nullOr := func(every int, v func() table.Value) func(int) table.Value {
		return func(i int) table.Value {
			if i%every == 0 {
				return table.Null()
			}
			return v()
		}
	}
	// nullPayloadFirst blanks the first row's payload: the grace join's
	// buffered build prefix then starts with a NULL in a non-key column,
	// which the build sorter must store in the column's own kind.
	nullPayloadFirst := func(r *table.Relation) *table.Relation {
		r.Rows[0][1] = table.Null()
		return r
	}
	for _, tc := range []struct {
		name        string
		left, right *table.Relation
	}{
		{"int-int", rel(table.KindInt, "x", 0, intKey), rel(table.KindInt, "y", 1000, intKey)},
		{"int-float-nulls",
			rel(table.KindInt, "x", 0, nullOr(7, func() table.Value { return table.Int(int64(rng.Intn(10))) })),
			rel(table.KindFloat, "y", 1000, nullOr(5, func() table.Value { return table.Float(float64(rng.Intn(20)) / 2) }))},
		{"null-payload-first-build-row", rel(table.KindInt, "x", 0, intKey), nullPayloadFirst(rel(table.KindInt, "y", 1000, intKey))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := []int{0}
			hash := collect(t, hashJoin(t, memScan(tc.left), memScan(tc.right), keys, keys))
			j := graceJoin(t, tc.left, tc.right, keys, keys)
			got := collect(t, j)
			if !j.GraceMode() {
				t.Fatal("the governed join must have entered grace mode")
			}
			mustSameRelations(t, tc.name, got, graceWant(tc.left, tc.right, keys, keys))
			if !slices.Equal(canonRows(got.Rows), canonRows(hash.Rows)) {
				t.Fatalf("grace join rows differ from the hash join's (%d vs %d rows)", got.Len(), hash.Len())
			}
		})
	}
}

// TestGraceJoinDuplicateBlocks: runs of duplicate keys on both sides join
// as the full cross product per key: 2*3 (k=1) + 1*2 (k=2) = 8 rows.
func TestGraceJoinDuplicateBlocks(t *testing.T) {
	l := pairRel("k", "x", [2]int64{1, 1}, [2]int64{1, 2}, [2]int64{2, 3})
	r := pairRel("k", "y", [2]int64{1, 4}, [2]int64{1, 5}, [2]int64{1, 6}, [2]int64{2, 7}, [2]int64{2, 8})
	keys := []int{0}
	j := graceJoin(t, l, r, keys, keys)
	got := collect(t, j)
	if !j.GraceMode() || got.Len() != 8 {
		t.Fatalf("grace mode %v, %d rows; want grace mode, 8 rows: %v", j.GraceMode(), got.Len(), got.Rows)
	}
	mustSameRelations(t, "duplicate blocks", got, graceWant(l, r, keys, keys))
}

// TestGraceJoinAsymmetricKeyLayouts joins sides whose key columns sit at
// different positions — left keys (0, 3), right keys (1, 0) — with the
// second left key indexing past the right row's width. The merge must read
// a right row's key on the right key columns: reading it on the left ones
// mismatched blocks whenever the layouts differed, and panicked when a left
// index exceeded the right arity. Plan-lowered grace joins produce exactly
// these shapes. The same join runs with the right side's "a" a float
// column: the merge compares an int cell against a float cell by value
// (ColVec.CompareCell), so 1 meets 1.0 and nothing meets 2.5.
func TestGraceJoinAsymmetricKeyLayouts(t *testing.T) {
	l := table.NewRelation(table.NewSchema(
		table.DataCol("a", table.KindInt), table.DataCol("x", table.KindInt),
		table.DataCol("y", table.KindInt), table.DataCol("b", table.KindInt)))
	for _, row := range [][4]int64{{2, 94, 95, 1}, {1, 92, 93, 2}, {1, 90, 91, 1}} {
		l.MustAppend(table.Tuple{table.Int(row[0]), table.Int(row[1]), table.Int(row[2]), table.Int(row[3])})
	}
	// right builds the right side with its "a" column of kind aKind;
	// duplicate keys exercise the block buffering.
	right := func(aKind table.Kind, a func(int64) table.Value) *table.Relation {
		r := table.NewRelation(table.NewSchema(
			table.DataCol("b", table.KindInt), table.DataCol("a", aKind),
			table.DataCol("z", table.KindInt)))
		for _, row := range [][3]int64{{1, 2, 73}, {1, 1, 70}, {9, 2, 74}, {2, 1, 72}, {1, 1, 71}} {
			r.MustAppend(table.Tuple{table.Int(row[0]), a(row[1]), table.Int(row[2])})
		}
		return r
	}
	intRight := right(table.KindInt, table.Int)
	floatRight := right(table.KindFloat, func(v int64) table.Value { return table.Float(float64(v)) })
	floatRight.MustAppend(table.Tuple{table.Int(1), table.Float(2.5), table.Int(75)}) // meets no left row
	for name, r := range map[string]*table.Relation{"int-int": intRight, "int-float": floatRight} {
		t.Run(name, func(t *testing.T) {
			lk, rk := []int{0, 3}, []int{1, 0}
			j := graceJoin(t, l, r, lk, rk)
			got := collect(t, j)
			// Matches: l(1,_,_,1) x r{(1,1,70),(1,1,71)}, l(1,_,_,2) x
			// r(2,1,72), l(2,_,_,1) x r(1,2,73).
			if !j.GraceMode() || got.Len() != 4 {
				t.Fatalf("grace mode %v, %d rows; want grace mode, 4 rows: %v", j.GraceMode(), got.Len(), got.Rows)
			}
			for _, row := range got.Rows {
				if table.Compare(row[0], row[5]) != 0 || row[3].I != row[4].I {
					t.Errorf("join keys should match across sides: %v", row)
				}
			}
			mustSameRelations(t, "asymmetric keys", got, graceWant(l, r, lk, rk))
		})
	}
}
