package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/table"
)

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

// retainAll pulls the rest of a cursor's stream and keeps every tuple as
// handed out — no clone, which is what StableTuples entitles a consumer to.
func retainAll(t *testing.T, c *Cursor) []table.Tuple {
	t.Helper()
	var rows []table.Tuple
	for {
		tup, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, tup) //sproutvet:allow batchalias the test pins that a StableTuples stream survives exactly this
	}
}

// wantSorted is the reference: rel's rows stably sorted on column 0.
func wantSorted(rel *table.Relation) []table.Tuple {
	want := slices.Clone(rel.Rows)
	slices.SortStableFunc(want, func(a, b table.Tuple) int { return table.CompareOn(a, b, []int{0}) })
	return want
}

func checkRetained(t *testing.T, what string, got, want []table.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: retained tuple %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSpilledSortTuplesStayValid: Sort promises StableTuples, so the tuples
// of a sort that spilled several runs must all still be intact, and in
// order, after the stream has been drained without cloning. A merge that
// decoded into reused buffers would leave every retained tuple showing some
// later row.
func TestSpilledSortTuplesStayValid(t *testing.T) {
	rel := payloadRel(5, 3000, 6)
	s := NewSort(NewMemScan(rel), SortSpec{Cols: []int{0}})
	s.Budget = 500
	s.TmpDir = t.TempDir()
	if !Stable(s) {
		t.Fatal("Sort must promise stable tuples")
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Spills() < 3 {
		t.Fatalf("want at least 3 spilled runs, got %d", s.Spills())
	}
	var c Cursor
	c.Reset(s)
	checkRetained(t, "spilled sort", retainAll(t, &c), wantSorted(rel))
}

// TestGraceJoinSortedInputsStayValid: the same contract on the grace-join
// path. Under a governor that denies the build side, both inputs of the
// degraded join are spilled sorts — the right one adapted through iterOp —
// and both promise StableTuples.
func TestGraceJoinSortedInputsStayValid(t *testing.T) {
	l, r := payloadRel(11, 2500, 5), payloadRel(12, 2500, 5) // > 2 batches: the cursors refill while tuples are retained
	j := hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: r}, []int{0}, []int{0})
	j.Mem = fault.NewGovernor(32<<10, nil) // below one chunk: the build is denied at once
	j.SortBudget = 200
	j.TmpDir = t.TempDir()
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.GraceMode() {
		t.Fatal("the governed join must have entered grace mode")
	}
	// Open advanced the merge join's cursors past the first tuple of each
	// side; the cursors hold the rest.
	for _, side := range []struct {
		name string
		op   Operator
		cur  *Cursor
		rel  *table.Relation
	}{{"left", j.grace.Left, &j.grace.l.cur, l}, {"right", j.grace.Right, &j.grace.r.cur, r}} {
		if !Stable(side.op) {
			t.Fatalf("grace join's %s input must promise stable tuples", side.name)
		}
		checkRetained(t, "grace join "+side.name+" input", retainAll(t, side.cur), wantSorted(side.rel)[1:])
	}
}

// TestCursorKeepsOnlyWhatRefillsOverwrite: the per-tuple consumers read
// through a Cursor, whose tuples die at the next refill unless the input is
// stable. Over unstable inputs (ColToRows rewrites its slot buffers every
// batch) a merge join whose equal-key blocks straddle batch boundaries must
// still pair every block member — the cursor clones what it keeps; over
// stable inputs Keep hands the tuple back untouched.
func TestCursorKeepsOnlyWhatRefillsOverwrite(t *testing.T) {
	l, r := payloadRel(21, 3*BatchSize, 50), payloadRel(22, 3*BatchSize+5, 50) // ~50-row blocks: some straddle a batch boundary
	sorted := func(rel *table.Relation) *table.Relation {
		return &table.Relation{Schema: rel.Schema, Rows: wantSorted(rel)}
	}
	unstable := func(rel *table.Relation) Operator {
		p := &ColToRows{In: &ColMemScan{Rel: sorted(rel)}}
		if Stable(p) {
			t.Fatal("ColToRows must not promise stable tuples")
		}
		return p
	}
	want := canonRows(collect(t, hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: r}, []int{0}, []int{0})).Rows)
	mj, err := NewMergeJoin(unstable(l), unstable(r), []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	got := canonRows(drain(t, mj))
	if len(got) != len(want) {
		t.Fatalf("merge join over unstable inputs: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, want %s", i, got[i], want[i])
		}
	}

	var c Cursor
	for _, tc := range []struct {
		op     Operator
		cloned bool
	}{{NewMemScan(l), false}, {unstable(l), true}} {
		if err := tc.op.Open(); err != nil {
			t.Fatal(err)
		}
		c.Reset(tc.op)
		tup, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("cursor yielded nothing: %v", err)
		}
		if kept := c.Keep(tup); (&kept[0] != &tup[0]) != tc.cloned {
			t.Fatalf("Keep over %T: cloned = %v, want %v", tc.op, !tc.cloned, tc.cloned)
		}
		tc.op.Close()
	}
}

// TestMergeJoinStableInputAllocs: a merge join of two sorts — the grace
// join's shape — reads both sides through cursors that know the inputs are
// stable, so it clones no tuple (it used to clone every one it pulled).
func TestMergeJoinStableInputAllocs(t *testing.T) {
	const rows = 4000
	l, r := payloadRel(31, rows, 1), payloadRel(32, rows, 1)
	j, err := NewMergeJoin(NewSort(NewMemScan(l), SortSpec{Cols: []int{0}}), NewSort(NewMemScan(r), SortSpec{Cols: []int{0}}), []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := count(j); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the slot buffers and cursors
	// The two sorts allocate per run (sorter, key arena, buffers: 119
	// allocations measured); cloning every pulled tuple cost 12,244.
	if avg := testing.AllocsPerRun(5, run); avg > rows/8 {
		t.Fatalf("merge join of two %d-row sorts allocated %.0f times per run, want ≤ %d", rows, avg, rows/8)
	}
}
