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

// retainAll pulls op's whole stream through Next and keeps every tuple as
// handed out — no clone, which is what StableTuples entitles a consumer to.
func retainAll(t *testing.T, op Operator) []table.Tuple {
	t.Helper()
	var rows []table.Tuple
	for {
		tup, ok, err := op.Next()
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
	checkRetained(t, "spilled sort", retainAll(t, s), wantSorted(rel))
}

// TestGraceJoinSortedInputsStayValid: the same contract on the grace-join
// path. Under a governor that denies the build side, both inputs of the
// degraded join are spilled sorts — the right one adapted through iterOp —
// and both promise StableTuples.
func TestGraceJoinSortedInputsStayValid(t *testing.T) {
	l, r := payloadRel(11, 800, 5), payloadRel(12, 800, 5)
	j, err := NewHashJoin(NewMemScan(l), NewMemScan(r), []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
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
	// Open primed the merge join's cursors with the first tuple of each
	// side (cloned); the streams hold the rest.
	for _, side := range []struct {
		name string
		op   Operator
		rel  *table.Relation
	}{{"left", j.grace.Left, l}, {"right", j.grace.Right, r}} {
		if !Stable(side.op) {
			t.Fatalf("grace join's %s input must promise stable tuples", side.name)
		}
		checkRetained(t, "grace join "+side.name+" input", retainAll(t, side.op), wantSorted(side.rel)[1:])
	}
}
