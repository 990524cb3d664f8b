package engine

import (
	"testing"

	"repro/internal/table"
)

// TestGraceJoinEmptyInputs: a grace join over an empty left side ends
// cleanly with no rows. An empty right side never reserves, so that join —
// and the one with both sides empty — stays on the hash path.
func TestGraceJoinEmptyInputs(t *testing.T) {
	full := intsRel("k", 1, 2, 3)
	empty := intsRel("k")
	for _, tc := range []struct {
		name        string
		left, right *table.Relation
		grace       bool
	}{
		{"left-empty", empty, full, true},
		{"right-empty", full, empty, false},
		{"both-empty", empty, empty, false},
	} {
		j := graceJoin(t, tc.left, tc.right, []int{0}, []int{0})
		n, err := countCols(j)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != 0 || j.GraceMode() != tc.grace {
			t.Errorf("%s: %d rows, grace mode %v; want 0 rows, grace mode %v", tc.name, n, j.GraceMode(), tc.grace)
		}
	}
}

// TestHashJoinEmptyKeyIsCrossProduct: zero join columns degrade to the
// cross product, which the planner relies on for disconnected queries.
func TestHashJoinEmptyKeyIsCrossProduct(t *testing.T) {
	l := intsRel("a", 1, 2)
	r := intsRel("b", 10, 20, 30)
	n, err := countCols(hashJoin(t, memScan(l), memScan(r), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("cross product rows = %d, want 6", n)
	}
}

// TestJoinKeyArityMismatch: mismatched key lists are construction errors.
func TestJoinKeyArityMismatch(t *testing.T) {
	l := intsRel("a", 1)
	r := intsRel("b", 1)
	if _, err := NewColHashJoin(memScan(l), memScan(r), []int{0}, nil); err == nil {
		t.Error("hash join arity mismatch must fail")
	}
}

// TestProjectArityMismatch: a relabelling projection's schema must match
// its column list, and every column it reads must exist.
func TestProjectArityMismatch(t *testing.T) {
	rel := intsRel("a", 1)
	out := table.NewSchema(table.DataCol("x", table.KindInt), table.DataCol("y", table.KindInt))
	if _, err := NewColProject(memScan(rel), []int{0}, out); err == nil {
		t.Error("projection arity mismatch must fail")
	}
	if _, err := NewColProject(memScan(rel), []int{0, 1}, out); err == nil {
		t.Error("projection of a missing column must fail")
	}
}

// TestOperatorReopen: a selecting scan and a hash join produce their whole
// stream again when reopened after a drain.
func TestOperatorReopen(t *testing.T) {
	rel := intsRel("a", 1, 2, 3)
	f := withPreds(memScan(rel), ColPred{Col: 0, Op: OpGt, Val: table.Int(1)})
	j := hashJoin(t, memScan(rel), memScan(intsRel("a", 3, 2, 3)), []int{0}, []int{0})
	for round := 0; round < 2; round++ {
		if n, err := countCols(f); err != nil || n != 2 {
			t.Fatalf("round %d: filter gave %d rows (%v)", round, n, err)
		}
		if n, err := countCols(j); err != nil || n != 3 {
			t.Fatalf("round %d: join gave %d rows (%v)", round, n, err)
		}
	}
}
