package engine

import (
	"testing"

	"repro/internal/table"
)

// TestMergeJoinEmptyInputs: merge join terminates cleanly when either side
// is empty.
func TestMergeJoinEmptyInputs(t *testing.T) {
	full := intsRel("k", 1, 2, 3)
	empty := intsRel("k")
	for _, tc := range []struct {
		name        string
		left, right *table.Relation
	}{
		{"left-empty", empty, full},
		{"right-empty", full, empty},
		{"both-empty", empty, empty},
	} {
		j, err := NewMergeJoin(NewMemScan(tc.left), NewMemScan(tc.right), []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		n, err := count(j)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != 0 {
			t.Errorf("%s: got %d rows", tc.name, n)
		}
	}
}

// TestHashJoinEmptyKeyIsCrossProduct: zero join columns degrade to the
// cross product, which the planner relies on for disconnected queries.
func TestHashJoinEmptyKeyIsCrossProduct(t *testing.T) {
	l := intsRel("a", 1, 2)
	r := intsRel("b", 10, 20, 30)
	j, err := NewHashJoin(NewMemScan(l), NewMemScan(r), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := count(j)
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
	if _, err := NewHashJoin(NewMemScan(l), NewMemScan(r), []int{0}, nil); err == nil {
		t.Error("hash join arity mismatch must fail")
	}
	if _, err := NewMergeJoin(NewMemScan(l), NewMemScan(r), []int{0}, nil); err == nil {
		t.Error("merge join arity mismatch must fail")
	}
}

// TestProjectArityMismatch: schema/expression arity is validated.
func TestProjectArityMismatch(t *testing.T) {
	rel := intsRel("a", 1)
	out := table.NewSchema(table.DataCol("x", table.KindInt), table.DataCol("y", table.KindInt))
	if _, err := NewProject(NewMemScan(rel), out, []Expr{ColRef{Idx: 0}}); err == nil {
		t.Error("projection arity mismatch must fail")
	}
}

// TestFilterOnEmptyRelation and reopened operators.
func TestOperatorReopen(t *testing.T) {
	rel := intsRel("a", 1, 2, 3)
	f := NewFilter(NewMemScan(rel), Cmp{L: ColRef{Idx: 0}, Op: OpGt, R: Const{V: table.Int(1)}})
	for round := 0; round < 2; round++ {
		n, err := count(f)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("round %d: %d rows", round, n)
		}
	}
}

// TestSortedGroupByRespectsGroupedInput: pre-grouped (not fully sorted)
// input still aggregates per contiguous run — the contract the operator's
// aggregation scans rely on.
func TestSortedGroupByRespectsGroupedInput(t *testing.T) {
	rel := intsRel("g", 2, 2, 1, 1, 1)
	g := NewSortedGroupBy(NewMemScan(rel), []int{0}, []AggSpec{
		{Kind: AggMin, Col: 0, Out: table.DataCol("m", table.KindInt)},
	})
	rows := drain(t, g)
	if len(rows) != 2 || rows[0][1].I != 2 || rows[1][1].I != 1 {
		t.Errorf("rows = %v", rows)
	}
}
