package obdd

import (
	"testing"

	"repro/internal/dtree"
	"repro/internal/prob"
)

// TestRecompileAllocs pins the allocation cost of recompiling a formula on
// a warm, reused kernel builder: the interned memo, the header arena, the
// literal arena and the order's level map all keep their storage across
// runs, so a recompile that fits the budget allocates nothing at all.
func TestRecompileAllocs(t *testing.T) {
	d := prob.NewDNF()
	a := prob.NewAssignment()
	for i := 0; i < 60; i++ {
		v1, v2 := prob.Var(i+1), prob.Var(100+i/2)
		d.Add(prob.NewClause(v1, v2))
		if err := a.Set(v1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := a.Set(v2, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	order := OccurrenceOrder(d, nil)
	var b dtree.Builder
	var res Result
	recompile := func() {
		var err error
		if res, err = ProbWith(&b, d, a, order, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	recompile()
	want := res
	if !want.Exact {
		t.Fatalf("a %d-clause formula did not compile exactly: %+v", len(d.Clauses), want)
	}
	if avg := testing.AllocsPerRun(20, recompile); avg > 0 {
		t.Fatalf("warm recompile of a %d-clause set allocated %.1f times, want 0", len(d.Clauses), avg)
	}
	// The reused builder must keep producing the same result.
	if res != want {
		t.Fatalf("recompiled result %+v != first compile's %+v", res, want)
	}
}
