package dtree

import (
	"testing"

	"repro/internal/prob"
)

// TestRecompileAllocs pins the allocation cost of re-decomposing a formula
// on a warm, reused builder, in the style of internal/obdd's pin: the
// interned memo and the header arena keep their storage across runs, so
// what remains is what decomposition itself allocates per step — component
// discovery's union-find and root tables, the running intersection of
// commonVars — not anything per memo probe or per clause-set header.
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
	var b Builder
	var res Result
	recompile := func() {
		res = ProbWith(&b, d, a, Options{})
	}
	recompile()
	want := res
	if !want.Exact {
		t.Fatalf("a %d-clause block formula did not decompose exactly: %+v", len(d.Clauses), want)
	}
	avg := testing.AllocsPerRun(20, recompile)
	if avg > 100 {
		t.Fatalf("warm re-decomposition of a %d-clause set allocated %.1f times, want ≤ 100", len(d.Clauses), avg)
	}
	// The reused builder must keep producing the same result.
	if res != want {
		t.Fatalf("re-decomposed result %+v != first run's %+v", res, want)
	}
}
