// Differential coverage lives in an external test package: internal/difftest
// imports obdd, so the property test, the recompile pins and the fuzz target
// must sit outside the package proper to avoid an import cycle.
package obdd_test

import (
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/dtree"
	"repro/internal/obdd"
	"repro/internal/prob"
)

// TestDifferential runs the repo-wide harness over random lineage-shaped
// formulas: worlds oracle vs Shannon vs OBDD vs d-tree vs Monte Carlo.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		d, a := difftest.RandomDNF(rng, 12)
		if err := difftest.Check(d, a); err != nil {
			t.Fatalf("formula %d: %v", i, err)
		}
	}
}

// TestRecompileAllocs pins the allocation cost of recompiling a formula on
// a warm, reused kernel builder under the OBDD tier's order: the interned
// memo, the header arena, the literal arena, the order's level map and the
// anytime mode's frontier all keep their storage across runs, so a
// recompile allocates nothing but the literal arena's occasional fresh
// block, well under once per run — within the budget, and over it, where
// the best-first mode takes over (the 51-clause benchmark-shaped join
// lineage at budget 30, the 12-block class at budget 300).
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
	jd, ja := difftest.JoinDNF(rand.New(rand.NewSource(3)), 12, 12, 51)
	bd, ba, _ := difftest.BlocksDNF(12)
	var b dtree.Builder
	var order obdd.OrderScratch
	for _, c := range []struct {
		name   string
		d      *prob.DNF
		a      *prob.Assignment
		budget int
		exact  bool
	}{
		{"60-clause block formula", d, a, 0, true},
		{"join12x12x51 at budget 30", jd, ja, 30, false},
		{"blocks12 at budget 300", bd, ba, 300, false},
	} {
		var res dtree.Result
		recompile := func() {
			var err error
			res, err = dtree.ProbAnytime(&b, c.d, c.a, order.OccurrenceOrder(c.d, nil), dtree.Options{NodeBudget: c.budget})
			if err != nil {
				t.Fatal(err)
			}
		}
		recompile()
		want := res
		if want.Exact != c.exact {
			t.Fatalf("%s: %+v, want exact %v", c.name, want, c.exact)
		}
		if avg := testing.AllocsPerRun(20, recompile); avg > 0 {
			t.Errorf("%s: warm recompile allocated %.1f times, want 0", c.name, avg)
		}
		// The reused builder must keep producing the same result.
		if res != want {
			t.Errorf("%s: recompiled result %+v != first compile's %+v", c.name, res, want)
		}
	}
}

// TestResetKeepsHeaderArena: recompiling the benchmark-shaped formula on a
// reused kernel builder allocates no clause-set header block, ever again,
// and recycles exactly as many headers as the compile before — within the
// default budget, and over a 30-step budget, where the best-first mode
// queues its residuals.
func TestResetKeepsHeaderArena(t *testing.T) {
	d, a := difftest.JoinDNF(rand.New(rand.NewSource(1)), 12, 12, 51)
	var b dtree.Builder
	var order obdd.OrderScratch
	for _, budget := range []int{0, 30} {
		err := difftest.CheckSteadyRecompile(func() obdd.Result {
			res, err := dtree.ProbAnytime(&b, d, a, order.OccurrenceOrder(d, nil), dtree.Options{NodeBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
}

// FuzzCompile feeds fuzzer-mutated byte strings through difftest.DecodeDNF
// and runs the OBDD tier's differential battery (difftest.CheckOrdered) —
// the decoder is shared with internal/dtree's target, which runs the
// decomposing setting, so corpus entries found by one fuzzer exercise the
// other setting too.
func FuzzCompile(f *testing.F) {
	for _, seed := range [][]byte{
		{0x11, 1, 2, 0, 3, 4},                   // two disjoint clauses
		{0x42, 1, 2, 0, 1, 3, 0, 1, 4},          // one variable shared by every clause
		{0x07, 1, 3, 0, 1, 4, 0, 2, 4, 0, 5, 6}, // mixed overlap and disjoint tail
		{0x99, 1, 0, 1, 2, 0, 2, 3, 0, 3, 1},    // chained overlaps
		{0xff, 12, 24, 36, 0, 1},                // bytes that collapse to the same variable mod 12
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, a, ok := difftest.DecodeDNF(data)
		if !ok {
			return
		}
		if err := difftest.CheckOrdered(d, a); err != nil {
			t.Fatal(err)
		}
	})
}
