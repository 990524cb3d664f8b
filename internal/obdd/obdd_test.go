package obdd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dtree"
	"repro/internal/prob"
)

// randDNF builds a random DNF over ≤ maxVars variables together with a
// random assignment — the same shape the Monte Carlo tests use, small
// enough for possible-world enumeration.
func randDNF(rng *rand.Rand, maxVars int) (*prob.DNF, *prob.Assignment) {
	n := 1 + rng.Intn(maxVars)
	a := prob.NewAssignment()
	for v := 1; v <= n; v++ {
		a.MustSet(prob.Var(v), 0.05+0.9*rng.Float64())
	}
	d := prob.NewDNF()
	clauses := 1 + rng.Intn(8)
	for c := 0; c < clauses; c++ {
		width := 1 + rng.Intn(4)
		vs := make([]prob.Var, 0, width)
		for k := 0; k < width; k++ {
			vs = append(vs, prob.Var(1+rng.Intn(n)))
		}
		d.Add(prob.NewClause(vs...))
	}
	return d, a
}

// TestCompileMatchesOracles: the ordered expansion's probability of random
// DNFs under OccurrenceOrder matches both exact oracles (Shannon expansion
// with free variable choice, and possible-world enumeration) to 1e-9.
func TestCompileMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		d, a := randDNF(rng, 12)
		order := OccurrenceOrder(d, nil)
		res, err := dtree.ProbAnytime(new(dtree.Builder), d, a, order, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Exact {
			t.Fatalf("trial %d: %d-var DNF should compile exactly, got bounds [%g, %g]",
				trial, len(order), res.Lo, res.Hi)
		}
		shannon := d.Prob(a)
		worlds, err := prob.ProbByWorlds(d, a)
		if err != nil {
			t.Fatal(err)
		}
		if !prob.ApproxEqual(res.P, shannon, 1e-9) || !prob.ApproxEqual(res.P, worlds, 1e-9) {
			t.Errorf("trial %d: obdd %g, shannon %g, worlds %g for %s",
				trial, res.P, shannon, worlds, d)
		}
	}
}

// anytime runs the OBDD tier's compile on a builder: the kernel's ordered
// setting under order, continued best-first once the budget runs out.
func anytime(t *testing.T, b *dtree.Builder, d *prob.DNF, a *prob.Assignment, order []prob.Var, o Options) Result {
	t.Helper()
	res, err := dtree.ProbAnytime(b, d, a, order, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBoundsInvariants: for random DNFs and growing budgets, the anytime
// bounds always bracket the exact probability and tighten monotonically
// with the budget; an ample budget closes them completely.
func TestBoundsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var b dtree.Builder
	for trial := 0; trial < 100; trial++ {
		d, a := randDNF(rng, 10)
		order := OccurrenceOrder(d, nil)
		exact := d.Prob(a)
		prevWidth := math.Inf(1)
		for _, budget := range []int{1, 2, 4, 8, 16, 64, 1 << 20} {
			res := anytime(t, &b, d, a, order, Options{NodeBudget: budget})
			if res.Lo > exact+1e-9 || res.Hi < exact-1e-9 {
				t.Errorf("trial %d budget %d: [%g, %g] does not bracket exact %g for %s",
					trial, budget, res.Lo, res.Hi, exact, d)
			}
			width := res.Hi - res.Lo
			if width > prevWidth+1e-12 {
				t.Errorf("trial %d budget %d: width %g loosened from %g", trial, budget, width, prevWidth)
			}
			prevWidth = width
		}
		res := anytime(t, &b, d, a, order, Options{NodeBudget: 1 << 20})
		if !res.Exact || !prob.ApproxEqual(res.P, exact, 1e-9) {
			t.Errorf("trial %d: ample budget should close bounds exactly: got %+v want %g", trial, res, exact)
		}
	}
}

// TestBoundsTargetWidth: with an ample budget the anytime mode terminates
// early at the requested interval width.
func TestBoundsTargetWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var b dtree.Builder
	for trial := 0; trial < 50; trial++ {
		d, a := randDNF(rng, 10)
		order := OccurrenceOrder(d, nil)
		res := anytime(t, &b, d, a, order, Options{NodeBudget: 1 << 20, TargetWidth: 0.1})
		if res.Hi-res.Lo > 0.1 {
			t.Errorf("trial %d: width %g exceeds target 0.1", trial, res.Hi-res.Lo)
		}
	}
}

// TestBoundsDeterministic: same inputs, same bounds — bit for bit, on a
// fresh builder and on one reused across runs, whether the anytime mode
// runs (budgets 2 and 10) or not.
func TestBoundsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d, a := randDNF(rng, 12)
	order := OccurrenceOrder(d, nil)
	var b dtree.Builder
	for _, budget := range []int{2, 10, 0} {
		o := Options{NodeBudget: budget}
		first := anytime(t, new(dtree.Builder), d, a, order, o)
		for i := 0; i < 5; i++ {
			if again := anytime(t, &b, d, a, order, o); again != first {
				t.Fatalf("budget %d, run %d: %+v != %+v", budget, i, again, first)
			}
		}
	}
}

// TestProbBudgetFallsBackToBounds: a tiny node budget forces the compile
// into the anytime mode, which still brackets the truth and reports the
// interval's midpoint.
func TestProbBudgetFallsBackToBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var b dtree.Builder
	for trial := 0; trial < 30; trial++ {
		d, a := randDNF(rng, 10)
		order := OccurrenceOrder(d, nil)
		exact := d.Prob(a)
		res := anytime(t, &b, d, a, order, Options{NodeBudget: 2})
		if res.Exact && !prob.ApproxEqual(res.P, exact, 1e-9) {
			t.Errorf("trial %d: exact-under-budget result %g != %g", trial, res.P, exact)
		}
		if res.Lo > exact+1e-9 || res.Hi < exact-1e-9 {
			t.Errorf("trial %d: [%g, %g] does not bracket %g", trial, res.Lo, res.Hi, exact)
		}
		if math.Abs(res.P-exact) > (res.Hi-res.Lo)/2+1e-9 {
			t.Errorf("trial %d: midpoint %g further than half-width from %g", trial, res.P, exact)
		}
	}
}

// TestTrivialFormulas: the degenerate shapes compile to terminals, under
// the orders OccurrenceOrder derives for them.
func TestTrivialFormulas(t *testing.T) {
	a := prob.NewAssignment()
	a.MustSet(1, 0.5)
	var b dtree.Builder
	for _, c := range []struct {
		name string
		d    *prob.DNF
		want float64
	}{
		{"empty DNF", prob.NewDNF(), 0},
		{"tautology", prob.NewDNF(prob.Clause{}), 1},
		{"single literal", prob.NewDNF(prob.NewClause(1)), 0.5},
	} {
		res, err := dtree.ProbAnytime(&b, c.d, a, OccurrenceOrder(c.d, nil), Options{})
		if err != nil || !res.Exact || res.P != c.want {
			t.Errorf("%s: %+v, %v", c.name, res, err)
		}
	}
}
