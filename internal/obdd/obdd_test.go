package obdd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clauseset"
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

// TestCompileMatchesOracles: the OBDD probability of random DNFs matches
// both exact oracles (Shannon expansion with free variable choice, and
// possible-world enumeration) to 1e-9.
func TestCompileMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		d, a := randDNF(rng, 12)
		order := OccurrenceOrder(d, nil)
		res, err := Prob(d, a, order, Options{})
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

// conditionRef is the cofactor split condition replaced: partition on the
// top level, then Normalize both cofactors.
func conditionRef(cls [][]int32) (pos, neg [][]int32, posTrue bool) {
	level := cls[0][0]
	for _, c := range cls {
		switch {
		case c[0] != level:
			pos = append(pos, c)
			neg = append(neg, c)
		case len(c) == 1:
			posTrue = true
		default:
			pos = append(pos, c[1:])
		}
	}
	if posTrue {
		pos = nil
	} else {
		pos = clauseset.Normalize(pos)
	}
	return pos, clauseset.Normalize(neg), posTrue
}

// TestConditionMatchesNormalize: the linear cofactor split returns, on
// random canonical clause sets, exactly the canonical cofactors the
// sort-based split returned — same clauses, same order, same posTrue.
func TestConditionMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	same := func(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }
	var b Builder
	for trial := 0; trial < 2000; trial++ {
		b.Reset(nil, 0)
		levels := 2 + rng.Intn(10)
		var cls [][]int32
		for n := 1 + rng.Intn(12); len(cls) < n; {
			var c []int32
			for w := 1 + rng.Intn(4); len(c) < w; {
				c = append(c, int32(rng.Intn(levels)))
			}
			slices.Sort(c)
			cls = append(cls, slices.Compact(c))
		}
		cls = clauseset.Normalize(cls)
		wantPos, wantNeg, wantTrue := conditionRef(slices.Clone(cls))
		pos, neg, posTrue := b.condition(cls)
		if posTrue != wantTrue || !same(pos, wantPos) || !same(neg, wantNeg) {
			t.Fatalf("trial %d: condition(%v) = %v, %v, %v; want %v, %v, %v",
				trial, cls, pos, neg, posTrue, wantPos, wantNeg, wantTrue)
		}
	}
}

// TestApplyFoldCanonical: compiling clause-by-clause with the memoized
// apply core must hit the exact same hash-consed root as the Shannon
// compilation — reduced OBDDs are canonical, so equal functions mean equal
// refs within one builder.
func TestApplyFoldCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		d, _ := randDNF(rng, 10)
		order := OccurrenceOrder(d, nil)
		b := NewBuilder(order, 0)
		root, err := b.Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		folded := False
		for _, c := range d.Clauses {
			cl := True
			for _, v := range c {
				lit, err := b.Var(v)
				if err != nil {
					t.Fatal(err)
				}
				if cl, err = b.And(cl, lit); err != nil {
					t.Fatal(err)
				}
			}
			if folded, err = b.Or(folded, cl); err != nil {
				t.Fatal(err)
			}
		}
		if folded != root {
			t.Errorf("trial %d: apply-fold root %d != shannon root %d for %s", trial, folded, root, d)
		}
	}
}

// TestRestrict: restricting the diagram agrees with conditioning the
// formula, on every truth assignment of the remaining variables.
func TestRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		d, a := randDNF(rng, 8)
		order := OccurrenceOrder(d, nil)
		b := NewBuilder(order, 0)
		root, err := b.Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		v := order[rng.Intn(len(order))]
		val := rng.Intn(2) == 1
		restricted, err := b.Restrict(root, v, val)
		if err != nil {
			t.Fatal(err)
		}
		_ = a
		for mask := 0; mask < 1<<len(order); mask++ {
			truth := make(map[prob.Var]bool, len(order))
			for i, w := range order {
				truth[w] = mask&(1<<i) != 0
			}
			truth[v] = val
			if got, want := b.Eval(restricted, truth), d.Eval(truth); got != want {
				t.Fatalf("trial %d: restrict(%v:=%v) eval %v, formula %v under %v",
					trial, v, val, got, want, truth)
			}
		}
	}
}

// TestBoundsInvariants: for random DNFs and growing budgets, the anytime
// bounds always bracket the exact probability and tighten monotonically
// with the budget; an ample budget closes them completely.
func TestBoundsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		d, a := randDNF(rng, 10)
		order := OccurrenceOrder(d, nil)
		exact := d.Prob(a)
		prevWidth := math.Inf(1)
		for _, budget := range []int{1, 2, 4, 8, 16, 64, 1 << 20} {
			res, err := Bounds(d, a, order, Options{NodeBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
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
		res, err := Bounds(d, a, order, Options{NodeBudget: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || !prob.ApproxEqual(res.P, exact, 1e-9) {
			t.Errorf("trial %d: ample budget should close bounds exactly: got %+v want %g", trial, res, exact)
		}
	}
}

// TestBoundsTargetWidth: with an ample budget the anytime mode terminates
// early at the requested interval width.
func TestBoundsTargetWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		d, a := randDNF(rng, 10)
		order := OccurrenceOrder(d, nil)
		res, err := Bounds(d, a, order, Options{NodeBudget: 1 << 20, TargetWidth: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Hi-res.Lo > 0.1 {
			t.Errorf("trial %d: width %g exceeds target 0.1", trial, res.Hi-res.Lo)
		}
	}
}

// TestBoundsDeterministic: same inputs, same bounds — bit for bit.
func TestBoundsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d, a := randDNF(rng, 12)
	order := OccurrenceOrder(d, nil)
	first, err := Bounds(d, a, order, Options{NodeBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Bounds(d, a, order, Options{NodeBudget: 10})
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d: %+v != %+v", i, again, first)
		}
	}
}

// TestProbBudgetFallsBackToBounds: a tiny node budget forces Prob into the
// anytime mode, which still brackets the truth.
func TestProbBudgetFallsBackToBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		d, a := randDNF(rng, 10)
		order := OccurrenceOrder(d, nil)
		exact := d.Prob(a)
		res, err := Prob(d, a, order, Options{NodeBudget: 2})
		if err != nil {
			t.Fatal(err)
		}
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

// TestTrivialFormulas: the degenerate shapes compile to terminals.
func TestTrivialFormulas(t *testing.T) {
	a := prob.NewAssignment()
	a.MustSet(1, 0.5)
	empty := prob.NewDNF()
	res, err := Prob(empty, a, nil, Options{})
	if err != nil || !res.Exact || res.P != 0 {
		t.Errorf("empty DNF: %+v, %v", res, err)
	}
	taut := prob.NewDNF(prob.Clause{})
	res, err = Prob(taut, a, nil, Options{})
	if err != nil || !res.Exact || res.P != 1 {
		t.Errorf("tautology: %+v, %v", res, err)
	}
	if r, err := Bounds(taut, a, nil, Options{}); err != nil || !r.Exact || r.P != 1 {
		t.Errorf("tautology bounds: %+v, %v", r, err)
	}
	single := prob.NewDNF(prob.NewClause(1))
	res, err = Prob(single, a, []prob.Var{1}, Options{})
	if err != nil || !res.Exact || res.P != 0.5 {
		t.Errorf("single literal: %+v, %v", res, err)
	}
}
