package prob

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestOrAndBasics(t *testing.T) {
	if got := Or(0.1, 0.2); !ApproxEqual(got, 0.28, 1e-12) {
		t.Errorf("Or(0.1,0.2) = %g, want 0.28", got)
	}
	if got := And(0.5, 0.5); got != 0.25 {
		t.Errorf("And(0.5,0.5) = %g, want 0.25", got)
	}
	if got := OrAll([]float64{0.1, 0.2}); !ApproxEqual(got, 0.28, 1e-12) {
		t.Errorf("OrAll = %g, want 0.28", got)
	}
	if got := OrAll(nil); got != 0 {
		t.Errorf("OrAll(nil) = %g, want 0", got)
	}
}

func TestAssignmentValidation(t *testing.T) {
	a := NewAssignment()
	if err := a.Set(1, 0); err == nil {
		t.Error("Set(p=0) should fail: probabilities are in (0,1]")
	}
	if err := a.Set(1, 1.5); err == nil {
		t.Error("Set(p=1.5) should fail")
	}
	if err := a.Set(NoVar, 0.5); err == nil {
		t.Error("Set(NoVar) should fail")
	}
	if err := a.Set(1, math.NaN()); err == nil {
		t.Error("Set(NaN) should fail")
	}
	if err := a.Set(1, 1); err != nil {
		t.Errorf("Set(p=1) should succeed: %v", err)
	}
	if got := a.P(2); got != 1 {
		t.Errorf("unassigned variable should default to 1, got %g", got)
	}
	if got := a.P(NoVar); got != 1 {
		t.Errorf("NoVar probability should be 1, got %g", got)
	}
}

func TestAssignmentVarsSorted(t *testing.T) {
	a := NewAssignment()
	a.MustSet(5, 0.5)
	a.MustSet(1, 0.1)
	a.MustSet(3, 0.3)
	vs := a.Vars()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 3 || vs[2] != 5 {
		t.Errorf("Vars() = %v, want [1 3 5]", vs)
	}
	if a.Len() != 3 {
		t.Errorf("Len() = %d, want 3", a.Len())
	}
}

// TestAssignmentDenseAndSparse drives the slice-backed assignment and its
// map fallback against a plain map: dense ids 1..n stay in the slice, a
// lone huge id goes to the map at once, a stream that crosses the density
// bound midway moves every earlier entry — marginal and origin — into the
// map, and one whose first id is large starts in the map and ends in the
// slice. Either way Len, Vars (increasing), P, Lookup and From read what was
// set, and unset ids read as unset.
func TestAssignmentDenseAndSparse(t *testing.T) {
	type set struct {
		v    Var
		from int32 // -1: Set, else SetFrom
	}
	var dense, mixed []set
	for v := Var(1); v <= 300; v++ {
		dense = append(dense, set{v, int32(v % 3)})
	}
	for v := Var(1); v <= 100; v++ {
		mixed = append(mixed, set{v, int32(v % 2)})
	}
	mixed = append(mixed, set{1 << 20, 5}, set{7, 1}, set{200, -1}, set{1<<20 + 3, 2})
	late := []set{{5000, 0}}
	for v := Var(1); v <= 3000; v++ {
		late = append(late, set{v, int32(v % 4)})
	}
	for name, c := range map[string]struct {
		sets   []set
		sparse bool
	}{
		"ids 1..n":         {dense, false},
		"id 1<<30":         {[]set{{1 << 30, 0}}, true},
		"crosses midway":   {mixed, true},
		"large ids first":  {late, false},
		"Set without from": {[]set{{3, -1}, {2, -1}, {900, -1}}, false},
	} {
		t.Run(name, func(t *testing.T) {
			a := NewAssignment()
			type entry struct {
				p    float64
				from int32
			}
			want := map[Var]entry{}
			for i, s := range c.sets {
				p := float64(1+i%9) / 10
				var err error
				if s.from < 0 {
					err = a.Set(s.v, p)
				} else {
					err = a.SetFrom(s.v, p, s.from)
				}
				if err != nil {
					t.Fatal(err)
				}
				want[s.v] = entry{p, s.from}
			}
			if (a.sparse != nil) != c.sparse {
				t.Errorf("sparse = %v, want %v", a.sparse != nil, c.sparse)
			}
			if a.Len() != len(want) {
				t.Errorf("Len() = %d, want %d", a.Len(), len(want))
			}
			vs := a.Vars()
			if len(vs) != len(want) || !slices.IsSorted(vs) {
				t.Errorf("Vars() = %d ids, sorted %v; want %d sorted", len(vs), slices.IsSorted(vs), len(want))
			}
			for v, w := range want {
				if p, ok := a.Lookup(v); !ok || p != w.p || a.P(v) != w.p {
					t.Errorf("Lookup(%v) = %g, %v; P = %g; want %g", v, p, ok, a.P(v), w.p)
				}
				if a.From(v) != w.from {
					t.Errorf("From(%v) = %d, want %d", v, a.From(v), w.from)
				}
			}
			for _, v := range []Var{NoVar, -4, 301, 1 << 21, 1<<30 - 1} {
				if _, ok := want[v]; ok {
					continue
				}
				if p, ok := a.Lookup(v); ok || p != 0 || a.P(v) != 1 || a.From(v) != -1 {
					t.Errorf("unset %v: Lookup = %g, %v; P = %g; From = %d", v, p, ok, a.P(v), a.From(v))
				}
			}
			// Set's errors do not depend on the storage.
			for _, bad := range []struct {
				v Var
				p float64
			}{{NoVar, 0.5}, {-1, 0.5}, {1, 0}, {1, 1.5}, {1, math.NaN()}} {
				if err := a.Set(bad.v, bad.p); err == nil {
					t.Errorf("Set(%v, %g) succeeded", bad.v, bad.p)
				}
			}
			if a.Len() != len(want) {
				t.Errorf("rejected Sets changed Len to %d", a.Len())
			}
		})
	}
}

func TestClauseNormalization(t *testing.T) {
	c := NewClause(3, 1, 3, NoVar, 2)
	if len(c) != 3 || c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Errorf("NewClause = %v, want [1 2 3]", c)
	}
	if !c.Contains(2) || c.Contains(4) {
		t.Error("Contains is wrong")
	}
	if NewClause(NoVar).String() != "⊤" {
		t.Error("empty clause should render as ⊤")
	}
}

func TestDNFDedup(t *testing.T) {
	d := NewDNF(NewClause(1, 2), NewClause(2, 1), NewClause(3))
	if len(d.Clauses) != 2 {
		t.Errorf("duplicate clauses should be removed, got %d clauses", len(d.Clauses))
	}
	vs := d.Vars()
	if len(vs) != 3 {
		t.Errorf("Vars = %v, want [1 2 3]", vs)
	}
}

// TestPaperIntroductionFormula reproduces the running example of §I:
// x1y1z1 ∨ x1y1z2 with p(x1)=0.1, p(y1)=0.1, p(z1)=0.1, p(z2)=0.2
// has probability 0.1·0.1·(1-(1-0.1)(1-0.2)) = 0.0028.
func TestPaperIntroductionFormula(t *testing.T) {
	const x1, y1, z1, z2 = 1, 2, 3, 4
	a := NewAssignment()
	a.MustSet(x1, 0.1)
	a.MustSet(y1, 0.1)
	a.MustSet(z1, 0.1)
	a.MustSet(z2, 0.2)

	d := NewDNF(NewClause(x1, y1, z1), NewClause(x1, y1, z2))
	if got := d.Prob(a); !ApproxEqual(got, 0.0028, 1e-12) {
		t.Errorf("Shannon Pr = %g, want 0.0028", got)
	}
	byWorlds, err := ProbByWorlds(d, a)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(byWorlds, 0.0028, 1e-12) {
		t.Errorf("world-enumeration Pr = %g, want 0.0028", byWorlds)
	}

	// The same formula in its 1OF factored form x1(y1(z1 ∨ z2)) (Ex. III.6).
	f := And1OF(Leaf1OF(x1), Leaf1OF(y1), Or1OF(Leaf1OF(z1), Leaf1OF(z2)))
	if err := f.CheckOneOccurrence(); err != nil {
		t.Fatal(err)
	}
	if got := f.Prob(a); !ApproxEqual(got, 0.0028, 1e-12) {
		t.Errorf("1OF Pr = %g, want 0.0028", got)
	}
}

func TestDNFEmptyAndTrue(t *testing.T) {
	a := NewAssignment()
	empty := NewDNF()
	if got := empty.Prob(a); got != 0 {
		t.Errorf("Pr[⊥] = %g, want 0", got)
	}
	tru := NewDNF(NewClause())
	if got := tru.Prob(a); got != 1 {
		t.Errorf("Pr[⊤] = %g, want 1", got)
	}
	if tru.String() == "" || empty.String() != "⊥" {
		t.Error("String() of degenerate formulas is wrong")
	}
}

func TestShannonSharedVariables(t *testing.T) {
	// x(y ∨ z) as DNF xy ∨ xz — x occurs twice, so naive independent-OR of
	// clause probabilities would be wrong. Shannon must be exact.
	a := NewAssignment()
	a.MustSet(1, 0.5)
	a.MustSet(2, 0.5)
	a.MustSet(3, 0.5)
	d := NewDNF(NewClause(1, 2), NewClause(1, 3))
	want := 0.5 * (1 - 0.25) // p(x)·Pr[y∨z]
	if got := d.Prob(a); !ApproxEqual(got, want, 1e-12) {
		t.Errorf("Pr = %g, want %g", got, want)
	}
}

func TestWorldEnumeration(t *testing.T) {
	a := NewAssignment()
	a.MustSet(1, 0.25)
	a.MustSet(2, 0.75)
	worlds, err := EnumerateWorlds(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 4 {
		t.Fatalf("got %d worlds, want 4", len(worlds))
	}
	total := 0.0
	for _, w := range worlds {
		total += w.P
	}
	if !ApproxEqual(total, 1, 1e-12) {
		t.Errorf("world probabilities sum to %g, want 1", total)
	}
}

func TestWorldEnumerationBound(t *testing.T) {
	a := NewAssignment()
	for i := 1; i <= MaxWorldVars+1; i++ {
		a.MustSet(Var(i), 0.5)
	}
	if _, err := EnumerateWorlds(a); err == nil {
		t.Error("expected error enumerating too many worlds")
	}
}

func TestOneOFDNFExpansion(t *testing.T) {
	f := And1OF(Leaf1OF(1), Or1OF(Leaf1OF(2), Leaf1OF(3)))
	d := f.DNF()
	if len(d.Clauses) != 2 {
		t.Fatalf("expansion has %d clauses, want 2", len(d.Clauses))
	}
	a := NewAssignment()
	a.MustSet(1, 0.3)
	a.MustSet(2, 0.4)
	a.MustSet(3, 0.5)
	if !ApproxEqual(f.Prob(a), d.Prob(a), 1e-12) {
		t.Errorf("1OF Pr %g != DNF Pr %g", f.Prob(a), d.Prob(a))
	}
}

func TestOneOFViolationDetected(t *testing.T) {
	f := Or1OF(Leaf1OF(1), And1OF(Leaf1OF(1), Leaf1OF(2)))
	if err := f.CheckOneOccurrence(); err == nil {
		t.Error("expected one-occurrence violation to be detected")
	}
}

func TestOneOFString(t *testing.T) {
	f := And1OF(Leaf1OF(1), Or1OF(Leaf1OF(2), Leaf1OF(3)))
	if got := f.String(); got != "x1∧(x2∨x3)" {
		t.Errorf("String() = %q", got)
	}
}

// randomDNF builds a random DNF over up to 8 variables.
func randomDNF(r *rand.Rand) (*DNF, *Assignment) {
	nVars := 1 + r.Intn(8)
	a := NewAssignment()
	for i := 1; i <= nVars; i++ {
		a.MustSet(Var(i), 0.05+0.9*r.Float64())
	}
	nClauses := 1 + r.Intn(6)
	d := NewDNF()
	for i := 0; i < nClauses; i++ {
		width := 1 + r.Intn(3)
		vs := make([]Var, width)
		for j := range vs {
			vs[j] = Var(1 + r.Intn(nVars))
		}
		d.Add(NewClause(vs...))
	}
	return d, a
}

// TestQuickShannonMatchesWorlds is the foundational property test: Shannon
// expansion agrees with the definitional possible-world semantics on random
// DNFs.
func TestQuickShannonMatchesWorlds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, a := randomDNF(r)
		byWorlds, err := ProbByWorlds(d, a)
		if err != nil {
			t.Fatal(err)
		}
		return ApproxEqual(d.Prob(a), byWorlds, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// randomOneOF generates a random 1OF tree over fresh variables.
func randomOneOF(r *rand.Rand, next *Var, depth int) *OneOF {
	if depth == 0 || r.Intn(3) == 0 {
		v := *next
		*next++
		return Leaf1OF(v)
	}
	n := 2 + r.Intn(3)
	children := make([]*OneOF, n)
	for i := range children {
		children[i] = randomOneOF(r, next, depth-1)
	}
	if r.Intn(2) == 0 {
		return And1OF(children...)
	}
	return Or1OF(children...)
}

// TestQuickOneOFMatchesDNF: linear-time 1OF evaluation equals the exact
// probability of its DNF expansion (Prop. III.5 soundness).
func TestQuickOneOFMatchesDNF(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		next := Var(1)
		tree := randomOneOF(r, &next, 2)
		if int(next) > 18 {
			return true // keep the oracle cheap
		}
		a := NewAssignment()
		for v := Var(1); v < next; v++ {
			a.MustSet(v, 0.05+0.9*r.Float64())
		}
		if err := tree.CheckOneOccurrence(); err != nil {
			t.Fatal(err)
		}
		return ApproxEqual(tree.Prob(a), tree.DNF().Prob(a), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
