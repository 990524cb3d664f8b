package prob

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"

	"repro/internal/pool"
)

// estimateAll estimates a batch through EstimateAllCtx under a context
// that cannot cancel, so any error fails the test.
func estimateAll(t testing.TB, dnfs []*DNF, a *Assignment, opts MCOptions) []MCEstimate {
	t.Helper()
	est, err := EstimateAllCtx(context.Background(), dnfs, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// estimate estimates one formula, the first (and only) of a batch.
func estimate(t testing.TB, d *DNF, a *Assignment, opts MCOptions) MCEstimate {
	t.Helper()
	return estimateAll(t, []*DNF{d}, a, opts)[0]
}

// randomMCDNF builds a random DNF over at most maxVars variables together with
// a random probability assignment.
func randomMCDNF(rng *rand.Rand, maxVars int) (*DNF, *Assignment) {
	nVars := 1 + rng.Intn(maxVars)
	a := NewAssignment()
	for v := 1; v <= nVars; v++ {
		a.MustSet(Var(v), 0.05+0.9*rng.Float64())
	}
	nClauses := 1 + rng.Intn(6)
	d := &DNF{}
	for i := 0; i < nClauses; i++ {
		width := 1 + rng.Intn(4)
		vs := make([]Var, 0, width)
		for j := 0; j < width; j++ {
			vs = append(vs, Var(1+rng.Intn(nVars)))
		}
		d.Add(NewClause(vs...))
	}
	return d, a
}

// TestMCMatchesExactOnRandomDNFs is the property test of the estimators: on
// randomized small DNFs (≤ 12 variables) both samplers must land within ε
// of the exact possible-world enumeration of worlds.go. The seed is fixed,
// so a pass is deterministic; δ is chosen small enough that the expected
// number of bound violations across the whole run is ≪ 1.
func TestMCMatchesExactOnRandomDNFs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const eps = 0.05
	for trial := 0; trial < 40; trial++ {
		d, a := randomMCDNF(rng, 12)
		exact, err := ProbByWorlds(d, a)
		if err != nil {
			t.Fatal(err)
		}
		// The Shannon-expansion oracle must agree with world enumeration.
		if sh := d.Prob(a); !ApproxEqual(sh, exact, 1e-9) {
			t.Fatalf("trial %d: Shannon %g vs worlds %g for %s", trial, sh, exact, d)
		}
		for _, m := range []MCMethod{MCNaive, MCKarpLuby, MCAuto} {
			est := estimate(t, d, a, MCOptions{Epsilon: eps, Delta: 1e-4, Seed: int64(100 + trial), Method: m})
			if math.Abs(est.P-exact) > eps {
				t.Errorf("trial %d (%v): estimate %g, exact %g, |err| %g > ε=%g for %s",
					trial, m, est.P, exact, math.Abs(est.P-exact), eps, d)
			}
			if est.P < 0 || est.P > 1 {
				t.Errorf("trial %d (%v): estimate %g outside [0,1]", trial, m, est.P)
			}
		}
	}
}

// TestMCDeterminism: the same seed and options must reproduce the estimate
// bit for bit, for single formulas and for the parallel batch driver.
func TestMCDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dnfs []*DNF
	a := NewAssignment()
	for v := 1; v <= 40; v++ {
		a.MustSet(Var(v), 0.05+0.9*rng.Float64())
	}
	for i := 0; i < 24; i++ {
		d := &DNF{}
		for c := 0; c < 2+rng.Intn(4); c++ {
			vs := make([]Var, 0, 3)
			for j := 0; j < 1+rng.Intn(3); j++ {
				vs = append(vs, Var(1+rng.Intn(40)))
			}
			d.Add(NewClause(vs...))
		}
		dnfs = append(dnfs, d)
	}
	opts := MCOptions{Epsilon: 0.05, Delta: 0.01, Seed: 99}

	one := estimate(t, dnfs[0], a, opts)
	if again := estimate(t, dnfs[0], a, opts); again != one {
		t.Errorf("estimate not deterministic: %+v vs %+v", one, again)
	}

	seq := opts
	seq.Workers = 1
	par := opts
	par.Workers = 8
	a1 := estimateAll(t, dnfs, a, seq)
	a2 := estimateAll(t, dnfs, a, par)
	a3 := estimateAll(t, dnfs, a, par)
	for i := range dnfs {
		if a1[i] != a2[i] {
			t.Errorf("formula %d: sequential %+v != parallel %+v", i, a1[i], a2[i])
		}
		if a2[i] != a3[i] {
			t.Errorf("formula %d: parallel runs disagree: %+v vs %+v", i, a2[i], a3[i])
		}
	}

	other := opts
	other.Seed = 100
	a4 := estimateAll(t, dnfs, a, other)
	same := true
	for i := range dnfs {
		if a1[i].Samples > 0 && a1[i].P != a4[i].P {
			same = false
		}
	}
	if same {
		t.Error("changing the seed left every sampled estimate unchanged")
	}
}

// TestMCExactShortcuts: MCAuto must resolve the polynomial cases exactly,
// with zero samples.
func TestMCExactShortcuts(t *testing.T) {
	a := NewAssignment()
	a.MustSet(1, 0.3)
	a.MustSet(2, 0.5)
	a.MustSet(3, 0.2)

	cases := []struct {
		name string
		d    *DNF
		want float64
	}{
		{"empty DNF", NewDNF(), 0},
		{"empty clause (true)", NewDNF(NewClause()), 1},
		{"single clause", NewDNF(NewClause(1, 2)), 0.15},
		{"disjoint clauses", NewDNF(NewClause(1), NewClause(2), NewClause(3)), OrAll([]float64{0.3, 0.5, 0.2})},
	}
	for _, c := range cases {
		est := estimate(t, c.d, a, MCOptions{Seed: 1})
		if est.Method != "exact" || est.Samples != 0 {
			t.Errorf("%s: expected exact shortcut, got %+v", c.name, est)
		}
		if !ApproxEqual(est.P, c.want, 1e-12) {
			t.Errorf("%s: P = %g, want %g", c.name, est.P, c.want)
		}
	}
}

// TestMCAutoPicksKarpLubyForSmallU: with overlapping low-weight clauses the
// total clause weight U is below 1 and MCAuto must choose Karp–Luby (whose
// Hoeffding width is U < 1, hence fewer samples than the naive bound).
func TestMCAutoPicksKarpLubyForSmallU(t *testing.T) {
	a := NewAssignment()
	for v := 1; v <= 4; v++ {
		a.MustSet(Var(v), 0.1)
	}
	d := NewDNF(NewClause(1, 2), NewClause(2, 3), NewClause(3, 4))
	est := estimate(t, d, a, MCOptions{Epsilon: 0.02, Delta: 0.01, Seed: 5})
	if est.Method != "karp-luby" {
		t.Fatalf("U = 0.03 ≪ 1, expected karp-luby, got %+v", est)
	}
	if naive := SampleBound(0.02, 0.01, 1); est.Samples >= naive {
		t.Errorf("karp-luby used %d samples, naive bound is %d — no saving", est.Samples, naive)
	}
	exact := d.Prob(a)
	if math.Abs(est.P-exact) > 0.02 {
		t.Errorf("estimate %g, exact %g", est.P, exact)
	}
}

// TestMCMaxSamplesCap: when the cap truncates the run, the reported ε must
// widen accordingly.
func TestMCMaxSamplesCap(t *testing.T) {
	a := NewAssignment()
	for v := 1; v <= 6; v++ {
		a.MustSet(Var(v), 0.5)
	}
	d := NewDNF(NewClause(1, 2), NewClause(2, 3), NewClause(4, 5), NewClause(5, 6), NewClause(1, 6))
	opts := MCOptions{Epsilon: 0.001, Delta: 0.01, Seed: 3, MaxSamples: 1000, Method: MCNaive}
	est := estimate(t, d, a, opts)
	if est.Samples != 1000 {
		t.Fatalf("expected the cap to bind: %+v", est)
	}
	if est.Epsilon <= 0.001 {
		t.Errorf("capped run must report a weaker ε, got %g", est.Epsilon)
	}
	want := achievedEps(1000, 0.01, 1)
	if !ApproxEqual(est.Epsilon, want, 1e-12) {
		t.Errorf("reported ε %g, want %g", est.Epsilon, want)
	}
}

// TestSampleBound sanity: tighter ε or δ, or wider range, needs more samples.
func TestSampleBound(t *testing.T) {
	base := SampleBound(0.05, 0.01, 1)
	if SampleBound(0.01, 0.01, 1) <= base {
		t.Error("smaller ε must need more samples")
	}
	if SampleBound(0.05, 0.001, 1) <= base {
		t.Error("smaller δ must need more samples")
	}
	if SampleBound(0.05, 0.01, 2) <= base {
		t.Error("wider range must need more samples")
	}
	if SampleBound(0.05, 0.01, 0.5) >= base {
		t.Error("narrower range must need fewer samples")
	}
}

// TestKarpLubyEmptyDNF: the forced Karp–Luby method has no clause to sample
// from on the empty DNF (U = 0) and must return the exact 0, not panic.
func TestKarpLubyEmptyDNF(t *testing.T) {
	est := estimate(t, NewDNF(), NewAssignment(), MCOptions{Method: MCKarpLuby, Seed: 1})
	if est.P != 0 || est.Method != "exact" {
		t.Fatalf("empty DNF under forced karp-luby: %+v", est)
	}
}

// TestBernoulliWord: the block kernel's word is 64 unbiased, independent
// Bernoulli(p) lanes. Over 2²⁰ lanes the frequency is within 5σ of p, and
// so are the joint frequencies of adjacent lanes and of the same lane in
// adjacent words (within 5σ of p²) — for probabilities at both ends of the
// threshold's 64 bits and in between.
func TestBernoulliWord(t *testing.T) {
	const words = 1 << 14
	random := rand.New(rand.NewSource(5)).Float64()
	for _, p := range []float64{0x1p-60, 1e-9, 0.25, 0.5, random, 1 - 0x1p-53} {
		g := randv2.NewPCG(11, uint64(math.Float64bits(p)))
		thr := threshold(p)
		var ones, lanePairs, wordPairs float64
		prev := bernoulli(g, thr)
		for i := 0; i < words; i++ {
			w := bernoulli(g, thr)
			ones += float64(bits.OnesCount64(w))
			lanePairs += float64(bits.OnesCount64(w & (w >> 1))) // 63 adjacent-lane pairs
			wordPairs += float64(bits.OnesCount64(w & prev))
			prev = w
		}
		within := func(what string, got, n, q float64) {
			if sigma := math.Sqrt(n * q * (1 - q)); math.Abs(got-n*q) > 5*sigma {
				t.Errorf("p=%g: %s = %g of %g, want %g ± 5·%g", p, what, got, n, n*q, sigma)
			}
		}
		within("lanes set", ones, 64*words, p)
		within("adjacent lanes both set", lanePairs, 63*words, p*p)
		within("adjacent words' lanes both set", wordPairs, 64*words, p*p)
	}

	// p = 1 is all ones and never touches the generator.
	g := randv2.NewPCG(1, 2)
	before := *g
	if w := bernoulli(g, threshold(1)); w != math.MaxUint64 || *g != before {
		t.Errorf("p=1: word %#x, generator consumed: %v", w, *g != before)
	}
	// A threshold with few bits stops early and stays exact: p = 1/2 is one
	// generator word per block.
	if bernoulli(g, threshold(0.5)); *g == before {
		t.Error("p=0.5 drew nothing")
	}
	once := *randv2.NewPCG(1, 2)
	once.Uint64()
	if *g != once {
		t.Error("p=0.5 consumed more than one generator word")
	}
}

// TestMCTailLanes: a sample count that is not a multiple of 64 counts
// exactly that many samples — the last block's surplus lanes are masked
// out of both estimators. All variables are certain, so every live lane is
// a hit: naive counts a world per lane, Karp–Luby (one clause, so every
// lane picks the canonical one) a sample per lane.
func TestMCTailLanes(t *testing.T) {
	a := NewAssignment()
	a.MustSet(1, 1)
	a.MustSet(2, 1)
	d := NewDNF(NewClause(1, 2))
	for _, n := range []int{1, 63, 64, 65, 1060} {
		for _, m := range []MCMethod{MCNaive, MCKarpLuby} {
			var s sampler
			s.load(d, a, 3, 4)
			hits, drawn, err := s.sample(context.Background(), n, m, nil)
			if err != nil || hits != n || drawn != n {
				t.Errorf("n=%d %v: %d hits of %d drawn (%v), want %d of %d", n, m, hits, drawn, err, n, n)
			}
			est := estimate(t, d, a, MCOptions{Epsilon: 1e-6, MaxSamples: n, Method: m, Seed: 1})
			if est.Samples != n || est.P != 1 || !est.Capped {
				t.Errorf("n=%d %v: %+v, want %d samples, P = 1, capped", n, m, est, n)
			}
		}
	}
}

// TestMCForcedMethods: both estimators stay inside ε of the exact
// probability whichever one MCAuto would have chosen — total clause weight
// far below and far above 1 — and on the degenerate formulas.
func TestMCForcedMethods(t *testing.T) {
	a := NewAssignment()
	for v := 1; v <= 30; v++ {
		a.MustSet(Var(v), 0.08)
		a.MustSet(Var(100+v), 0.9)
	}
	var rare, common []Clause
	for v := 1; v < 30; v++ {
		rare = append(rare, NewClause(Var(v), Var(v+1)))           // U ≈ 0.19
		common = append(common, NewClause(Var(100+v), Var(101+v))) // U ≈ 23
	}
	const eps = 0.02
	for name, d := range map[string]*DNF{
		"U<1": NewDNF(rare...), "U>>1": NewDNF(common[:12]...), "one clause": NewDNF(NewClause(1, 101, 102)), "empty": NewDNF(),
	} {
		exact := d.Prob(a)
		for _, m := range []MCMethod{MCNaive, MCKarpLuby} {
			est := estimate(t, d, a, MCOptions{Epsilon: eps, Delta: 1e-4, Seed: 21, Method: m})
			if math.Abs(est.P-exact) > eps {
				t.Errorf("%s under %v: estimate %g, exact %g", name, m, est.P, exact)
			}
			if wantExact := len(d.Clauses) == 0; (est.Method == "exact") != wantExact || (est.Samples == 0) != wantExact {
				t.Errorf("%s under %v: %+v", name, m, est)
			}
		}
	}
}

// TestEstimateAllWorkerIdentity: the batch driver's estimates are bit for
// bit the same for every worker count and for a caller-supplied pool.
func TestEstimateAllWorkerIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var dnfs []*DNF
	a := NewAssignment()
	for i := 0; i < 40; i++ {
		d, da := randomMCDNF(rng, 12)
		shifted := &DNF{}
		for _, cl := range d.Clauses {
			vs := make([]Var, len(cl))
			for j, v := range cl {
				vs[j] = v + Var(100*i)
				a.MustSet(vs[j], da.P(v))
			}
			shifted.Add(NewClause(vs...))
		}
		dnfs = append(dnfs, shifted)
	}
	opts := MCOptions{Epsilon: 0.03, Delta: 0.01, Seed: 42, Method: MCNaive, Workers: 1}
	want := estimateAll(t, dnfs, a, opts)
	for _, workers := range []int{2, 4, 8} {
		opts.Workers = workers
		if got := estimateAll(t, dnfs, a, opts); !slices.Equal(got, want) {
			t.Errorf("Workers=%d changed the estimates", workers)
		}
	}
	opts.Pool = pool.New(3)
	if got := estimateAll(t, dnfs, a, opts); !slices.Equal(got, want) {
		t.Error("a shared pool changed the estimates")
	}
}

// TestMCStopAndCancel: a Stop that fires mid-run keeps the running estimate
// over the blocks drawn — a multiple of 64 samples — with the wider ε they
// guarantee; one that fired before the run still lets the first
// cancelCheckInterval samples through; a cancelled context is an error.
func TestMCStopAndCancel(t *testing.T) {
	a := NewAssignment()
	for v := 1; v <= 6; v++ {
		a.MustSet(Var(v), 0.5)
	}
	d := NewDNF(NewClause(1, 2), NewClause(2, 3), NewClause(4, 5), NewClause(5, 6), NewClause(1, 6))
	exact := d.Prob(a)
	full := SampleBound(0.005, 0.01, 1)
	for name, c := range map[string]struct{ firesAt, samples int }{
		"mid-run": {3, 3 * cancelCheckInterval}, "pre-fired": {0, cancelCheckInterval},
	} {
		polls := 0
		stop := func() bool { polls++; return polls >= c.firesAt }
		est := estimate(t, d, a, MCOptions{Epsilon: 0.005, Delta: 0.01, Seed: 8, Method: MCNaive, Stop: stop})
		if !est.Stopped || est.Samples != c.samples || est.Samples%64 != 0 || est.Samples >= full {
			t.Errorf("%s: %+v, want Stopped after %d of %d samples", name, est, c.samples, full)
		}
		if want := achievedEps(c.samples, 0.01, 1); est.Epsilon != want || est.Epsilon <= 0.005 {
			t.Errorf("%s: ε = %g, want the wider %g", name, est.Epsilon, want)
		}
		if math.Abs(est.P-exact) > est.Epsilon {
			t.Errorf("%s: estimate %g is more than its ε %g from %g", name, est.P, est.Epsilon, exact)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateAllCtx(ctx, []*DNF{d}, a, MCOptions{Method: MCNaive}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v", err)
	}
}

// TestMCSamplerAllocs: sampling allocates nothing — estimating a
// 200-variable formula costs the allocations of lowering it, however many
// blocks the requested ε then draws.
func TestMCSamplerAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewAssignment()
	for v := 1; v <= 200; v++ {
		a.MustSet(Var(v), 0.05+0.9*rng.Float64())
	}
	d := &DNF{}
	for i := 0; i < 150; i++ {
		d.Add(NewClause(Var(1+rng.Intn(200)), Var(1+rng.Intn(200)), Var(1+rng.Intn(200))))
	}
	for _, m := range []MCMethod{MCNaive, MCKarpLuby} {
		allocs := func(eps float64) float64 {
			return testing.AllocsPerRun(5, func() { estimate(t, d, a, MCOptions{Epsilon: eps, Seed: 1, Method: m, MaxSamples: 1 << 16}) })
		}
		if coarse, fine := allocs(0.2), allocs(0.01); fine > coarse {
			t.Errorf("%v: ε = 0.01 allocated %v times, ε = 0.2 %v", m, fine, coarse)
		}
	}
}
