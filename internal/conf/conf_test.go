package conf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// fig1Answer builds the answer relation of the paper's Fig. 1 for query Q:
// two duplicate (odate=1995-01-10) tuples with lineage x1y1z1 and x1y1z2.
func fig1Answer() *table.Relation {
	sch := table.NewSchema(
		table.DataCol("odate", table.KindString),
		table.VarCol("Cust"), table.ProbCol("Cust"),
		table.VarCol("Ord"), table.ProbCol("Ord"),
		table.VarCol("Item"), table.ProbCol("Item"),
	)
	rel := table.NewRelation(sch)
	// x1=1 (0.1), y1=5 (0.1), z1=11 (0.1), z2=12 (0.2)
	rel.MustAppend(table.Tuple{table.Str("1995-01-10"),
		table.VarValue(1), table.Float(0.1),
		table.VarValue(5), table.Float(0.1),
		table.VarValue(11), table.Float(0.1)})
	rel.MustAppend(table.Tuple{table.Str("1995-01-10"),
		table.VarValue(1), table.Float(0.1),
		table.VarValue(5), table.Float(0.1),
		table.VarValue(12), table.Float(0.2)})
	return rel
}

func introPlainSig() signature.Sig {
	return signature.NewStar(signature.NewConcat(
		signature.NewStar(signature.Table("Cust")),
		signature.NewStar(signature.NewConcat(
			signature.NewStar(signature.Table("Ord")),
			signature.NewStar(signature.Table("Item")),
		)),
	))
}

func introKeySig() signature.Sig {
	return signature.NewStar(signature.NewConcat(
		signature.Table("Cust"),
		signature.NewStar(signature.NewConcat(
			signature.Table("Ord"),
			signature.NewStar(signature.Table("Item")),
		)),
	))
}

// TestFig1Confidence: the confidence of (1995-01-10) is
// 0.1·0.1·(1-(1-0.1)(1-0.2)) = 0.0028, under both the plain and the
// FD-refined signature, with both the scheduled operator and the GRP
// reference.
func TestFig1Confidence(t *testing.T) {
	for _, tc := range []struct {
		name string
		sig  signature.Sig
	}{
		{"plain", introPlainSig()},
		{"withKeys", introKeySig()},
	} {
		rel := fig1Answer()
		out, stats, err := ComputeStats(rel, tc.sig, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Len() != 1 {
			t.Fatalf("%s: got %d rows, want 1", tc.name, out.Len())
		}
		row := out.Rows[0]
		if row[0].S != "1995-01-10" {
			t.Errorf("%s: data value = %v", tc.name, row[0])
		}
		got := row[1].F
		if !prob.ApproxEqual(got, 0.0028, 1e-12) {
			t.Errorf("%s: conf = %g, want 0.0028", tc.name, got)
		}
		if stats.OutputTuples != 1 || stats.InputTuples != 2 {
			t.Errorf("%s: stats = %+v", tc.name, stats)
		}

		ref, err := grpSequence(fig1Answer(), tc.sig)
		if err != nil {
			t.Fatalf("%s: GRP: %v", tc.name, err)
		}
		if ref.Len() != 1 || !prob.ApproxEqual(ref.Rows[0][1].F, 0.0028, 1e-12) {
			t.Errorf("%s: GRP reference = %v", tc.name, ref.Rows)
		}
	}
}

// TestScanCounts: the plain intro signature needs 3 scans (Ex. V.11) with
// steps [Ord*] and [Cust*]; the key-refined one needs a single scan.
func TestScanCounts(t *testing.T) {
	_, stats, err := ComputeStats(fig1Answer(), introPlainSig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scans != 3 {
		t.Errorf("plain signature scans = %d, want 3", stats.Scans)
	}
	if len(stats.Steps) != 2 || stats.Steps[0] != "[Ord*]" || stats.Steps[1] != "[Cust*]" {
		t.Errorf("steps = %v, want [[Ord*] [Cust*]]", stats.Steps)
	}
	_, stats, err = ComputeStats(fig1Answer(), introKeySig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scans != 1 {
		t.Errorf("key signature scans = %d, want 1", stats.Scans)
	}
}

func TestValidateSources(t *testing.T) {
	rel := fig1Answer()
	// Signature missing a table that has columns.
	bad := signature.NewStar(signature.NewConcat(
		signature.NewStar(signature.Table("Cust")),
		signature.NewStar(signature.Table("Ord"))))
	if _, _, err := ComputeStats(rel, bad, Options{}); err == nil {
		t.Error("signature not covering Item's columns must be rejected")
	}
	// Signature with an unknown table.
	unknown := signature.NewStar(signature.Table("Nation"))
	if _, _, err := ComputeStats(rel, unknown, Options{}); err == nil {
		t.Error("signature over unknown table must be rejected")
	}
}

// productRelation builds the answer of the Boolean product query R × S:
// all pairs of R-tuples and S-tuples.
func productRelation(rp, sp []float64) *table.Relation {
	sch := table.NewSchema(
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
	)
	rel := table.NewRelation(sch)
	for i, p := range rp {
		for j, q := range sp {
			rel.MustAppend(table.Tuple{
				table.VarValue(prob.Var(1 + i)), table.Float(p),
				table.VarValue(prob.Var(100 + j)), table.Float(q),
			})
		}
	}
	return rel
}

// TestProductSignature: R*S* over a full cross product computes
// Pr[∨r]·Pr[∨s] in one scan (Ex. V.9's product case).
func TestProductSignature(t *testing.T) {
	rp := []float64{0.1, 0.4}
	sp := []float64{0.2, 0.5, 0.3}
	rel := productRelation(rp, sp)
	sig := signature.NewConcat(
		signature.NewStar(signature.Table("R")),
		signature.NewStar(signature.Table("S")))
	if !signature.OneScan(sig) {
		t.Fatal("R*S* must be 1scan")
	}
	out, stats, err := ComputeStats(rel, sig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("Boolean query must produce one row, got %d", out.Len())
	}
	want := prob.OrAll(rp) * prob.OrAll(sp)
	if got := out.Rows[0][0].F; !prob.ApproxEqual(got, want, 1e-12) {
		t.Errorf("conf = %g, want %g", got, want)
	}
	if stats.Scans != 1 {
		t.Errorf("scans = %d, want 1", stats.Scans)
	}
	// Cross-check against the GRP reference.
	ref, err := grpSequence(productRelation(rp, sp), sig)
	if err != nil {
		t.Fatal(err)
	}
	if !prob.ApproxEqual(ref.Rows[0][0].F, want, 1e-12) {
		t.Errorf("GRP reference = %v, want %g", ref.Rows[0], want)
	}
}

// branchingRelation builds the answer of R(a) ⋈ S(a,b) ⋈ T(a,c) — the
// signature (R S* T*)* whose scan hits the re-occurring-partition logic
// (disabled nodes) of Fig. 8.
func branchingRelation(a *prob.Assignment) *table.Relation {
	sch := table.NewSchema(
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
		table.VarCol("T"), table.ProbCol("T"),
	)
	rel := table.NewRelation(sch)
	// Two a-groups: a=1 has r1 with {s1,s2}×{t1,t2}; a=2 has r2 with
	// {s3}×{t3}.
	r1, r2 := prob.Var(1), prob.Var(2)
	s1, s2, s3 := prob.Var(11), prob.Var(12), prob.Var(13)
	t1, t2, t3 := prob.Var(21), prob.Var(22), prob.Var(23)
	a.MustSet(r1, 0.5)
	a.MustSet(r2, 0.6)
	a.MustSet(s1, 0.1)
	a.MustSet(s2, 0.2)
	a.MustSet(s3, 0.3)
	a.MustSet(t1, 0.4)
	a.MustSet(t2, 0.5)
	a.MustSet(t3, 0.6)
	add := func(r, s, tt prob.Var) {
		rel.MustAppend(table.Tuple{
			table.VarValue(r), table.Float(a.P(r)),
			table.VarValue(s), table.Float(a.P(s)),
			table.VarValue(tt), table.Float(a.P(tt)),
		})
	}
	add(r1, s1, t1)
	add(r1, s1, t2)
	add(r1, s2, t1)
	add(r1, s2, t2)
	add(r2, s3, t3)
	return rel
}

// TestBranchingTreeDisableLogic validates the many-to-many re-occurrence
// handling: Pr = OR over a of p(r)·Pr[∨s]·Pr[∨t].
func TestBranchingTreeDisableLogic(t *testing.T) {
	a := prob.NewAssignment()
	rel := branchingRelation(a)
	sig := signature.NewStar(signature.NewConcat(
		signature.Table("R"),
		signature.NewStar(signature.Table("S")),
		signature.NewStar(signature.Table("T"))))
	out, stats, err := ComputeStats(rel, sig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scans != 1 {
		t.Errorf("(R S* T*)* should be a single scan, got %d", stats.Scans)
	}
	g1 := 0.5 * prob.Or(0.1, 0.2) * prob.Or(0.4, 0.5)
	g2 := 0.6 * 0.3 * 0.6
	want := prob.Or(g1, g2)
	if got := out.Rows[0][0].F; !prob.ApproxEqual(got, want, 1e-12) {
		t.Errorf("conf = %g, want %g", got, want)
	}

	// The DNF oracle agrees: ∨ over rows of r∧s∧t.
	d := prob.NewDNF()
	vi, si, ti := rel.Schema.VarIndex("R"), rel.Schema.VarIndex("S"), rel.Schema.VarIndex("T")
	for _, row := range rel.Rows {
		d.Add(prob.NewClause(row[vi].AsVar(), row[si].AsVar(), row[ti].AsVar()))
	}
	if oracle := d.Prob(a); !prob.ApproxEqual(want, oracle, 1e-12) {
		t.Fatalf("test fixture inconsistent: closed form %g vs oracle %g", want, oracle)
	}
}

// TestMultipleBags: distinct data tuples are processed independently.
func TestMultipleBags(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	rel.MustAppend(table.Tuple{table.Int(2), table.VarValue(3), table.Float(0.3)})
	rel.MustAppend(table.Tuple{table.Int(1), table.VarValue(1), table.Float(0.1)})
	rel.MustAppend(table.Tuple{table.Int(1), table.VarValue(2), table.Float(0.2)})
	sig := signature.NewStar(signature.Table("R"))
	out, _, err := ComputeStats(rel, sig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("want 2 distinct tuples, got %d", out.Len())
	}
	// Sorted by data column: d=1 first.
	if out.Rows[0][0].I != 1 || !prob.ApproxEqual(out.Rows[0][1].F, prob.Or(0.1, 0.2), 1e-12) {
		t.Errorf("bag d=1 = %v", out.Rows[0])
	}
	if out.Rows[1][0].I != 2 || !prob.ApproxEqual(out.Rows[1][1].F, 0.3, 1e-12) {
		t.Errorf("bag d=2 = %v", out.Rows[1])
	}
}

// TestBareTableSignature: signature R is the identity — probabilities pass
// through per distinct tuple.
func TestBareTableSignature(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	rel.MustAppend(table.Tuple{table.Int(7), table.VarValue(1), table.Float(0.25)})
	out, _, err := ComputeStats(rel, signature.Table("R"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !prob.ApproxEqual(out.Rows[0][1].F, 0.25, 1e-12) {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestEmptyInput(t *testing.T) {
	sch := table.NewSchema(table.VarCol("R"), table.ProbCol("R"))
	rel := table.NewRelation(sch)
	out, _, err := ComputeStats(rel, signature.NewStar(signature.Table("R")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty input must give empty output, got %v", out.Rows)
	}
}

// randomHierAnswer generates a random materialized answer of the query
// R(a) ⋈ S(a,b) ⋈ T(a,b,c) — signature (R* (S* T*)*)* — by generating the
// base tables and joining them by hand; it returns the relation, the full
// assignment and the DNF of the (Boolean) answer.
func randomHierAnswer(r *rand.Rand) (*table.Relation, *prob.Assignment, *prob.DNF) {
	a := prob.NewAssignment()
	next := prob.Var(1)
	newVar := func() prob.Var {
		v := next
		next++
		a.MustSet(v, 0.05+0.9*r.Float64())
		return v
	}
	type rRow struct {
		av int
		v  prob.Var
	}
	type sRow struct {
		av, bv int
		v      prob.Var
	}
	type tRow struct {
		av, bv, cv int
		v          prob.Var
	}
	var rs []rRow
	var ss []sRow
	var ts []tRow
	nA, nB, nC := 1+r.Intn(2), 1+r.Intn(2), 1+r.Intn(2)
	for av := 0; av < nA; av++ {
		if r.Intn(4) > 0 {
			rs = append(rs, rRow{av, newVar()})
		}
		for bv := 0; bv < nB; bv++ {
			if r.Intn(4) > 0 {
				ss = append(ss, sRow{av, bv, newVar()})
			}
			for cv := 0; cv < nC; cv++ {
				if r.Intn(3) > 0 {
					ts = append(ts, tRow{av, bv, cv, newVar()})
				}
			}
		}
	}
	sch := table.NewSchema(
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
		table.VarCol("T"), table.ProbCol("T"),
	)
	rel := table.NewRelation(sch)
	d := prob.NewDNF()
	for _, rr := range rs {
		for _, sr := range ss {
			if sr.av != rr.av {
				continue
			}
			for _, tr := range ts {
				if tr.av != sr.av || tr.bv != sr.bv {
					continue
				}
				rel.MustAppend(table.Tuple{
					table.VarValue(rr.v), table.Float(a.P(rr.v)),
					table.VarValue(sr.v), table.Float(a.P(sr.v)),
					table.VarValue(tr.v), table.Float(a.P(tr.v)),
				})
				d.Add(prob.NewClause(rr.v, sr.v, tr.v))
			}
		}
	}
	return rel, a, d
}

// TestQuickOperatorMatchesOracle is the central property test: on random
// hierarchical answers, the scheduled operator, the GRP reference and the
// Shannon-expansion oracle all agree.
func TestQuickOperatorMatchesOracle(t *testing.T) {
	sig := signature.NewStar(signature.NewConcat(
		signature.NewStar(signature.Table("R")),
		signature.NewStar(signature.NewConcat(
			signature.NewStar(signature.Table("S")),
			signature.NewStar(signature.Table("T")))),
	))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel, a, d := randomHierAnswer(r)
		if rel.Len() == 0 {
			return true
		}
		want := d.Prob(a)
		cp := *rel
		out, _, err := ComputeStats(&cp, sig, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 1 {
			return false
		}
		if !prob.ApproxEqual(out.Rows[0][0].F, want, 1e-9) {
			t.Logf("seed %d: operator %g oracle %g", seed, out.Rows[0][0].F, want)
			return false
		}
		ref, err := grpSequence(rel, sig)
		if err != nil {
			t.Fatal(err)
		}
		if !prob.ApproxEqual(ref.Rows[0][0].F, want, 1e-9) {
			t.Logf("seed %d: GRP %g oracle %g", seed, ref.Rows[0][0].F, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickKeyRefinedSignatureAgrees: when R and S are keyed (one tuple per
// a resp. (a,b)), the more precise signature (R(S T*)*)* gives the same
// result as the conservative starred one.
func TestQuickKeyRefinedSignatureAgrees(t *testing.T) {
	loose := signature.NewStar(signature.NewConcat(
		signature.NewStar(signature.Table("R")),
		signature.NewStar(signature.NewConcat(
			signature.NewStar(signature.Table("S")),
			signature.NewStar(signature.Table("T")))),
	))
	tight := signature.NewStar(signature.NewConcat(
		signature.Table("R"),
		signature.NewStar(signature.NewConcat(
			signature.Table("S"),
			signature.NewStar(signature.Table("T")))),
	))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel, _, _ := randomHierAnswer(r)
		if rel.Len() == 0 {
			return true
		}
		cp1 := *rel
		cp2 := *rel
		a, _, err := ComputeStats(&cp1, loose, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ComputeStats(&cp2, tight, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The generator produces at most one R-tuple per a and one S-tuple
		// per (a,b), so both signatures are correct for it.
		return a.Len() == 1 && b.Len() == 1 &&
			prob.ApproxEqual(a.Rows[0][0].F, b.Rows[0][0].F, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSpillingOperator: the operator stays correct when its sorts spill.
func TestSpillingOperator(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	r := rand.New(rand.NewSource(9))
	perBag := make(map[int64][]float64)
	for i := 0; i < 4000; i++ {
		d := int64(r.Intn(10))
		p := 0.001 + 0.01*r.Float64()
		perBag[d] = append(perBag[d], p)
		rel.MustAppend(table.Tuple{table.Int(d), table.VarValue(prob.Var(i + 1)), table.Float(p)})
	}
	out, stats, err := ComputeStats(rel, signature.NewStar(signature.Table("R")),
		Options{SortBudget: 256, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpilledRuns < 2 {
		t.Errorf("expected spilled runs, got %d", stats.SpilledRuns)
	}
	if out.Len() != len(perBag) {
		t.Fatalf("got %d bags, want %d", out.Len(), len(perBag))
	}
	for _, row := range out.Rows {
		want := prob.OrAll(perBag[row[0].I])
		if !prob.ApproxEqual(row[1].F, want, 1e-9) {
			t.Errorf("bag %d: conf %g want %g", row[0].I, row[1].F, want)
		}
	}
}
