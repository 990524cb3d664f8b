package conf

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// TestBranchingFiveTableTree exercises the R1(R2(R3), R4(R5)) 1scanTree of
// Ex. V.12: signature (R1(R2 R3*)*(R4 R5*)*)*. One R1 tuple pairs with
// (r2, items) chains and (r4, items) chains; the two branches multiply.
func TestBranchingFiveTableTree(t *testing.T) {
	sig := signature.NewStar(signature.NewConcat(
		signature.Table("R1"),
		signature.NewStar(signature.NewConcat(signature.Table("R2"), signature.NewStar(signature.Table("R3")))),
		signature.NewStar(signature.NewConcat(signature.Table("R4"), signature.NewStar(signature.Table("R5")))),
	))
	if !signature.OneScan(sig) {
		t.Fatal("signature must be 1scan")
	}
	sch := table.NewSchema(
		table.VarCol("R1"), table.ProbCol("R1"),
		table.VarCol("R2"), table.ProbCol("R2"),
		table.VarCol("R3"), table.ProbCol("R3"),
		table.VarCol("R4"), table.ProbCol("R4"),
		table.VarCol("R5"), table.ProbCol("R5"),
	)
	rel := table.NewRelation(sch)
	a := prob.NewAssignment()
	v := func(id prob.Var, p float64) (table.Value, table.Value) {
		if a.P(id) == 1 {
			a.MustSet(id, p)
		}
		return table.VarValue(id), table.Float(p)
	}
	// r1 with: branch A = r2 paired with {r3a, r3b}; branch B = two chains
	// (r4a, {r5a}), (r4b, {r5b}). The answer is the full cross product of
	// the branch A rows and branch B rows under r1.
	type pair struct{ v1, p1, v2, p2 table.Value }
	var left, right []pair
	{
		v2, p2 := v(20, 0.5)
		v3a, p3a := v(30, 0.3)
		v3b, p3b := v(31, 0.4)
		left = append(left, pair{v2, p2, v3a, p3a}, pair{v2, p2, v3b, p3b})
		v4a, p4a := v(40, 0.6)
		v5a, p5a := v(50, 0.2)
		v4b, p4b := v(41, 0.7)
		v5b, p5b := v(51, 0.1)
		right = append(right, pair{v4a, p4a, v5a, p5a}, pair{v4b, p4b, v5b, p5b})
	}
	v1, p1 := v(10, 0.9)
	for _, l := range left {
		for _, r := range right {
			rel.MustAppend(table.Tuple{v1, p1, l.v1, l.p1, l.v2, l.p2, r.v1, r.p1, r.v2, r.p2})
		}
	}

	out, stats, err := ComputeStats(rel, sig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scans != 1 {
		t.Errorf("scans = %d, want 1", stats.Scans)
	}
	// Closed form: p(r1) · [p(r2)·(r3a ∨ r3b)] · [(r4a·r5a) ∨ (r4b·r5b)].
	branchA := 0.5 * prob.Or(0.3, 0.4)
	branchB := prob.Or(0.6*0.2, 0.7*0.1)
	want := 0.9 * branchA * branchB
	if got := out.Rows[0][0].F; !prob.ApproxEqual(got, want, 1e-12) {
		t.Errorf("conf = %g, want %g", got, want)
	}

	// Cross-validate with the GRP reference and the DNF oracle.
	ref, err := grpSequence(rel, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !prob.ApproxEqual(ref.Rows[0][0].F, want, 1e-12) {
		t.Errorf("GRP = %g, want %g", ref.Rows[0][0].F, want)
	}
	d := prob.NewDNF()
	for _, row := range rel.Rows {
		d.Add(prob.NewClause(row[0].AsVar(), row[2].AsVar(), row[4].AsVar(), row[6].AsVar(), row[8].AsVar()))
	}
	if oracle := d.Prob(a); !prob.ApproxEqual(want, oracle, 1e-12) {
		t.Fatalf("fixture inconsistent: closed form %g vs oracle %g", want, oracle)
	}
}

// randomTwoBagAnswer builds a non-Boolean answer over signature
// (R(S*)*)*-ish: data column d, R keyed per (d, r-var), S many per r.
func randomTwoBagAnswer(r *rand.Rand) (*table.Relation, *prob.Assignment, map[int64]*prob.DNF) {
	a := prob.NewAssignment()
	next := prob.Var(1)
	newVar := func() prob.Var {
		v := next
		next++
		a.MustSet(v, 0.05+0.9*r.Float64())
		return v
	}
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
	)
	rel := table.NewRelation(sch)
	oracles := make(map[int64]*prob.DNF)
	nBags := 1 + r.Intn(3)
	for d := 0; d < nBags; d++ {
		oracles[int64(d)] = prob.NewDNF()
		nR := 1 + r.Intn(3)
		for i := 0; i < nR; i++ {
			rv := newVar()
			nS := 1 + r.Intn(3)
			for j := 0; j < nS; j++ {
				sv := newVar()
				rel.MustAppend(table.Tuple{
					table.Int(int64(d)),
					table.VarValue(rv), table.Float(a.P(rv)),
					table.VarValue(sv), table.Float(a.P(sv)),
				})
				oracles[int64(d)].Add(prob.NewClause(rv, sv))
			}
		}
	}
	return rel, a, oracles
}

// TestQuickMultiBagNonBoolean: per-bag confidences match the Shannon oracle
// on random multi-bag answers with signature (R(S*)*)*.
func TestQuickMultiBagNonBoolean(t *testing.T) {
	sig := signature.NewStar(signature.NewConcat(
		signature.Table("R"),
		signature.NewStar(signature.Table("S"))))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel, a, oracles := randomTwoBagAnswer(r)
		out, _, err := ComputeStats(rel, sig, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != len(oracles) {
			return false
		}
		for _, row := range out.Rows {
			want := oracles[row[0].I].Prob(a)
			if !prob.ApproxEqual(row[1].F, want, 1e-9) {
				t.Logf("seed %d bag %d: got %g want %g", seed, row[0].I, row[1].F, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAggregateConcatPropagation: the eager operator on a concatenation
// collapses each component and folds probabilities into the leftmost
// representative (the [Cust Ord] propagation of Fig. 6's Q6).
func TestAggregateConcatPropagation(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("Cust"), table.ProbCol("Cust"),
		table.VarCol("Ord"), table.ProbCol("Ord"),
	)
	rel := table.NewRelation(sch)
	rel.MustAppend(table.Tuple{table.Int(1), table.VarValue(1), table.Float(0.5), table.VarValue(2), table.Float(0.4)})
	sig := signature.NewConcat(signature.Table("Cust"), signature.Table("Ord"))
	var stats Stats
	out, rep, err := aggregateRel(rel, sig, Options{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if rep != "Cust" || stats.Scans != 0 {
		t.Errorf("rep=%s scans=%d, want Cust/0 (pure propagation)", rep, stats.Scans)
	}
	pi := out.Schema.ProbIndex("Cust")
	if pi < 0 || !prob.ApproxEqual(out.Rows[0][pi].F, 0.2, 1e-12) {
		t.Errorf("propagated P = %v", out.Rows[0])
	}
	if out.Schema.VarIndex("Ord") >= 0 {
		t.Error("Ord's V column should be dropped by propagation")
	}
}

// TestAggregateBareTableIdentity: [R] is the identity.
func TestAggregateBareTableIdentity(t *testing.T) {
	sch := table.NewSchema(table.VarCol("R"), table.ProbCol("R"))
	rel := table.NewRelation(sch)
	rel.MustAppend(table.Tuple{table.VarValue(1), table.Float(0.5)})
	var stats Stats
	in := FromRelation(rel)
	out, rep, err := AggregateFrom(in, signature.Table("R"), Options{}, &stats)
	if err != nil || rep != "R" || stats.Scans != 0 || out != in {
		t.Errorf("identity aggregate wrong: %v %s %d", err, rep, stats.Scans)
	}
}

// aggregateRel applies AggregateFrom to a materialized relation and
// materializes what comes back.
func aggregateRel(rel *table.Relation, s signature.Sig, opts Options, stats *Stats) (*table.Relation, string, error) {
	src, rep, err := AggregateFrom(FromRelation(rel), s, opts, stats)
	if err != nil {
		return nil, "", err
	}
	out, err := src.Relation(context.Background(), nil)
	return out, rep, err
}

// TestComputeRejectsMissingColumns is failure injection on the operator's
// input contract.
func TestComputeRejectsMissingColumns(t *testing.T) {
	// V column present, P column missing.
	sch := table.NewSchema(table.VarCol("R"), table.DataCol("x", table.KindFloat))
	rel := table.NewRelation(sch)
	rel.MustAppend(table.Tuple{table.VarValue(1), table.Float(0.5)})
	if _, _, err := ComputeStats(rel, signature.NewStar(signature.Table("R")), Options{}); err == nil {
		t.Error("missing P column must be rejected")
	}
}

// TestGRPSequenceRejectsUnknownTables mirrors validateSources on the
// reference implementation.
func TestGRPSequenceRejectsUnknownTables(t *testing.T) {
	sch := table.NewSchema(table.VarCol("R"), table.ProbCol("R"))
	rel := table.NewRelation(sch)
	if _, err := grpSequence(rel, signature.NewStar(signature.Table("Z"))); err == nil {
		t.Error("unknown table must be rejected")
	}
}

// TestIdenticalRowsDoNotDoubleCount: duplicated full rows (same data and
// variables) must not inflate probabilities — firstUnmatched returns
// "no change" and the step is a no-op.
func TestIdenticalRowsDoNotDoubleCount(t *testing.T) {
	sch := table.NewSchema(table.VarCol("R"), table.ProbCol("R"))
	rel := table.NewRelation(sch)
	row := table.Tuple{table.VarValue(1), table.Float(0.5)}
	rel.MustAppend(row)
	rel.MustAppend(row.Clone())
	out, _, err := ComputeStats(rel, signature.NewStar(signature.Table("R")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !prob.ApproxEqual(out.Rows[0][0].F, 0.5, 1e-12) {
		t.Errorf("conf = %g, want 0.5 (no double counting)", out.Rows[0][0].F)
	}
}

// TestPlanScansComposite: ((R*S*)*(T*U*)*)* runs 4 sort+scan passes — the
// aggregation steps [R*], [T*] and the composite [(R S*)*] of
// signature.Schedule, then the final pass.
func TestPlanScansComposite(t *testing.T) {
	rs := signature.NewStar(signature.NewConcat(signature.NewStar(signature.Table("R")), signature.NewStar(signature.Table("S"))))
	tu := signature.NewStar(signature.NewConcat(signature.NewStar(signature.Table("T")), signature.NewStar(signature.Table("U"))))
	both := signature.NewStar(signature.NewConcat(rs, tu))
	_, stats, err := ComputeStats(oneRowInput(both), both, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(stats.Steps, " "); got != "[R*] [T*] [(R S*)*]" {
		t.Errorf("steps = %s, want [R*] [T*] [(R S*)*]", got)
	}
	if stats.Scans != 4 || stats.Sorts != 4 || signature.NumScans(both) != 4 {
		t.Errorf("scans = %d, sorts = %d, NumScans = %d, want 4", stats.Scans, stats.Sorts, signature.NumScans(both))
	}
}

// oneRowInput is a one-row answer carrying a data column and a V/P pair for
// every table of s — all the operator needs to run s's schedule.
func oneRowInput(s signature.Sig) *table.Relation {
	cols := []table.Column{table.DataCol("d", table.KindInt)}
	row := table.Tuple{table.Int(1)}
	for i, name := range signature.Tables(s) {
		cols = append(cols, table.VarCol(name), table.ProbCol(name))
		row = append(row, table.VarValue(prob.Var(i+1)), table.Float(0.5))
	}
	rel := table.NewRelation(table.NewSchema(cols...))
	rel.MustAppend(row)
	return rel
}

// TestSchedulerMatchesNumScansProperty: for randomly generated signatures,
// the operator runs signature.NumScans sort+scan passes — one per
// scheduled aggregation step, then the final one.
func TestSchedulerMatchesNumScansProperty(t *testing.T) {
	var gen func(r *rand.Rand, depth int, next *int) signature.Sig
	gen = func(r *rand.Rand, depth int, next *int) signature.Sig {
		if depth == 0 || r.Intn(3) == 0 {
			*next++
			tb := signature.Table(string(rune('A' + *next)))
			if r.Intn(2) == 0 {
				return signature.NewStar(tb)
			}
			return tb
		}
		n := 1 + r.Intn(3)
		parts := make([]signature.Sig, n)
		for i := range parts {
			parts[i] = gen(r, depth-1, next)
		}
		c := signature.NewConcat(parts...)
		if r.Intn(2) == 0 {
			return signature.NewStar(c)
		}
		return c
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		next := 0
		s := gen(r, 3, &next)
		_, stats, err := ComputeStats(oneRowInput(s), s, Options{})
		if err != nil {
			t.Logf("seed %d: %s: %v", seed, s, err)
			return false
		}
		return stats.Scans == signature.NumScans(s) && stats.Scans == len(stats.Steps)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
