package sprout

import (
	"strings"
	"testing"

	"repro/internal/table"
)

// fig1DB rebuilds the paper's Fig. 1 database through the public API.
func fig1DB(t testing.TB) *DB {
	db := NewDB()
	cust := db.MustCreateTable("Cust", IntCol("ckey"), StringCol("cname"))
	for i, n := range []string{"Joe", "Dan", "Li", "Mo"} {
		cust.MustInsert(0.1*float64(i+1), Int(int64(i+1)), String(n))
	}
	ord := db.MustCreateTable("Ord", IntCol("okey"), IntCol("ckey"), StringCol("odate"))
	ordRows := []struct {
		okey, ckey int64
		date       string
		p          float64
	}{
		{1, 1, "1995-01-10", 0.1}, {2, 1, "1996-01-09", 0.2}, {3, 2, "1994-11-11", 0.3},
		{4, 2, "1993-01-08", 0.4}, {5, 3, "1995-08-15", 0.5}, {6, 3, "1996-12-25", 0.6},
	}
	for _, r := range ordRows {
		ord.MustInsert(r.p, Int(r.okey), Int(r.ckey), String(r.date))
	}
	item := db.MustCreateTable("Item", IntCol("okey"), FloatCol("discount"), IntCol("ckey"))
	itemRows := []struct {
		okey int64
		disc float64
		ckey int64
		p    float64
	}{
		{1, 0.1, 1, 0.1}, {1, 0.2, 1, 0.2}, {3, 0.4, 2, 0.3},
		{3, 0.1, 2, 0.4}, {4, 0.4, 2, 0.5}, {5, 0.1, 3, 0.6},
	}
	for _, r := range itemRows {
		item.MustInsert(r.p, Int(r.okey), Float(r.disc), Int(r.ckey))
	}
	db.DeclareKey("Cust", []string{"ckey"}, []string{"ckey", "cname"})
	db.DeclareKey("Ord", []string{"okey"}, []string{"okey", "ckey", "odate"})
	return db
}

func introQuery() *Query {
	return NewQuery("Q").
		Select("odate").
		From("Cust", "ckey", "cname").
		From("Ord", "okey", "ckey", "odate").
		From("Item", "okey", "discount", "ckey").
		Where("Cust", "cname", Eq, String("Joe")).
		Where("Item", "discount", Gt, Float(0))
}

// TestQuickstartPaperExample is the end-to-end check of the paper's running
// example through the public API: one answer, 1995-01-10, confidence 0.0028.
func TestQuickstartPaperExample(t *testing.T) {
	db := fig1DB(t)
	for _, style := range []PlanStyle{Lazy, Eager, Hybrid, MystiQ} {
		res, err := db.Run(introQuery(), style)
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%v: %d rows", style, len(res.Rows))
		}
		if got := res.Rows[0].Values[0].String(); got != "1995-01-10" {
			t.Errorf("%v: odate = %s", style, got)
		}
		c := res.Rows[0].Confidence
		eps := 1e-9
		if style == MystiQ {
			eps = 0.01 // MystiQ's 1.001 fudge factor
		}
		if d := c - 0.0028; d > eps || d < -eps {
			t.Errorf("%v: confidence %g, want 0.0028", style, c)
		}
	}
}

func TestSignatureAndScans(t *testing.T) {
	db := fig1DB(t)
	sig, err := db.Signature(introQuery())
	if err != nil {
		t.Fatal(err)
	}
	if strings.ReplaceAll(sig, " ", "") != "(Cust(OrdItem*)*)*" {
		t.Errorf("signature = %s", sig)
	}
	n, err := db.NumScans(introQuery())
	if err != nil || n != 1 {
		t.Errorf("NumScans = %d, %v (want 1 under the keys)", n, err)
	}

	db3 := NewDB()
	c := db3.MustCreateTable("Cust", IntCol("ckey"), StringCol("cname"))
	c.MustInsert(0.1, Int(1), String("Joe"))
	o := db3.MustCreateTable("Ord", IntCol("okey"), IntCol("ckey"), StringCol("odate"))
	o.MustInsert(0.1, Int(1), Int(1), String("d"))
	i := db3.MustCreateTable("Item", IntCol("okey"), FloatCol("discount"), IntCol("ckey"))
	i.MustInsert(0.1, Int(1), Float(0.1), Int(1))
	// Without declared FDs the signature is (Cust*(Ord Item*)*)*: the
	// Σ=∅ FD-reduct already fixes odate per bag of duplicates, so Ord
	// loses its star and only two scans remain (the paper's conservative
	// plain signature (Cust*(Ord*Item*)*)* would need three, Ex. V.11).
	n, err = db3.NumScans(introQuery())
	if err != nil || n != 2 {
		t.Errorf("NumScans without FDs = %d, %v (want 2)", n, err)
	}
}

func TestBooleanQuery(t *testing.T) {
	db := fig1DB(t)
	q := introQuery()
	q.q.Head = nil
	res, err := db.Run(q, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Values) != 0 {
		t.Fatalf("Boolean query should give one valueless row: %+v", res.Rows)
	}
	if res.Rows[0].Confidence <= 0 {
		t.Error("Boolean confidence should be positive")
	}
}

func TestIntractableFallsThroughChain(t *testing.T) {
	db := NewDB()
	r := db.MustCreateTable("R", IntCol("a"))
	s := db.MustCreateTable("S", IntCol("a"), IntCol("b"))
	u := db.MustCreateTable("T", IntCol("b"))
	r.MustInsert(0.5, Int(1))
	s.MustInsert(0.5, Int(1), Int(2))
	u.MustInsert(0.5, Int(2))
	q := NewQuery("hard").From("R", "a").From("S", "a", "b").From("T", "b")

	// RequireExact restores the pre-estimator behaviour: the prototypical
	// hard query R(a) ⋈ S(a,b) ⋈ T(b) is rejected.
	if _, err := db.Run(q, Lazy, RequireExact()); err == nil {
		t.Fatal("the prototypical hard query must be rejected under RequireExact")
	}
	// Without it, the exact style falls through the chain: the single
	// answer's lineage (one clause, 0.5³) closes on the OBDD rung in zero
	// expansion steps — a single clause's probability is its weight — so
	// the result stays exact, and the plan line names the rung.
	res, err := db.Run(q, Lazy)
	if err != nil {
		t.Fatalf("OBDD fallback failed: %v", err)
	}
	if res.Stats.Approximate {
		t.Error("OBDD fallback under budget must stay exact")
	}
	if !strings.HasPrefix(res.Stats.Plan, "obdd (fallback from lazy") {
		t.Errorf("the OBDD rung should produce the result: plan %q", res.Stats.Plan)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if d := res.Rows[0].Confidence - 0.125; d > 1e-9 || d < -1e-9 {
		t.Errorf("confidence = %g, want 0.125", res.Rows[0].Confidence)
	}

	// Densify the instance (shared variables across clauses, so not even
	// the anytime mode's cheap bounds resolve it) and starve the node
	// budget: the chain falls through to Monte Carlo.
	r.MustInsert(0.5, Int(2))
	u.MustInsert(0.5, Int(3))
	s.MustInsert(0.5, Int(1), Int(3))
	s.MustInsert(0.5, Int(2), Int(2))
	s.MustInsert(0.5, Int(2), Int(3))
	res, err = db.Run(q, Lazy, WithNodeBudget(1), WithSeed(3))
	if err != nil {
		t.Fatalf("Monte Carlo fallback failed: %v", err)
	}
	if !res.Stats.Approximate || res.Stats.Samples == 0 {
		t.Errorf("Monte Carlo fallback must be an approximate, sampled run: %+v", res.Stats)
	}

	// Declaring a → b (a key of S) rescues exactness.
	db.DeclareFD("S", []string{"a"}, []string{"b"})
	res, err = db.Run(q, Lazy, RequireExact())
	if err != nil {
		t.Fatalf("with a→b the query is tractable: %v", err)
	}
	if res.Stats.Approximate {
		t.Error("with a→b the result must be exact")
	}
}

func TestDuplicateTableRejected(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("R", IntCol("a"))
	if _, err := db.CreateTable("R", IntCol("a")); err == nil {
		t.Error("duplicate table should be rejected")
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDB()
	r := db.MustCreateTable("R", IntCol("a"))
	if err := r.Insert(1.5, Int(1)); err == nil {
		t.Error("probability > 1 should be rejected")
	}
	if err := r.Insert(0.5, Int(1), Int(2)); err == nil {
		t.Error("arity mismatch should be rejected")
	}
	if r.Name() != "R" || r.Len() != 0 {
		t.Error("metadata accessors wrong")
	}
}

// mustNameAll fails unless err is non-nil and mentions every word.
func mustNameAll(t *testing.T, err error, words ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("accepted; want an error naming %v", words)
	}
	for _, w := range words {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not name %q", err, w)
		}
	}
}

// TestWrongKindRejected: a value whose kind is not its column's is refused
// where rows enter — Insert, and AddTable of a table whose chunks were put
// in place by hand — with an error naming the table, the column and both
// kinds. NULL fits any column.
func TestWrongKindRejected(t *testing.T) {
	db := NewDB()
	r := db.MustCreateTable("R", IntCol("a"), FloatCol("price"))
	r.MustInsert(0.5, Int(1), Value{})
	mustNameAll(t, r.Insert(0.5, Int(2), Int(3)), "table R", "price", "float", "int")
	if r.Len() != 1 {
		t.Errorf("R holds %d rows after a refused insert, want 1", r.Len())
	}

	pt := table.NewProbTable("S", table.DataCol("a", table.KindInt), table.DataCol("price", table.KindFloat))
	pt.MustAddRow(1, 0.5, table.Int(1), table.Float(2.5))
	bad := table.NewColBatch(table.NewSchema(table.DataCol("a", table.KindInt), table.DataCol("price", table.KindInt), table.VarCol("S"), table.ProbCol("S")))
	bad.AppendRow(table.Tuple{table.Int(2), table.Int(3), table.VarValue(2), table.Float(0.5)})
	pt.Rel.Chunks = append(pt.Rel.Chunks, bad)
	mustNameAll(t, db.AddTable(pt), "table S", "price", "float", "int")
	if _, ok := db.Catalog().Table("S"); ok {
		t.Error("a refused table must not be registered")
	}
}

func TestExplainAndFormat(t *testing.T) {
	db := fig1DB(t)
	desc, err := db.Explain(introQuery(), Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "lazy") || !strings.Contains(desc, "Cust") {
		t.Errorf("Explain = %q", desc)
	}
	res, err := db.Run(introQuery(), Lazy)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Format()
	if !strings.Contains(f, "odate") || !strings.Contains(f, "0.0028") {
		t.Errorf("Format = %q", f)
	}
}

func TestAliasSelfJoin(t *testing.T) {
	// Two mutually exclusive selections over the same base table via
	// aliases (the §IV self-join device).
	db := NewDB()
	nation := db.MustCreateTable("Nation", IntCol("nkey"), StringCol("nname"))
	nation.MustInsert(0.5, Int(1), String("FRANCE"))
	nation.MustInsert(0.5, Int(2), String("GERMANY"))
	link := db.MustCreateTable("Link", IntCol("n1key"), IntCol("n2key"))
	link.MustInsert(0.5, Int(1), Int(2))
	q := NewQuery("pairs").
		FromAlias("Nation1", "Nation", "n1key", "n1name").
		From("Link", "n1key", "n2key").
		FromAlias("Nation2", "Nation", "n2key", "n2name").
		Where("Nation1", "n1name", Eq, String("FRANCE")).
		Where("Nation2", "n2name", Eq, String("GERMANY"))
	// Nation1 ⋈ Link ⋈ Nation2 is the prototypical hard pattern without
	// FDs (Link joins both sides on different attributes): exact styles
	// reject it under RequireExact and fall through the OBDD tier
	// otherwise — which compiles the single-clause lineage exactly.
	if _, err := db.Run(q, Lazy, RequireExact()); err == nil {
		t.Fatal("link query without FDs must be rejected under RequireExact")
	}
	want := 0.5 * 0.5 * 0.5
	res, err := db.Run(q, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Approximate || len(res.Rows) != 1 {
		t.Fatalf("fallback: approximate=%v rows=%+v", res.Stats.Approximate, res.Rows)
	}
	if d := res.Rows[0].Confidence - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("fallback confidence = %g, want %g (single-clause lineage is exact)", res.Rows[0].Confidence, want)
	}
	// Declaring n1key → n2key (Link keyed by its left endpoint) makes it
	// exactly tractable, mirroring how TPC-H Q7 is rescued.
	db.DeclareFD("Link", []string{"n1key"}, []string{"n2key"})
	res, err = db.Run(q, Lazy, RequireExact())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Approximate || len(res.Rows) != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if d := res.Rows[0].Confidence - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("confidence = %g, want %g", res.Rows[0].Confidence, want)
	}
}

// TestMonteCarloStyle runs the paper's running example under the explicit
// MonteCarlo style: the estimate must land within ε of the exact confidence
// (0.0028), and the same seed must reproduce it exactly.
func TestMonteCarloStyle(t *testing.T) {
	db := fig1DB(t)
	const eps = 0.01
	res, err := db.Run(introQuery(), MonteCarlo, WithEpsilonDelta(eps, 1e-4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Approximate {
		t.Error("MonteCarlo style must mark results approximate")
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0].String() != "1995-01-10" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if d := res.Rows[0].Confidence - 0.0028; d > eps || d < -eps {
		t.Errorf("estimate %g not within ε=%g of 0.0028", res.Rows[0].Confidence, eps)
	}
	again, err := db.Run(introQuery(), MonteCarlo, WithEpsilonDelta(eps, 1e-4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if again.Rows[0].Confidence != res.Rows[0].Confidence {
		t.Errorf("same seed gave %g then %g", res.Rows[0].Confidence, again.Rows[0].Confidence)
	}
}

// TestOBDDStyle runs the paper's running example under the explicit OBDD
// style: hierarchical lineage compiles exactly, reproducing the paper's
// 0.0028 to full precision.
func TestOBDDStyle(t *testing.T) {
	db := fig1DB(t)
	res, err := db.Run(introQuery(), OBDD)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Approximate {
		t.Errorf("hierarchical lineage must compile exactly: %+v", res.Stats)
	}
	if res.Stats.OBDDNodes == 0 {
		t.Error("Stats.OBDDNodes should report the compilation effort")
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0].String() != "1995-01-10" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if d := res.Rows[0].Confidence - 0.0028; d > 1e-9 || d < -1e-9 {
		t.Errorf("confidence = %g, want 0.0028", res.Rows[0].Confidence)
	}
}

// TestOBDDStyleBounds: starving the node budget yields certified bounds —
// Stats.LowerBound ≤ truth ≤ Stats.UpperBound with the confidence at the
// midpoint — deterministic across runs, and WithTargetWidth caps the
// interval when the budget allows.
func TestOBDDStyleBounds(t *testing.T) {
	db := NewDB()
	r := db.MustCreateTable("R", IntCol("a"))
	s := db.MustCreateTable("S", IntCol("a"), IntCol("b"))
	u := db.MustCreateTable("T", IntCol("b"))
	for a := 1; a <= 3; a++ {
		r.MustInsert(0.4, Int(int64(a)))
	}
	for b := 1; b <= 3; b++ {
		u.MustInsert(0.6, Int(int64(b)))
	}
	for a := 1; a <= 3; a++ {
		for b := 1; b <= 3; b++ {
			s.MustInsert(0.5, Int(int64(a)), Int(int64(b)))
		}
	}
	q := NewQuery("hard").From("R", "a").From("S", "a", "b").From("T", "b")

	// Exact value of this 3×3 bipartite lineage, from the OBDD run with an
	// ample budget (cross-checked against enumeration at the plan layer).
	exact, err := db.Run(q, OBDD)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Approximate {
		t.Fatalf("ample budget should be exact: %+v", exact.Stats)
	}
	truth := exact.Rows[0].Confidence

	res, err := db.Run(q, OBDD, WithNodeBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if !st.Approximate {
		t.Fatalf("budget 3 should force bounds: %+v", st)
	}
	if st.LowerBound > truth+1e-9 || truth > st.UpperBound+1e-9 {
		t.Errorf("truth %g outside certified [%g, %g]", truth, st.LowerBound, st.UpperBound)
	}
	mid := res.Rows[0].Confidence
	if d := mid - (st.LowerBound+st.UpperBound)/2; d > 1e-9 || d < -1e-9 {
		t.Errorf("confidence %g is not the bound midpoint of [%g, %g]", mid, st.LowerBound, st.UpperBound)
	}
	again, err := db.Run(q, OBDD, WithNodeBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	if again.Rows[0].Confidence != mid || again.Stats.LowerBound != st.LowerBound {
		t.Error("bound-mode runs must be deterministic for a fixed budget")
	}

	wide, err := db.Run(q, OBDD, WithTargetWidth(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if w := wide.Stats.UpperBound - wide.Stats.LowerBound; wide.Stats.Approximate && w > 0.2 {
		t.Errorf("target width 0.2 exceeded: %g", w)
	}
	if wide.Stats.Approximate {
		if wide.Stats.LowerBound > truth+1e-9 || truth > wide.Stats.UpperBound+1e-9 {
			t.Errorf("truth %g outside certified [%g, %g]", truth, wide.Stats.LowerBound, wide.Stats.UpperBound)
		}
	}
}
