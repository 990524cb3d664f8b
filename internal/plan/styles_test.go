package plan

import (
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fd"
	"repro/internal/logical"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/signature"
	"repro/internal/table"
)

// TestHybridPrefixSweep: every hybrid split point gives the same answer.
func TestHybridPrefixSweep(t *testing.T) {
	cat, _ := fig1Catalog()
	q := introQ()
	q.Sels = q.Sels[1:] // more answers
	base, err := Run(cat, q.Clone(), tpchFDs(), Spec{Style: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	for prefix := 1; prefix <= 3; prefix++ {
		res, err := Run(cat, q.Clone(), tpchFDs(), Spec{Style: Hybrid, HybridPrefix: prefix})
		if err != nil {
			t.Fatalf("prefix %d: %v", prefix, err)
		}
		if err := sameAnswers(base.Rows, res.Rows, 1e-9); err != nil {
			t.Errorf("prefix %d: %v", prefix, err)
		}
	}
}

// TestEagerWithoutFDsUsesConservativeOps: the eager plan under no FDs uses
// starred per-table operators and still matches lazy.
func TestEagerWithoutFDsOps(t *testing.T) {
	cat, _ := fig1Catalog()
	q := introQ()
	res, err := Run(cat, q, fd.NewSet(), Spec{Style: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stats.Plan, "[") {
		t.Errorf("eager plan should report pushed operators: %s", res.Stats.Plan)
	}
	if res.Rows.Len() != 1 || !prob.ApproxEqual(res.Rows.Rows[0][1].F, 0.0028, 1e-9) {
		t.Errorf("rows = %v", res.Rows.Rows)
	}
}

// TestMystiQRuntimeFailureInjection: a Boolean query over thousands of
// high-probability tuples trips MystiQ's log-sum underflow (§VII), while
// SPROUT's operator handles it exactly.
func TestMystiQRuntimeFailureInjection(t *testing.T) {
	cat := NewCatalog()
	big := table.NewProbTable("Big", table.DataCol("k", table.KindInt))
	for i := 0; i < 200000; i++ {
		big.MustAddRow(prob.Var(i+1), 0.999, table.Int(int64(i)))
	}
	cat.MustAdd(big)
	q := &query.Query{Name: "boom", Rels: []query.RelRef{query.Rel("Big", "k")}}
	if _, err := Run(cat, q, fd.NewSet(), Spec{Style: SafeMystiQ}); err == nil {
		t.Fatal("MystiQ should fail with a runtime error on huge near-certain groups")
	} else if !strings.Contains(err.Error(), "MystiQ runtime error") {
		t.Fatalf("unexpected error: %v", err)
	}
	res, err := Run(cat, q, fd.NewSet(), Spec{Style: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 || res.Rows.Rows[0][0].F <= 0.999 {
		t.Errorf("SPROUT should compute the (≈1) confidence exactly: %v", res.Rows.Rows)
	}
}

// TestRunValidations: invalid queries and unknown styles are rejected.
func TestRunValidations(t *testing.T) {
	cat, _ := fig1Catalog()
	bad := &query.Query{Name: "bad"}
	if _, err := Run(cat, bad, fd.NewSet(), Spec{Style: Lazy}); err == nil {
		t.Error("empty query must be rejected")
	}
	if _, err := Run(cat, introQ(), fd.NewSet(), Spec{Style: Style(99)}); err == nil {
		t.Error("unknown style must be rejected")
	}
}

// TestStatsArepopulated: the stats carry plan text, signature, timings and
// cardinalities for every style.
func TestStatsArePopulated(t *testing.T) {
	for _, style := range []Style{Lazy, Eager, Hybrid, SafeMystiQ} {
		cat, _ := fig1Catalog()
		res, err := Run(cat, introQ(), tpchFDs(), Spec{Style: style})
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		s := res.Stats
		if s.Plan == "" || s.Signature == "" {
			t.Errorf("%v: empty plan/signature", style)
		}
		if s.DistinctTuples != 1 {
			t.Errorf("%v: distinct = %d", style, s.DistinctTuples)
		}
		if s.Total() <= 0 {
			t.Errorf("%v: total time not recorded", style)
		}
	}
}

// TestAnswerRelationShape: plan.Answer returns head data columns plus V/P
// pairs for all relations, the operator's input contract.
func TestAnswerRelationShape(t *testing.T) {
	cat, _ := fig1Catalog()
	rel, err := Answer(cat, introQ())
	if err != nil {
		t.Fatal(err)
	}
	s := rel.Schema
	if len(s.DataIndexes()) != 1 || s.Cols[s.DataIndexes()[0]].Name != "odate" {
		t.Errorf("data columns = %v", s.Names())
	}
	for _, src := range []string{"Cust", "Ord", "Item"} {
		if s.VarIndex(src) < 0 || s.ProbIndex(src) < 0 {
			t.Errorf("missing V/P for %s in %v", src, s.Names())
		}
	}
	// Feeding it to the operator reproduces the known confidence.
	sig, err := signature.Best(introQ(), tpchFDs())
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := conf.ComputeStats(rel, sig, conf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !prob.ApproxEqual(out.Rows[0][1].F, 0.0028, 1e-9) {
		t.Errorf("operator on Answer: %v", out.Rows)
	}
}

// TestLazyOrderDisconnected: disconnected queries still get a total order
// (cross product handled downstream).
func TestLazyOrderDisconnected(t *testing.T) {
	cat := NewCatalog()
	r := table.NewProbTable("R", table.DataCol("a", table.KindInt))
	s := table.NewProbTable("S", table.DataCol("b", table.KindInt))
	r.MustAddRow(1, 0.5, table.Int(1))
	s.MustAddRow(2, 0.5, table.Int(2))
	cat.MustAdd(r)
	cat.MustAdd(s)
	q := &query.Query{Name: "prod", Rels: []query.RelRef{query.Rel("R", "a"), query.Rel("S", "b")}}
	order := LazyOrder(cat, q)
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	res, err := Run(cat, q, fd.NewSet(), Spec{Style: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	// Boolean product: Pr = 0.5 · 0.5.
	if res.Rows.Len() != 1 || !prob.ApproxEqual(res.Rows.Rows[0][0].F, 0.25, 1e-12) {
		t.Errorf("rows = %v", res.Rows.Rows)
	}
}

// TestEstimatePrefersSelections: equality selections shrink estimates more
// than range selections.
func TestEstimatePrefersSelections(t *testing.T) {
	cat, _ := fig1Catalog()
	q := introQ()
	cust, _ := q.RelByName("Cust")
	item, _ := q.RelByName("Item")
	ec := estimate(cat, q, cust) // equality selection
	ei := estimate(cat, q, item) // range selection
	if ec >= ei {
		t.Errorf("estimate(Cust)=%g should be below estimate(Item)=%g", ec, ei)
	}
	if e := estimate(cat, q, query.Rel("Nope", "x")); e != 1 {
		t.Errorf("unknown table estimate = %g, want 1 (floor)", e)
	}
}

// TestJoinPipelineUsesAllSharedAttrs: joins must use every shared data
// attribute (Ord ⋈ Item share okey AND ckey in the Fig. 1 schema).
func TestJoinPipelineUsesAllSharedAttrs(t *testing.T) {
	cat, _ := fig1Catalog()
	q := introQ()
	ord, _ := q.RelByName("Ord")
	item, _ := q.RelByName("Item")
	lo, err := leafPipeline(cat, q, ord, logical.LeafKeep(q, ord), logical.ModeLineage)
	if err != nil {
		t.Fatal(err)
	}
	li, err := leafPipeline(cat, q, item, logical.LeafKeep(q, item), logical.ModeLineage)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := joinPipeline(serialExec(), lo, li, []string{"ckey", "odate"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := engine.NewRelationSink(j.Schema())
	if err := engine.StreamCtx(nil, j, got); err != nil {
		t.Fatal(err)
	}
	n := got.Rel.Len()
	// Matching (okey, ckey) pairs in Fig. 1: okey 1 (2 items), 3 (2), 4 (1),
	// 5 (1) = 6 rows.
	if n != 6 {
		t.Errorf("join rows = %d, want 6", n)
	}
}

// TestGovernorCapsEffectiveBudgets: under a memory governor every
// compilation tier runs with min(its effective budget, the headroom), where
// the effective budget is the explicit one or else the default. The "roomy"
// rows are the regression: with headroom above the default budget the
// shrink used to return early, so an explicit budget above the headroom
// compiled uncapped.
func TestGovernorCapsEffectiveBudgets(t *testing.T) {
	for _, c := range []struct {
		name               string
		headroom, explicit int
		want               int
	}{
		{"roomy/no budget", 1 << 18, 0, dtree.DefaultNodeBudget},
		{"roomy/explicit below", 1 << 18, 1 << 10, 1 << 10},
		{"roomy/explicit above", 1 << 18, 1 << 22, 1 << 18},
		{"tight/no budget", 1 << 12, 0, 1 << 12},
		{"tight/explicit below", 1 << 12, 1 << 10, 1 << 10},
		{"tight/explicit above", 1 << 12, 1 << 22, 1 << 12},
	} {
		gov := fault.NewGovernor(int64(c.headroom)*compileNodeCost, nil)
		ex := exec{maxNodes: nodeHeadroom(gov)}
		spec := Spec{Compile: dtree.Options{NodeBudget: c.explicit}}
		if got := ex.arm(spec.obddOptions()).Budget(); got != c.want {
			t.Errorf("%s: OBDD budget %d, want %d", c.name, got, c.want)
		}
		if got := ex.arm(spec.Compile).Budget(); got != c.want {
			t.Errorf("%s: d-tree budget %d, want %d", c.name, got, c.want)
		}
	}
	// Ungoverned runs keep their budgets.
	if got := (exec{maxNodes: nodeHeadroom(nil)}).arm(dtree.Options{NodeBudget: 1 << 22}).Budget(); got != 1<<22 {
		t.Errorf("ungoverned budget %d, want %d", got, 1<<22)
	}
}

// TestOBDDBudgetOverride: the deprecated Spec.OBDD.NodeBudget overrides the
// one compile budget on the OBDD tier alone, and only when positive.
func TestOBDDBudgetOverride(t *testing.T) {
	spec := Spec{Compile: dtree.Options{NodeBudget: 100, TargetWidth: 0.25}}
	if got := spec.obddOptions(); got.NodeBudget != 100 || got.TargetWidth != 0.25 {
		t.Errorf("no override: OBDD options %+v, want Compile's %+v", got, spec.Compile)
	}
	spec.OBDD.NodeBudget = 8
	if got := spec.obddOptions(); got.NodeBudget != 8 || got.TargetWidth != 0.25 {
		t.Errorf("override: OBDD options %+v, want budget 8 and Compile's width", got)
	}
	if spec.Compile.NodeBudget != 100 {
		t.Errorf("override leaked into Compile: %+v", spec.Compile)
	}
}
