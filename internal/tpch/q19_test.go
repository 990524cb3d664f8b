package tpch

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/table"
)

// q19Conjuncts returns the three hierarchical conjunctive queries whose
// disjunction is TPC-H query 19 ("discounted revenue"). The paper (§VI)
// observes that the three conjunctions are mutually exclusive — each selects
// a different brand and container class, hence disjoint sets of independent
// tuples — so the disjunction's confidence is the independent OR of the
// three conjunct confidences.
func q19Conjuncts() []*query.Query {
	mk := func(i int, brand, container string, qlo, qhi int64, mode string) *query.Query {
		return &query.Query{
			Name: fmt.Sprintf("19c%d", i),
			Rels: []query.RelRef{relItem(), relPart()},
			Sels: []query.Selection{
				sel("Part", "brand", engine.OpEq, table.Str(brand)),
				sel("Part", "container", engine.OpEq, table.Str(container)),
				sel("Item", "qty", engine.OpGe, table.Int(qlo)),
				sel("Item", "qty", engine.OpLe, table.Int(qhi)),
				sel("Item", "smode", engine.OpEq, table.Str(mode)),
			},
		}
	}
	return []*query.Query{
		mk(1, "Brand#12", "SM CASE", 1, 11, "AIR"),
		mk(2, "Brand#23", "MED BOX", 10, 20, "AIR"),
		mk(3, "Brand#34", "LG CASE", 20, 30, "AIR"),
	}
}

// runQ19 evaluates the Boolean query 19 as the paper prescribes: each
// conjunct separately (each is hierarchical), then the confidences combined
// with the independent-OR formula, which is exact because the conjuncts'
// selections are mutually exclusive on Part (different brands) and
// therefore use disjoint variable sets.
func runQ19(catalog *plan.Catalog, sigma *fd.Set, spec plan.Spec) (float64, error) {
	var ps []float64
	for _, q := range q19Conjuncts() {
		res, err := plan.Run(catalog, q, sigma, spec)
		if err != nil {
			return 0, fmt.Errorf("tpch: Q19 conjunct %s: %w", q.Name, err)
		}
		switch res.Rows.Len() {
		case 0:
			// Empty conjunct: contributes probability 0.
		case 1:
			ps = append(ps, res.Rows.Rows[0][0].F)
		default:
			return 0, fmt.Errorf("tpch: Q19 conjunct %s returned %d rows for a Boolean query", q.Name, res.Rows.Len())
		}
	}
	return prob.OrAll(ps), nil
}

// TestQ19ConjunctsHierarchical: each of the three conjunctions of query 19
// is hierarchical on its own (§VI: "a disjunction of three hierarchical
// conjunctions that are mutually exclusive").
func TestQ19ConjunctsHierarchical(t *testing.T) {
	cs := q19Conjuncts()
	if len(cs) != 3 {
		t.Fatalf("got %d conjuncts", len(cs))
	}
	for _, q := range cs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		if !q.IsHierarchical() {
			t.Errorf("%s must be hierarchical", q.Name)
		}
	}
	// Mutual exclusion: the brand selections differ pairwise.
	brands := make(map[string]bool)
	for _, q := range cs {
		for _, s := range q.Sels {
			if s.Attr == "brand" {
				brands[s.Val.S] = true
			}
		}
	}
	if len(brands) != 3 {
		t.Errorf("conjuncts must select three distinct brands, got %v", brands)
	}
}

// TestRunQ19MatchesDirectOr: combining the conjunct confidences with the
// independent OR equals evaluating each conjunct and OR-ing by hand.
func TestRunQ19MatchesDirectOr(t *testing.T) {
	d := Generate(Config{SF: 0.004, Seed: 21})
	catalog := d.Catalog()
	sigma := FDs()
	got, err := runQ19(catalog, sigma, plan.Spec{Style: plan.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got > 1 {
		t.Fatalf("Q19 confidence %g outside [0,1]", got)
	}
	var ps []float64
	for _, q := range q19Conjuncts() {
		res, err := plan.Run(catalog, q, sigma, plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows.Len() == 1 {
			ps = append(ps, res.Rows.Rows[0][0].F)
		}
	}
	want := prob.OrAll(ps)
	if !prob.ApproxEqual(got, want, 1e-12) {
		t.Errorf("runQ19 = %g, direct OR = %g", got, want)
	}
	// Plan styles agree on the disjunction too.
	eager, err := runQ19(catalog, sigma, plan.Spec{Style: plan.Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !prob.ApproxEqual(got, eager, 1e-9) {
		t.Errorf("lazy %g vs eager %g on Q19", got, eager)
	}
}
