package plan_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
	"repro/internal/tpch"
)

// TestStaticScheduleMatchesAggregation pins what the lowering trusts: the
// signature an eager or hybrid plan leaves for its top operator is computed
// at build time from signature.Rep, and never recomputed from what the
// eager steps return. So for every operator either style schedules on the
// TPC-H catalog, signature.Rep must name the representative
// conf.AggregateFrom leaves, and AggregateFrom must run the passes
// signature.Schedule plans for it — the ones the cost model prices.
func TestStaticScheduleMatchesAggregation(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Seed: 1}).Catalog()
	entries := tpch.Catalog()
	names := make([]string, 0, len(entries))
	for name, e := range entries {
		if e.Q != nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	checked := 0
	for _, name := range names {
		e := entries[name]
		for _, style := range []plan.Style{plan.Eager, plan.Hybrid} {
			p, err := plan.Prepare(cat, e.Q.Clone(), tpch.FDsFor(e), plan.Spec{Style: style})
			if err != nil {
				t.Fatalf("q%s/%v: %v", name, style, err)
			}
			for _, op := range p.ScheduledOps() {
				want := signature.Rep(op)
				var stats conf.Stats
				_, got, err := conf.AggregateFrom(conf.FromRelation(opInput(op)), op, conf.Options{}, &stats)
				if err != nil {
					t.Fatalf("q%s/%v: AggregateFrom(%s): %v", name, style, op, err)
				}
				if got != want {
					t.Errorf("q%s/%v: [%s] leaves %s at run time, Rep says %s", name, style, op, got, want)
				}
				if want := plan.OpPasses(op); stats.Scans != want {
					t.Errorf("q%s/%v: [%s] ran %d scans, its schedule has %d", name, style, op, stats.Scans, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no eager operator was scheduled on the catalog")
	}
	t.Logf("%d scheduled operators checked", checked)
}

// opInput is a one-row intermediate carrying a data column and a V/P pair
// for every table of op — all an aggregation needs to run.
func opInput(op signature.Sig) *table.Relation {
	cols := []table.Column{table.DataCol("d", table.KindInt)}
	row := table.Tuple{table.Int(1)}
	for i, name := range signature.Tables(op) {
		cols = append(cols, table.VarCol(name), table.ProbCol(name))
		row = append(row, table.VarValue(prob.Var(i+1)), table.Float(0.5))
	}
	rel := table.NewRelation(table.NewSchema(cols...))
	rel.MustAppend(row)
	return rel
}

// TestPricedPassesMatchRun: the cost model prices the sort+scan passes the
// plan runs — for every TPC-H catalog entry under the lazy, eager and
// hybrid styles (and the fallback ladder's collection pass where a query
// has no hierarchical signature), the passes priced equal the run's
// Stats.Scans. Pure-propagation operators and a bare-table top run none.
func TestPricedPassesMatchRun(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Seed: 1}).Catalog()
	entries := tpch.Catalog()
	names := make([]string, 0, len(entries))
	for name, e := range entries {
		if e.Q != nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		e := entries[name]
		for _, style := range []plan.Style{plan.Lazy, plan.Eager, plan.Hybrid} {
			p, err := plan.Prepare(cat, e.Q.Clone(), tpch.FDsFor(e), plan.Spec{Style: style})
			if err != nil {
				t.Fatalf("q%s/%v: %v", name, style, err)
			}
			priced, err := p.PricedPasses()
			if err != nil {
				t.Fatalf("q%s/%v: %v", name, style, err)
			}
			res, err := p.Run(context.Background())
			if err != nil {
				t.Fatalf("q%s/%v: %v", name, style, err)
			}
			if res.Stats.Scans != priced {
				t.Errorf("q%s/%v: priced %d passes, the run made %d", name, style, priced, res.Stats.Scans)
			}
		}
	}
}
