// Degradation-contract tests: a run that hits its deadline watermark or
// memory budget must complete in a reduced mode — certified bounds, early
// spills, grace joins — with Stats.Degraded set, instead of failing with
// context.DeadlineExceeded or an OOM. The certified bounds are checked
// against fault-free exact confidences of the same queries.
package sprout_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/tpch"
)

// headKey renders the head values of an answer row (everything but the
// trailing confidence column) as a comparison key.
func headKey(row table.Tuple) string {
	parts := make([]string, len(row)-1)
	for i := range parts {
		parts[i] = row[i].String()
	}
	return strings.Join(parts, "|")
}

// TestInsufficientDeadlineDegradesToBounds is the acceptance scenario of
// the robustness work: an unsafe TPC-H query (no hierarchical signature
// even under FDs, so confidence computation goes through lineage
// compilation) whose deadline watermark has already passed must return
// certified [lo, hi] bounds containing every true confidence, with
// Stats.Degraded=true and reason "deadline" — not context.DeadlineExceeded.
func TestInsufficientDeadlineDegradesToBounds(t *testing.T) {
	d := obddTestData()
	catalog := d.Catalog()
	for _, name := range []string{"5"} {
		e := tpch.Catalog()[name]
		if e == nil || e.Q == nil {
			t.Fatalf("catalog query %s missing", name)
		}
		sigma := tpch.FDsFor(e)

		// Fault-free exact truth: with the full node budget these instances
		// compile exactly despite being #P-hard in general.
		base, err := plan.Run(catalog, e.Q.Clone(), sigma, plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		if base.Stats.Approximate {
			t.Fatalf("%s baseline did not compile exactly; pick a smaller instance", name)
		}
		truth := make(map[string]float64, base.Rows.Len())
		ci := base.Rows.Schema.MustColIndex(conf.ConfCol)
		for _, row := range base.Rows.Rows {
			truth[headKey(row)] = row[ci].F
		}

		// The degraded run: the deadline is comfortably in the future (the
		// tuple phase must finish), but the watermark margin exceeds the
		// remaining time, so the confidence tiers stop immediately at their
		// current certified bounds.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := plan.RunContext(ctx, catalog, e.Q.Clone(), sigma,
			plan.Spec{Style: plan.Lazy, Watermark: time.Hour})
		cancel()
		if err != nil {
			t.Fatalf("%s: insufficient deadline must degrade, not fail: %v", name, err)
		}
		if !res.Stats.Degraded || !strings.Contains(res.Stats.DegradeReason, "deadline") {
			t.Fatalf("%s: Degraded=%v reason=%q, want deadline degradation",
				name, res.Stats.Degraded, res.Stats.DegradeReason)
		}
		if !res.Stats.Approximate {
			t.Errorf("%s: stopped compilation must report Approximate bounds", name)
		}
		lo, hi := res.Stats.LowerBound, res.Stats.UpperBound
		if !(lo <= hi) || lo < 0 || hi > 1 {
			t.Fatalf("%s: malformed certified interval [%g, %g]", name, lo, hi)
		}
		if res.Rows.Len() != base.Rows.Len() {
			t.Fatalf("%s: %d degraded rows vs %d baseline rows", name, res.Rows.Len(), base.Rows.Len())
		}
		const eps = 1e-9
		for _, row := range res.Rows.Rows {
			tr, ok := truth[headKey(row)]
			if !ok {
				t.Fatalf("%s: degraded answer %q missing from baseline", name, headKey(row))
			}
			if tr < lo-eps || tr > hi+eps {
				t.Errorf("%s: certified [%g, %g] excludes true confidence %g of %q",
					name, lo, hi, tr, headKey(row))
			}
		}
	}
}

// TestGenerousDeadlineStaysExact: a watermark far from triggering leaves
// the run exact and undegraded — the watermark is pay-when-needed. And a
// tripped watermark on a query whose per-answer lineages resolve exactly
// from clause weights alone (query 8 at this scale: single-clause
// lineages, where the cheap bounds collapse) also stays exact: degradation
// happens only when exactness actually needed the time it didn't have.
func TestGenerousDeadlineStaysExact(t *testing.T) {
	d := obddTestData()
	catalog := d.Catalog()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	e := tpch.Catalog()["5"]
	res, err := plan.RunContext(ctx, catalog, e.Q.Clone(), tpch.FDsFor(e),
		plan.Spec{Style: plan.Lazy, Watermark: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded || res.Stats.Approximate {
		t.Errorf("generous deadline must stay exact: %+v", res.Stats)
	}

	e = tpch.Catalog()["8"]
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	res, err = plan.RunContext(ctx2, catalog, e.Q.Clone(), tpch.FDsFor(e),
		plan.Spec{Style: plan.Lazy, Watermark: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded || res.Stats.Approximate {
		t.Errorf("trivially-resolvable lineage must stay exact under a tripped watermark: %+v", res.Stats)
	}
}

// TestMemoryBudgetOnTPCH runs a multi-join TPC-H query under a budget that
// forces governed execution — in both tiers, each with its own grace join,
// under the lazy plan and under MystiQ's safe plan, whose joins and
// independent projections charge the same governor — asserting a run marked
// degraded by memory whose answers are identical to the ungoverned run's
// (grace joins and early spills reorder work, never results) and no spill
// file left behind.
func TestMemoryBudgetOnTPCH(t *testing.T) {
	d := obddTestData()
	catalog := d.Catalog()
	e := tpch.Catalog()["18"]
	sigma := tpch.FDsFor(e)
	for _, style := range []plan.Style{plan.Lazy, plan.SafeMystiQ} {
		base, err := plan.Run(catalog, e.Q.Clone(), sigma, plan.Spec{Style: style})
		if err != nil {
			t.Fatal(err)
		}
		ci := base.Rows.Schema.MustColIndex(conf.ConfCol)
		truth := make(map[string]float64, base.Rows.Len())
		for _, row := range base.Rows.Rows {
			truth[headKey(row)] = row[ci].F
		}
		for _, rowExec := range []bool{false, true} {
			name := fmt.Sprintf("%v RowExec=%v", style, rowExec)
			sp := plan.Spec{Style: style, MemBudget: 128 << 10, RowExec: rowExec}
			sp.Conf.TmpDir = t.TempDir()
			gov, err := plan.Run(catalog, e.Q.Clone(), sigma, sp)
			if err != nil {
				t.Fatalf("governed run (%s): %v", name, err)
			}
			if !gov.Stats.Degraded || gov.Stats.DegradeReason != "memory" || gov.Stats.GraceJoins == 0 {
				t.Errorf("%s: the budget must degrade the run by memory through a grace join: %+v", name, gov.Stats)
			}
			if base.Rows.Len() != gov.Rows.Len() {
				t.Fatalf("%s: %d governed rows vs %d ungoverned", name, gov.Rows.Len(), base.Rows.Len())
			}
			for _, row := range gov.Rows.Rows {
				w, ok := truth[headKey(row)]
				if !ok {
					t.Fatalf("%s: governed answer %q missing from baseline", name, headKey(row))
				}
				if g := row[ci].F; g != w {
					t.Errorf("%s: answer %q: governed confidence %s != ungoverned %s",
						name, headKey(row), fmt.Sprintf("%x", g), fmt.Sprintf("%x", w))
				}
			}
			if entries, err := os.ReadDir(sp.Conf.TmpDir); err != nil || len(entries) != 0 {
				t.Errorf("%s: governed run leaked %d spill files (%v)", name, len(entries), err)
			}
		}
	}
}
