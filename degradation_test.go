// Degradation-contract tests: a run that hits its deadline watermark or
// memory budget must complete in a reduced mode — certified bounds, early
// spills, grace joins — with Stats.Degraded set, instead of failing with
// context.DeadlineExceeded or an OOM. The certified bounds are checked
// against fault-free exact confidences of the same queries.
package sprout_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/difftest"
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
// the robustness work: unsafe TPC-H queries (no hierarchical signature even
// under FDs, so confidence computation goes through lineage compilation)
// run under deadline watermarks that leave the confidence tiers no time,
// about half the exact run's wall time, and more than the whole run. No
// allowance may end in context.DeadlineExceeded: a degraded run's certified
// [lo, hi] bounds must contain every true confidence, and an undegraded one
// must match the exact run to 1e-12 (a tripped watermark can resolve
// trivial lineages through the cheap-bounds path, whose evaluation order
// differs from the full compile by an ulp). Query 5's watermark, already
// passed when the tiers arm, must degrade with reason "deadline"; query 9's
// single-clause lineages resolve exactly even then.
func TestInsufficientDeadlineDegradesToBounds(t *testing.T) {
	d := obddTestData()
	catalog := d.Catalog()
	for _, name := range []string{"5", "9"} {
		e := tpch.Catalog()[name]
		if e == nil || e.Q == nil {
			t.Fatalf("catalog query %s missing", name)
		}
		sigma := tpch.FDsFor(e)

		// Fault-free exact truth: with the full node budget these instances
		// compile exactly despite being #P-hard in general.
		start := time.Now()
		base, err := plan.Run(catalog, e.Q.Clone(), sigma, plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		baseWall := time.Since(start)
		if base.Stats.Approximate {
			t.Fatalf("%s baseline did not compile exactly; pick a smaller instance", name)
		}
		truth := make(map[string]float64, base.Rows.Len())
		ci := base.Rows.Schema.MustColIndex(conf.ConfCol)
		for _, row := range base.Rows.Rows {
			truth[headKey(row)] = row[ci].F
		}

		// The deadline is comfortably in the future (the tuple phase must
		// finish); the watermark puts the instant the confidence tiers stop
		// `allowance` after the run starts. At 0 it has already passed when
		// they arm, so they stop at their first certified bounds.
		deadline := 20*baseWall + 10*time.Second
		for _, allowance := range []time.Duration{0, baseWall / 2, 4 * baseWall} {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			res, err := plan.RunContext(ctx, catalog, e.Q.Clone(), sigma,
				plan.Spec{Style: plan.Lazy, Watermark: deadline - allowance})
			cancel()
			at := fmt.Sprintf("%s at allowance %v", name, allowance)
			if err != nil {
				t.Fatalf("%s: insufficient deadline must degrade, not fail: %v", at, err)
			}
			if res.Rows.Len() != base.Rows.Len() {
				t.Fatalf("%s: %d rows vs %d baseline rows", at, res.Rows.Len(), base.Rows.Len())
			}
			if allowance == 0 && name == "5" && !res.Stats.Approximate {
				t.Errorf("%s: an already-passed watermark must stop compilation at certified bounds", at)
			}
			if !res.Stats.Approximate {
				for _, row := range res.Rows.Rows {
					tr, ok := truth[headKey(row)]
					if !ok || math.Abs(row[ci].F-tr) > 1e-12 {
						t.Errorf("%s: exact answer %q has confidence %g, baseline %g (present %v)",
							at, headKey(row), row[ci].F, tr, ok)
					}
				}
				continue
			}
			if !res.Stats.Degraded || !strings.Contains(res.Stats.DegradeReason, "deadline") {
				t.Fatalf("%s: Degraded=%v reason=%q, want deadline degradation",
					at, res.Stats.Degraded, res.Stats.DegradeReason)
			}
			lo, hi := res.Stats.Lineage.LowerBound, res.Stats.Lineage.UpperBound
			if !(lo <= hi) || lo < 0 || hi > 1 {
				t.Fatalf("%s: malformed certified interval [%g, %g]", at, lo, hi)
			}
			const eps = 1e-9
			for _, row := range res.Rows.Rows {
				tr, ok := truth[headKey(row)]
				if !ok {
					t.Fatalf("%s: degraded answer %q missing from baseline", at, headKey(row))
				}
				if tr < lo-eps || tr > hi+eps {
					t.Errorf("%s: certified [%g, %g] excludes true confidence %g of %q",
						at, lo, hi, tr, headKey(row))
				}
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

// TestExpiredDeadlineFailsCleanly pins the narrow side of the watermark
// contract: the watermark degrades only the confidence tiers, and the
// relational pipeline feeding them is bounded by the context's deadline
// alone, checked once per batch. A watermarked run over a disk catalog whose
// deadline has already passed therefore fails with
// context.DeadlineExceeded under every style, governed and spill-prone,
// and leaves no spill file and no pinned buffer-pool frame behind.
func TestExpiredDeadlineFailsCleanly(t *testing.T) {
	difftest.LeakCheck(t)
	dir := t.TempDir()
	if err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 4}).WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	disk, _, closeFiles, err := tpch.OpenDiskCatalog(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFiles()
	bp := disk.Disk(disk.Names()[0]).Pool
	e := tpch.Catalog()["18"]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, style := range []plan.Style{plan.Lazy, plan.Eager, plan.SafeMystiQ, plan.OBDD, plan.MonteCarlo} {
		sp := plan.Spec{Style: style, Watermark: time.Second, MemBudget: 128 << 10}
		sp.Conf.TmpDir = t.TempDir()
		sp.Conf.SortBudget = 256
		_, err := plan.RunContext(ctx, disk, e.Q.Clone(), tpch.FDsFor(e), sp)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: got %v, want context.DeadlineExceeded", style, err)
		}
		if entries, err := os.ReadDir(sp.Conf.TmpDir); err != nil || len(entries) != 0 {
			t.Errorf("%v: expired run leaked %d spill files (%v)", style, len(entries), err)
		}
		if n := bp.Pinned(); n != 0 {
			t.Errorf("%v: expired run left %d buffer-pool frames pinned", style, n)
		}
	}
}

// TestMemoryBudgetOnTPCH runs a multi-join TPC-H query under a budget that
// forces governed execution — a grace join under the lazy plan and under
// MystiQ's safe plan, whose joins and
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
		sp := plan.Spec{Style: style, MemBudget: 128 << 10}
		sp.Conf.TmpDir = t.TempDir()
		gov, err := plan.Run(catalog, e.Q.Clone(), sigma, sp)
		if err != nil {
			t.Fatalf("governed run (%v): %v", style, err)
		}
		if !gov.Stats.Degraded || gov.Stats.DegradeReason != "memory" || gov.Stats.GraceJoins == 0 {
			t.Errorf("%v: the budget must degrade the run by memory through a grace join: %+v", style, gov.Stats)
		}
		if base.Rows.Len() != gov.Rows.Len() {
			t.Fatalf("%v: %d governed rows vs %d ungoverned", style, gov.Rows.Len(), base.Rows.Len())
		}
		for _, row := range gov.Rows.Rows {
			w, ok := truth[headKey(row)]
			if !ok {
				t.Fatalf("%v: governed answer %q missing from baseline", style, headKey(row))
			}
			if g := row[ci].F; g != w {
				t.Errorf("%v: answer %q: governed confidence %x != ungoverned %x", style, headKey(row), g, w)
			}
		}
		if entries, err := os.ReadDir(sp.Conf.TmpDir); err != nil || len(entries) != 0 {
			t.Errorf("%v: governed run leaked %d spill files (%v)", style, len(entries), err)
		}
	}
}
