package main

import (
	"context"
	"math"

	"repro/internal/plan"
)

// The traced run's extra runs. Each executes whole queries under a spec that
// differs from the timed passes' in one field, checks the answer against the
// row's reference, and feeds one ungated layer metric.

// probe runs r under the timed spec modified by mod and returns the result
// and its wall seconds. A nil result means the run failed (and was counted).
func (w *runner) probe(ctx context.Context, r *row, mod func(*plan.Spec)) (*plan.Result, float64) {
	spec := w.spec(r.Style)
	mod(&spec)
	res, wall, err := execute(ctx, w.ds.cat, r, spec)
	want := agreementFor(r.Style)
	if err == nil {
		// Auto may dispatch any style, and a ladder may end in Monte Carlo.
		if chosen, perr := plan.ParseStyle(res.Stats.ChosenStyle); perr == nil {
			want = agreementFor(chosen)
		}
		if res.Stats.Approximate {
			want = agreementFor(plan.MonteCarlo)
		}
	}
	if w.chk.checkAgainst(r, res, err, want) == nil {
		return nil, wall
	}
	return res, wall
}

// distinctStaged returns the first staged row of each query.
func (w *runner) distinctStaged() []*row {
	var out []*row
	seen := make(map[string]bool)
	for _, r := range w.rows {
		if r.staged() && !seen[r.Query] {
			seen[r.Query] = true
			out = append(out, r)
		}
	}
	return out
}

// probeRowExec compares Stats.TupleTime of the columnar tier (the timed
// passes' medians) with the row engine's (one extra run per query).
func (w *runner) probeRowExec(ctx context.Context, a *layerAcc) {
	for _, r := range w.distinctStaged() {
		a.vals["engine.tuple_s_col"] += median(r.tuple)
		if res, _ := w.probe(ctx, r, func(s *plan.Spec) { s.RowExec = true }); res != nil {
			a.vals["engine.tuple_s_row"] += res.Stats.TupleTime.Seconds()
		}
	}
}

// probeWorkers2 runs U-obdd or 18-eager, whichever the workload has, twice
// at Workers 2 against its Workers 1 median.
func (w *runner) probeWorkers2(ctx context.Context, a *layerAcc) {
	for _, r := range w.rows {
		if (r.Query == unsafeQuery && r.Style == plan.OBDD) || (r.Query == "18" && r.Style == plan.Eager) {
			var walls []float64
			for i := 0; i < 2; i++ {
				if res, wall := w.probe(ctx, r, func(s *plan.Spec) { s.Workers = 2 }); res != nil {
					walls = append(walls, wall)
				}
			}
			a.vals["pool.w2_speedup_x"] = ratio(median(r.wall), median(walls))
			return
		}
	}
}

// probeGoverned re-runs the pass twice under the memory governor.
func (w *runner) probeGoverned(ctx context.Context, a *layerAcc, passP50 float64) {
	var walls []float64
	for i := 0; i < 2; i++ {
		pass := 0.0
		for _, r := range w.rows {
			res, wall := w.probe(ctx, r, func(s *plan.Spec) { s.MemBudget = governedBudget })
			pass += wall
			if res != nil && res.Stats.Degraded {
				a.vals["fault.governed_degraded_runs"]++
			}
		}
		walls = append(walls, pass)
	}
	a.vals["fault.governed_slowdown_x"] = ratio(median(walls), passP50)
}

// probeAuto runs every query under the Auto style (median of three) against
// the best fixed style's median, and reports the worst ratio.
func (w *runner) probeAuto(ctx context.Context, a *layerAcc) {
	best := make(map[string]float64)
	for _, r := range w.rows {
		if m := median(r.wall); best[r.Query] == 0 || m < best[r.Query] {
			best[r.Query] = m
		}
	}
	for _, r := range w.distinctStaged() {
		var walls []float64
		for i := 0; i < 3; i++ {
			if res, wall := w.probe(ctx, r, func(s *plan.Spec) { s.Style = plan.Auto }); res != nil {
				walls = append(walls, wall)
			}
		}
		a.vals["plan.auto_over_best_x"] = math.Max(a.vals["plan.auto_over_best_x"], ratio(median(walls), best[r.Query]))
	}
}

// probeLadder runs U under lazy with an OBDD budget that overflows, so the
// exact styles' fallback ladder goes past its first rung.
func (w *runner) probeLadder(ctx context.Context, a *layerAcc) {
	for _, r := range w.distinctStaged() {
		if r.Query != unsafeQuery {
			continue
		}
		_, wall := w.probe(ctx, r, func(s *plan.Spec) {
			s.Style = plan.Lazy
			s.OBDD.NodeBudget = tightOBDDBudget
		})
		a.vals["plan.ladder_fallthrough_s"] = wall
	}
}
