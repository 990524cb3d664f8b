package main

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/obdd"
	"repro/internal/plan"
	"repro/internal/signature"
	"repro/internal/storage"
	"repro/internal/table"
)

// This file is the traced run. After the timed passes, one more pass
// re-executes every lazy and lineage-tier row in stages — plan.Prepare →
// plan.Answer (with a storage replay of the heap files it read as its
// child) → conf.ComputeStats, or CollectLineage → one tier's compile or
// sample — timing each call from this side of the layer boundary and
// keeping the counts the call returns. Spec.Trace and every in-program span
// stay off.

// layerAcc accumulates the traced pass. vals holds finished metrics by
// name; the other fields are numerators and denominators of the rates.
type layerAcc struct {
	vals map[string]float64

	scanBytes, scanTuples float64
	rowsIn                float64
	sortscanRows          float64
	obddHits, obddMisses  float64
	dtreeHits, dtreeMiss  float64
}

func newLayerAcc() *layerAcc {
	a := &layerAcc{vals: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		a.vals[d.Name] = 0
	}
	return a
}

// tracedPass runs the staged pass and returns (Σ staged spans, Σ untraced
// median wall of the staged rows, traced pass wall).
func (w *runner) tracedPass(ctx context.Context, tr *tracer, a *layerAcc) (staged, stagedUntraced, passWall float64) {
	runtime.GC() // like every timed pass, start from a collected heap
	for _, r := range w.rows {
		if !r.staged() {
			// Eager and MystiQ: only what the call returns.
			var res *plan.Result
			_, d, err := tr.timed("plan", "plan.RunContext", r.id, 0, func() (map[string]any, error) {
				var err error
				res, _, err = execute(ctx, w.ds.cat, r, w.spec(r.Style))
				if err != nil {
					return nil, err
				}
				return map[string]any{"tuple_s": res.Stats.TupleTime.Seconds(), "prob_s": res.Stats.ProbTime.Seconds()}, nil
			})
			w.chk.checkDigest(r, res, err)
			passWall += d
			continue
		}
		w.chk.attempted++
		d, err := w.stageRow(ctx, tr, r, a)
		if err != nil {
			w.chk.fail("%s (staged): %v", r.id, err)
		}
		staged += d
		stagedUntraced += median(r.wall)
		passWall += d
	}
	return staged, stagedUntraced, passWall
}

// stageRow re-executes one row stage by stage and returns the sum of its
// stage spans (the replay and the sorter probe are children, not stages).
func (w *runner) stageRow(ctx context.Context, tr *tracer, r *row, a *layerAcc) (float64, error) {
	spec := w.spec(r.Style)
	cat := w.ds.cat
	q := r.q.Clone()

	_, prepare, err := tr.timed("plan", "plan.Prepare", r.id, 0, func() (map[string]any, error) {
		_, err := plan.Prepare(cat, q, r.sigma, spec)
		return nil, err
	})
	if err != nil {
		return 0, err
	}
	a.vals["plan.prepare_ms"] += prepare * 1e3

	var ans *table.Relation
	ansID, answer, err := tr.timed("engine", "plan.Answer", r.id, 0, func() (map[string]any, error) {
		var err error
		ans, err = plan.Answer(cat, q)
		if err != nil {
			return nil, err
		}
		return map[string]any{"rows": ans.Len()}, nil
	})
	if err != nil {
		return 0, err
	}
	a.vals["engine.answer_s"] += answer
	a.vals["engine.answer_rows"] += float64(ans.Len())
	for _, ref := range q.Rels {
		a.rowsIn += float64(cat.Rows(ref.Base))
	}
	replay, err := w.replayStorage(tr, r, ansID, a)
	if err != nil {
		return 0, err
	}
	a.vals["engine.self_s"] += answer - replay

	var out *table.Relation
	var confidence float64
	if r.Query == unsafeQuery {
		out, confidence, err = w.stageLineage(ctx, tr, r, ans, spec, a)
	} else {
		out, confidence, err = w.stageSortScan(tr, r, ans, spec, a)
	}
	if err != nil {
		return 0, err
	}
	if out.Len() != r.rows {
		return 0, fmt.Errorf("staged run returned %d rows, the untraced run %d", out.Len(), r.rows)
	}
	return prepare + answer + confidence, nil
}

// replayStorage re-reads each heap file the row's answer read, first with
// Scanner.NextRaw (page fetch only) and then with Scanner.Next (fetch +
// tuple decode), through the catalog's own pool. It returns the Next time,
// which engine.self_s subtracts. On mem02 there is nothing to replay.
func (w *runner) replayStorage(tr *tracer, r *row, parent int, a *layerAcc) (float64, error) {
	total := 0.0
	seen := make(map[string]bool)
	for _, ref := range r.q.Rels {
		db := w.ds.cat.Disk(ref.Base)
		if db == nil || seen[ref.Base] {
			continue
		}
		seen[ref.Base] = true
		pages := db.File.NumPages()
		h0, m0 := db.Pool.Stats()
		_, raw, err := tr.timed("storage", "Scanner.NextRaw "+ref.Base, r.id, parent, func() (map[string]any, error) {
			sc := db.File.NewScanner(db.Pool)
			defer sc.Close()
			n := 0
			for {
				_, ok, err := sc.NextRaw()
				if err != nil {
					return nil, err
				}
				if !ok {
					h1, m1 := db.Pool.Stats()
					return map[string]any{"pages": pages, "records": n, "pool_hits": h1 - h0, "pool_misses": m1 - m0}, nil
				}
				n++
			}
		})
		if err != nil {
			return 0, err
		}
		tuples := 0
		_, full, err := tr.timed("storage", "Scanner.Next "+ref.Base, r.id, parent, func() (map[string]any, error) {
			sc := db.File.NewScanner(db.Pool)
			defer sc.Close()
			for {
				_, ok, err := sc.Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					return map[string]any{"pages": pages, "tuples": tuples}, nil
				}
				tuples++
			}
		})
		if err != nil {
			return 0, err
		}
		a.vals["storage.scan_raw_s"] += raw
		a.vals["storage.scan_pages"] += float64(pages)
		a.vals["storage.decode_s"] += math.Max(full-raw, 0)
		a.scanBytes += float64(pages) * storage.PageSize
		a.scanTuples += float64(tuples)
		total += full
	}
	return total, nil
}

// stageSortScan runs the paper's operator over the materialized answer
// under the signature the lazy plan would use. For q1 it also drives the
// external sorter over the same rows, as the operator's child: the
// run-file writes and merge reads are storage's share of the operator.
func (w *runner) stageSortScan(tr *tracer, r *row, ans *table.Relation, spec plan.Spec, a *layerAcc) (*table.Relation, float64, error) {
	sig, err := signature.Best(r.q, r.sigma)
	if err != nil {
		return nil, 0, err
	}
	var out *table.Relation
	confID, d, err := tr.timed("conf", "conf.ComputeStats", r.id, 0, func() (map[string]any, error) {
		var cs *conf.Stats
		var err error
		out, cs, err = conf.ComputeStats(ans, sig, spec.Conf)
		if err != nil {
			return nil, err
		}
		a.vals["conf.sorts"] += float64(cs.Sorts)
		a.vals["conf.spilled_runs"] += float64(cs.SpilledRuns)
		a.sortscanRows += float64(cs.InputTuples)
		return map[string]any{"scans": cs.Scans, "sorts": cs.Sorts, "spilled_runs": cs.SpilledRuns,
			"rows_in": cs.InputTuples, "rows_out": cs.OutputTuples, "sig": sig.String()}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	a.vals["conf.sortscan_s"] += d
	if r.Query == "1" {
		if err := w.probeSorter(tr, r, confID, ans, a); err != nil {
			return nil, 0, err
		}
	}
	return out, d, nil
}

// probeSorter sorts the answer on all its columns with the default budget,
// spilling under the benchmark's temp dir, and drains the merge.
func (w *runner) probeSorter(tr *tracer, r *row, parent int, ans *table.Relation, a *layerAcc) error {
	cols := make([]int, ans.Schema.Len())
	for i := range cols {
		cols[i] = i
	}
	_, d, err := tr.timed("storage", "ExternalSorter", r.id, parent, func() (map[string]any, error) {
		s := storage.NewExternalSorter(func(x, y table.Tuple) int { return table.CompareOn(x, y, cols) }, 0, w.spill)
		for _, t := range ans.Rows {
			if err := s.Add(t); err != nil {
				s.Discard()
				return nil, err
			}
		}
		it, err := s.Finish()
		if err != nil {
			return nil, err
		}
		defer it.Close()
		for {
			_, ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				a.vals["storage.extsort_spills"] += float64(s.Spills())
				return map[string]any{"rows": len(ans.Rows), "spills": s.Spills()}, nil
			}
		}
	})
	a.vals["storage.extsort_s"] += d
	return err
}

// stageLineage collects U's lineage and hands it to the row's tier.
func (w *runner) stageLineage(ctx context.Context, tr *tracer, r *row, ans *table.Relation, spec plan.Spec, a *layerAcc) (*table.Relation, float64, error) {
	var l *conf.Lineage
	_, collect, err := tr.timed("conf", "conf.CollectLineage", r.id, 0, func() (map[string]any, error) {
		var err error
		l, err = conf.CollectLineage(ans)
		if err != nil {
			return nil, err
		}
		return map[string]any{"answers": len(l.Keys), "clauses": l.Clauses, "vars": l.Vars}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	a.vals["conf.lineage_collect_s"] += collect
	a.vals["conf.lineage_clauses"] += float64(l.Clauses)

	var out *table.Relation
	var tier float64
	switch r.Style {
	case plan.OBDD:
		_, tier, err = tr.timed("obdd", "conf.OBDDLineage", r.id, 0, func() (map[string]any, error) {
			var st *conf.OBDDStats
			var err error
			out, st, err = conf.OBDDLineage(ctx, nil, l, nil, obdd.Options{}, false)
			if err != nil {
				return nil, err
			}
			a.vals["obdd.nodes"] += float64(st.Nodes)
			a.obddHits += float64(st.MemoHits)
			a.obddMisses += float64(st.MemoMisses)
			return map[string]any{"nodes": st.Nodes, "memo_hits": st.MemoHits, "memo_misses": st.MemoMisses, "bounded": st.Bounded}, nil
		})
		a.vals["obdd.compile_s"] += tier
	case plan.DTree:
		_, tier, err = tr.timed("dtree", "conf.DTreeLineage", r.id, 0, func() (map[string]any, error) {
			var st *conf.DTreeStats
			var err error
			out, st, err = conf.DTreeLineage(ctx, nil, l, dtree.Options{}, false)
			if err != nil {
				return nil, err
			}
			a.vals["dtree.steps"] += float64(st.Nodes)
			a.dtreeHits += float64(st.MemoHits)
			a.dtreeMiss += float64(st.MemoMisses)
			return map[string]any{"steps": st.Nodes, "memo_hits": st.MemoHits, "memo_misses": st.MemoMisses, "bounded": st.Bounded}, nil
		})
		a.vals["dtree.compile_s"] += tier
	case plan.MonteCarlo:
		_, tier, err = tr.timed("prob", "conf.MonteCarloLineage", r.id, 0, func() (map[string]any, error) {
			mc := spec.MC
			mc.Workers = 1
			var st *conf.MCStats
			var err error
			out, st, err = conf.MonteCarloLineage(ctx, l, mc)
			if err != nil {
				return nil, err
			}
			a.vals["prob.mc_samples"] += float64(st.Samples)
			return map[string]any{"samples": st.Samples, "exact_answers": st.ExactAnswers}, nil
		})
		a.vals["prob.mc_s"] += tier
	default:
		err = fmt.Errorf("no lineage tier for style %v", r.Style)
	}
	if err != nil {
		return nil, 0, err
	}
	return out, collect + tier, nil
}
