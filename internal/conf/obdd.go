package conf

import (
	"context"
	"errors"
	"slices"

	"repro/internal/dtree"
	"repro/internal/obdd"
	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// This file is the OBDD tier (see tier.go for the contract): each answer's
// DNF is Shannon-expanded under one variable order (internal/obdd) in the
// ordered setting of the compile kernel and evaluated exactly — or, when
// the expansion exceeds the node budget, bounded by the kernel's best-first
// anytime mode with certified deterministic [lo, hi] intervals
// (internal/dtree).

// ErrOBDDBudget is returned by OBDDLineage in exact-only mode when some answer's
// expansion exceeds the node budget; callers fall through to the next tier.
var ErrOBDDBudget = errors.New("conf: OBDD node budget exceeded")

// OBDDLineage compiles every answer of a collected lineage on the per-answer
// driver, in the ordered setting of the compile kernel (each worker with its
// own pooled builder, so workers share nothing). The variable order is
// derived from sig when one is given (each clause visited in
// signature-table order, interleaved clause by clause); with a nil sig it
// falls back to the pure interleaved-occurrence order — the case for
// queries without a hierarchical signature, which is exactly where this
// tier earns its keep. Answers whose expansion exceeds
// opts.NodeBudget get the certified bound midpoint as their confidence (see
// TierStats.LowerBound/UpperBound), unless exactOnly is set, in which case
// ErrOBDDBudget is returned, with the refused run's record — after the
// exact expansion alone, since the anytime mode's bounds would be thrown
// away.
func OBDDLineage(ctx context.Context, p *pool.Pool, l *Lineage, sig signature.Sig, opts obdd.Options, exactOnly bool) (*table.Relation, *TierStats, error) {
	rank := sigRank(sig, l)
	type state struct {
		b     dtree.Builder
		order obdd.OrderScratch
	}
	compile := dtree.ProbAnytime
	if exactOnly {
		compile = dtree.ProbOrdered
	}
	return compileLineage(ctx, p, l, TierOBDD, opts, exactOnly, ErrOBDDBudget, func(s *state, i int) (obdd.Result, error) {
		return compile(&s.b, l.DNFs[i], l.Assign, s.order.OccurrenceOrder(l.DNFs[i], rank), opts)
	})
}

// sigRank turns a query signature into a within-clause variable rank: each
// variable is ranked by its source table's position in the signature's
// left-to-right table order, so OccurrenceOrder visits every clause
// root-table first — the order under which hierarchical lineage compiles
// in linearly many steps. A variable's source is its origin in l.Assign.
// A nil signature yields a nil rank (pure occurrence order).
func sigRank(sig signature.Sig, l *Lineage) func(prob.Var) int {
	if sig == nil {
		return nil
	}
	tables := signature.Tables(sig)
	pos := make([]int, len(l.Sources)) // per source: its table's first position
	for k, name := range l.Sources {
		if pos[k] = slices.Index(tables, name); pos[k] < 0 {
			pos[k] = len(tables)
		}
	}
	return func(v prob.Var) int {
		if src := l.Assign.From(v); src >= 0 {
			return pos[src]
		}
		return len(tables)
	}
}
