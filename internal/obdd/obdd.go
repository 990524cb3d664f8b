// Package obdd is the OBDD tier of the engine's confidence ladder, between
// SPROUT's signature-driven sort+scan operator (exact, but only for queries
// with a hierarchical signature) and the (ε, δ) Monte Carlo estimators of
// internal/prob (always applicable, but only probabilistically accurate).
//
// The approach follows the companion line of work by the same authors
// (Olteanu and Huang, "Using OBDDs for Efficient Query Evaluation on
// Probabilistic Databases"): Shannon-expand the per-answer lineage formula
// under a fixed variable order, sharing equal residual subformulas, which is
// the recursion that builds its reduced OBDD. No diagram is built: the
// expansion runs in the ordered setting of the one compile kernel
// (internal/dtree), which memoizes each residual's probability where a
// diagram would hold its node. Whenever the expansion stays small
// (tractable lineage under a good order — e.g. read-once formulas, and in
// particular all hierarchical-query lineage under a signature-derived
// order) this yields exact confidences for queries the sort+scan operator
// must reject.
//
// When it does not stay small — compilation is #P-hard in general, so the
// node budget (Options.NodeBudget, counting expansion steps) must give out
// somewhere — the kernel's ordered setting switches to its anytime mode
// (dtree.ProbAnytime): a best-first partial Shannon expansion over the same
// residual clause sets maintains certified deterministic bounds [lo, hi] on
// the probability that tighten monotonically with every step, terminating
// early once the interval reaches a target width or the step budget is
// spent. What stays in this package is what only an ordered expansion
// needs: the variable order (OccurrenceOrder).
package obdd

import (
	"slices"

	"repro/internal/clauseset"
	"repro/internal/prob"
)

// Options, Result and DefaultNodeBudget are the compile kernel's contract
// (internal/clauseset), under the names the OBDD tier's callers use;
// NodeBudget counts expansion steps — of the exact expansion, and again of
// the anytime mode's.
type (
	Options = clauseset.Options
	Result  = clauseset.Result
)

// DefaultNodeBudget caps the expansion steps when Options.NodeBudget is
// zero.
const DefaultNodeBudget = clauseset.DefaultNodeBudget

// OccurrenceOrder derives a variable order from the lineage itself:
// variables are ranked by first occurrence scanning the clauses left to
// right — interleaving the per-source variable columns clause by clause
// (c₁o₁i₁ c₂o₂i₂ …) rather than grouping all of one table's variables
// together, which keeps co-occurring variables adjacent and compiles
// read-once lineage in linearly many steps.
//
// rank, when non-nil, orders variables within each clause (ascending rank,
// ties by Var id) before the scan — this is how a query-signature order
// threads through: rank variables by their source table's position in the
// signature so each clause is visited root-table first, mirroring the
// hierarchy the signature encodes. A nil rank visits each clause in its
// stored (Var id) order.
func OccurrenceOrder(d *prob.DNF, rank func(prob.Var) int) []prob.Var {
	var s OrderScratch
	return s.OccurrenceOrder(d, rank)
}

// OrderScratch holds the reusable working state of OccurrenceOrder, so a
// batch of per-answer order derivations (conf's OBDD fan-out) pays the map
// and slice allocations once per worker instead of once per answer.
type OrderScratch struct {
	seen  map[prob.Var]bool
	order []prob.Var
	buf   []prob.Var
}

// OccurrenceOrder is the package-level OccurrenceOrder over reused scratch
// storage. The returned order aliases the scratch and is only valid until
// the next call on the same scratch.
func (s *OrderScratch) OccurrenceOrder(d *prob.DNF, rank func(prob.Var) int) []prob.Var {
	if s.seen == nil {
		s.seen = make(map[prob.Var]bool)
	}
	clear(s.seen)
	seen := s.seen
	order := s.order[:0]
	buf := s.buf[:0]
	defer func() { s.order, s.buf = order[:0], buf[:0] }()
	for _, c := range d.Clauses {
		buf = buf[:0]
		for _, v := range c {
			if v.Valid() {
				buf = append(buf, v)
			}
		}
		if rank != nil {
			slices.SortStableFunc(buf, func(x, y prob.Var) int {
				rx, ry := rank(x), rank(y)
				if rx != ry {
					return rx - ry
				}
				return int(x - y)
			})
		}
		for _, v := range buf {
			if !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}
