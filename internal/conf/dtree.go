package conf

import (
	"context"
	"errors"

	"repro/internal/dtree"
	"repro/internal/pool"
	"repro/internal/table"
)

// This file is the d-tree tier (see tier.go for the contract): each
// answer's DNF is decomposed structurally — independent-AND,
// independent-OR, Shannon cofactoring only as a last resort
// (internal/dtree) — so lineage whose OBDD explodes under every
// occurrence-derived order can still resolve exactly, and anything past the
// step budget gets certified deterministic [lo, hi] bounds.

// ErrDTreeBudget is returned by DTreeLineage in exact-only mode when some answer's
// decomposition exceeds the step budget; callers fall through to the next
// tier.
var ErrDTreeBudget = errors.New("conf: d-tree step budget exceeded")

// DTreeLineage decomposes every answer of a collected lineage on the
// per-answer driver. There is no variable order to choose — decomposition
// is a function of the clause set alone — so unlike the OBDD tier no
// signature is taken. Answers whose decomposition exceeds opts.NodeBudget
// get the certified bound midpoint as their confidence (see
// TierStats.LowerBound/UpperBound), unless exactOnly is set, in which case
// ErrDTreeBudget is returned.
func DTreeLineage(ctx context.Context, p *pool.Pool, l *Lineage, opts dtree.Options, exactOnly bool) (*table.Relation, *DTreeStats, error) {
	return compileLineage(ctx, p, l, opts, exactOnly, ErrDTreeBudget, func(b *dtree.Builder, i int) (dtree.Result, error) {
		return dtree.ProbWith(b, l.DNFs[i], l.Assign, opts), nil
	})
}
