package plan

import (
	"repro/internal/conf"
	"repro/internal/table"
)

// dtreeTier decomposes each distinct answer's lineage DNF into a d-tree
// (internal/dtree, the decomposing setting of the compile kernel) —
// independent-AND / independent-OR decompositions, Shannon cofactoring only
// as a last resort — exact within the step budget, certified [lo, hi]
// bounds beyond it. Decomposition is order-free, so no
// signature is involved.
var dtreeTier = tier{
	name:       conf.TierDTree,
	effort:     "steps",
	verb:       "decompose lineage of",
	budgetErr:  conf.ErrDTreeBudget,
	overrun:    "step budget exceeded",
	ladderNote: "OBDD budget exceeded, lineage decomposed exactly",
	signature:  func(*built) string { return "(d-tree over lineage; order-free decomposition)" },
	run: func(ex exec, spec *Spec, _ *built, l *conf.Lineage, exactOnly bool) (*table.Relation, *conf.TierStats, error) {
		return conf.DTreeLineage(ex.ctx, ex.pool, l, ex.arm(spec.Compile), exactOnly)
	},
	annotate: annotateCompiled,
}
