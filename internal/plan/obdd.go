package plan

import (
	"fmt"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/table"
)

// obddTier Shannon-expands each distinct answer's lineage DNF under one
// variable order (internal/obdd, the ordered setting of the compile kernel)
// — exact when the expansion fits the node budget, certified [lo, hi]
// bounds when it does not. The variable order is seeded by the query's
// hierarchical signature when it has one (the OBDD style on a tractable
// query); on the ladder there is none by construction.
var obddTier = tier{
	name:       conf.TierOBDD,
	effort:     "nodes",
	verb:       "compile lineage of",
	budgetErr:  conf.ErrOBDDBudget,
	overrun:    "node budget exceeded",
	ladderNote: "lineage compiled exactly",
	signature: func(b *built) string {
		if b.sig != nil {
			return fmt.Sprintf("(OBDD over lineage; order from signature %s)", b.sig)
		}
		return "(OBDD over lineage; interleaved-occurrence order)"
	},
	run: func(ex exec, spec *Spec, b *built, l *conf.Lineage, exactOnly bool) (*table.Relation, *conf.TierStats, error) {
		return conf.OBDDLineage(ex.ctx, ex.pool, l, b.sig, ex.arm(spec.obddOptions()), exactOnly)
	},
	annotate: annotateCompiled,
}

// obddOptions is Compile with the deprecated OBDD.NodeBudget override
// applied.
func (s *Spec) obddOptions() dtree.Options {
	o := s.Compile
	if s.OBDD.NodeBudget > 0 {
		o.NodeBudget = s.OBDD.NodeBudget
	}
	return o
}
