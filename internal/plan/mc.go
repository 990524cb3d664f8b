package plan

import (
	"repro/internal/conf"
	"repro/internal/obs"
	"repro/internal/table"
)

// mcTier estimates each distinct answer's confidence from its lineage DNF
// with the (ε, δ) samplers of internal/prob, fanning answers out to the
// worker pool. No signature is required, so this tier accepts every
// conjunctive query — including the #P-hard ones every exact style must
// reject — and never refuses: it is the last rung of the ladder.
var mcTier = tier{
	name:       "mc",
	effort:     "samples",
	verb:       "estimate conf of",
	ladderNote: "OBDD and d-tree budgets exceeded",
	run: func(ex exec, spec *Spec, _ *built, l *conf.Lineage, _ bool) (*table.Relation, outcome, error) {
		opts := spec.MC
		if ex.stop != nil {
			opts.Stop = ex.stop
		}
		out, ms, err := conf.MonteCarloLineage(ex.ctx, l, opts)
		if err != nil {
			return nil, outcome{}, err
		}
		return out, outcome{
			LineageStats: ms.LineageStats,
			effort:       ms.Samples,
			exact:        ms.ExactAnswers,
			stopped:      ms.StoppedAnswers,
			stats: Stats{Signature: "(approximate: Monte Carlo over lineage, no signature)",
				Approximate: true, Samples: ms.Samples, Epsilon: ms.MaxEpsilon},
			annotate: func(sp *obs.Span) {
				sp.Int("max_answer_samples", ms.MaxAnswerSamples)
				sp.Int("exact", ms.ExactAnswers).Int("capped", ms.CappedAnswers).Float("epsilon", ms.MaxEpsilon)
				if ms.CappedAnswers > 0 {
					sp.Str("early_stop", "sample cap")
				} else {
					sp.Str("early_stop", "target met")
				}
			},
		}, nil
	},
}
