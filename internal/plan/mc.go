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
	name:       conf.TierMC,
	effort:     "samples",
	verb:       "estimate conf of",
	ladderNote: "OBDD and d-tree budgets exceeded",
	signature:  func(*built) string { return "(approximate: Monte Carlo over lineage, no signature)" },
	run: func(ex exec, spec *Spec, _ *built, l *conf.Lineage, _ bool) (*table.Relation, *conf.TierStats, error) {
		opts := spec.MC
		if ex.stop != nil {
			opts.Stop = ex.stop
		}
		return conf.MonteCarloLineage(ex.ctx, l, opts)
	},
	annotate: annotateMC,
}

// annotateMC writes the Monte Carlo tier's attributes. early_stop names why
// sampling ended: a deadline-watermark Stop cut some estimate short, the
// sample cap did, or every answer met its (ε, δ) target.
func annotateMC(sp *obs.Span, s *conf.TierStats) {
	sp.Int("max_answer_samples", s.MaxAnswerSamples)
	sp.Int("exact", s.ExactAnswers).Int("capped", s.Capped).Float("epsilon", s.MaxEpsilon)
	switch {
	case s.Stopped > 0:
		sp.Str("early_stop", "deadline")
	case s.Capped > 0:
		sp.Str("early_stop", "sample cap")
	default:
		sp.Str("early_stop", "target met")
	}
}
