package conf

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/prob"
	"repro/internal/table"
)

// This file is the Monte Carlo counterpart of the exact confidence operator
// (operator.go). The exact operator needs a hierarchical signature and fails
// on queries without one (#P-hard in general); this operator needs nothing:
// it reads the same materialized answer relation (data columns plus V/P
// column pairs), groups it into one lineage DNF per distinct answer, and
// estimates each answer's confidence with the (ε, δ) samplers of
// internal/prob. Because it works on raw lineage it is also sound for
// answers whose duplicate variables are correlated (e.g. self-joins through
// aliases that do not select disjoint tuples), where the exact operator's
// independence assumptions would not hold.

// Lineage is the per-answer DNF decomposition of a materialized answer
// relation: one clause per contributing input-tuple combination (paper §I),
// one formula per distinct answer, plus the marginal probabilities of every
// variable mentioned.
type Lineage struct {
	// Schema covers the data columns of the input, in input order.
	Schema *table.Schema
	// Keys holds the distinct answers projected onto the data columns,
	// sorted ascending (the operator's deterministic output order).
	Keys []table.Tuple
	// DNFs aligns with Keys: DNFs[i] is the lineage of Keys[i].
	DNFs []*prob.DNF
	// Assign maps every variable of the input to its marginal probability.
	Assign *prob.Assignment
	// Source maps every variable to the name of the source table whose V
	// column carried it — the hook for signature-derived OBDD variable
	// orders (obdd.go).
	Source map[prob.Var]string
	// Clauses counts lineage clauses across all answers.
	Clauses int64
	// Vars counts the distinct variables mentioned across all answers.
	Vars int64
	// DupRows counts input rows whose clause duplicated one already in its
	// answer's DNF (the dedup hits of the clause-hash chains).
	DupRows int64
	// Input counts the rows that entered lineage collection.
	Input int64
}

// LineageStats is the head every lineage tier's stats share: what
// collection saw, whatever then computes the confidences.
type LineageStats struct {
	InputTuples  int64 // rows entering lineage collection
	OutputTuples int64 // distinct answers
	Clauses      int64 // lineage clauses across all answers
	Vars         int64 // distinct lineage variables across all answers
	DupRows      int64 // input rows deduplicated away during collection
}

// Stats summarizes the collected lineage.
func (l *Lineage) Stats() LineageStats {
	return LineageStats{InputTuples: l.Input, OutputTuples: int64(len(l.Keys)), Clauses: l.Clauses, Vars: l.Vars, DupRows: l.DupRows}
}

// output returns the empty result relation of a lineage tier: the data
// columns plus the conf column. Tiers append row(i, p) in Keys order, which
// leaves it sorted by the data columns.
func (l *Lineage) output() *table.Relation {
	cols := append(append([]table.Column(nil), l.Schema.Cols...), table.DataCol(ConfCol, table.KindFloat))
	return table.NewRelation(table.NewSchema(cols...))
}

// row is answer i's output row under confidence p.
func (l *Lineage) row(i int, p float64) table.Tuple {
	key := l.Keys[i]
	row := make(table.Tuple, 0, len(key)+1)
	return append(append(row, key...), table.Float(p))
}

// CollectLineage groups an answer relation by its data columns and builds
// one lineage DNF per distinct answer: each input row contributes the clause
// conjoining the row's variables (one per source table; deterministic
// tuples, V = ⊤, drop out). A Boolean answer (no data columns) yields at
// most one group.
func CollectLineage(rel *table.Relation) (*Lineage, error) {
	dataCols := rel.Schema.DataIndexes()
	var varCols, probCols []int
	var srcNames []string
	for _, src := range rel.Schema.Sources() {
		vi, pi := rel.Schema.VarIndex(src), rel.Schema.ProbIndex(src)
		if pi < 0 {
			return nil, fmt.Errorf("conf: input has V(%s) but no P(%s): %v", src, src, rel.Schema.Names())
		}
		varCols = append(varCols, vi)
		probCols = append(probCols, pi)
		srcNames = append(srcNames, src)
	}

	l := &Lineage{
		Schema: rel.Schema.Project(dataCols),
		Assign: prob.NewAssignment(),
		Source: make(map[prob.Var]string),
		Input:  int64(rel.Len()),
	}

	// Sort row indexes by the data columns so groups are contiguous and the
	// output order is deterministic. The Monte Carlo path materializes
	// everything in memory anyway (the estimator needs random access to each
	// answer's whole formula), so an in-memory sort — unlike the exact
	// operator's external sort — is the right tool.
	order := make([]int, rel.Len())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return table.CompareOn(rel.Rows[a], rel.Rows[b], dataCols)
	})

	vs := make(prob.Clause, 0, len(varCols))
	marginal := make(map[prob.Var]float64)
	// Clause dedup per group via an FNV hash with equality-checked collision
	// chains: DNF.Add's linear scan would make collection quadratic in the
	// group size, and a rendered string key would allocate on every row —
	// large answer groups (thousands of duplicates per answer) can afford
	// neither. Duplicate rows build their candidate clause in a reused
	// scratch buffer and allocate nothing.
	seen := make(map[uint64][]prob.Clause)
	var cur *prob.DNF
	for n, ri := range order {
		row := rel.Rows[ri]
		vs = vs[:0]
		for k, vi := range varCols {
			v := row[vi].AsVar()
			if !v.Valid() {
				continue
			}
			p := row[probCols[k]].F
			if prev, ok := marginal[v]; ok {
				if prev != p {
					return nil, fmt.Errorf("conf: variable %v carries two marginals, %g and %g (corrupt input)", v, prev, p)
				}
			} else {
				marginal[v] = p
				if err := l.Assign.Set(v, p); err != nil {
					return nil, fmt.Errorf("conf: row %d: %w", ri, err)
				}
				l.Source[v] = srcNames[k]
			}
			vs = append(vs, v)
		}
		if n == 0 || !table.EqualOn(rel.Rows[order[n-1]], row, dataCols) {
			cur = prob.NewDNF()
			l.Keys = append(l.Keys, row.Project(dataCols))
			l.DNFs = append(l.DNFs, cur)
			clear(seen)
		}
		// Normalize the scratch clause in place (sorted, deduplicated), the
		// same canonical form prob.NewClause produces.
		slices.Sort(vs)
		vs = slices.Compact(vs)
		h := vs.Hash()
		chain := seen[h]
		dup := false
		for _, e := range chain {
			if e.Equal(vs) {
				dup = true
				l.DupRows++
				break
			}
		}
		if !dup {
			clause := slices.Clone(vs)
			seen[h] = append(chain, clause)
			cur.Clauses = append(cur.Clauses, clause)
		}
	}
	l.Vars = int64(len(marginal))
	for _, d := range l.DNFs {
		// Canonicalize the clause order (clauses are sorted var lists, so
		// lexicographic order is well defined). This makes every downstream
		// consumer — the Karp–Luby sampler's clause-index stream, the OBDD
		// occurrence order — a function of the answer's lineage *set* rather
		// than of the join's row order, which is what lets the engine promise
		// bit-identical confidences across worker counts and join strategies.
		slices.SortFunc(d.Clauses, slices.Compare[prob.Clause])
		l.Clauses += int64(len(d.Clauses))
	}
	return l, nil
}

// MCStats reports what the Monte Carlo operator did.
type MCStats struct {
	LineageStats
	Samples      int64 // Monte Carlo samples drawn across all answers
	ExactAnswers int64 // answers resolved by an exact shortcut (no sampling)
	// StoppedAnswers counts answers whose sampling a deadline-watermark
	// Stop cut short: their estimates carry the wider ε the drawn samples
	// actually guarantee.
	StoppedAnswers int64
	// CappedAnswers counts answers whose run MaxSamples cut short of the
	// requested (ε, δ) sample count — their early-stop reason is "sample
	// cap", everyone else's is "target met" (or an exact shortcut).
	CappedAnswers int64
	// MaxAnswerSamples is the largest per-answer sample count of the run.
	MaxAnswerSamples int64
	// MaxEpsilon is the weakest per-answer additive guarantee of the run:
	// equal to the requested ε unless MaxSamples capped some estimate.
	MaxEpsilon float64
}

// MonteCarlo estimates per-answer confidences of a materialized answer
// relation: CollectLineage followed by the partition-parallel estimator
// driver. The output has the input's data columns plus the conf column,
// sorted by the data columns; with a fixed opts.Seed it is a deterministic
// function of the input. ctx cancels the samplers mid-run; a nil ctx means
// no cancellation.
func MonteCarlo(ctx context.Context, rel *table.Relation, opts prob.MCOptions) (*table.Relation, *MCStats, error) {
	l, err := CollectLineage(rel)
	if err != nil {
		return nil, nil, err
	}
	return MonteCarloLineage(ctx, l, opts)
}

// MonteCarloLineage is MonteCarlo over an already collected lineage — the
// Monte Carlo tier of the contract in tier.go. The samplers fan out inside
// prob.EstimateAllCtx (per-answer seeded streams on opts.Pool), not on the
// compilation tiers' per-answer driver; the stats head and the output rows
// are the shared ones.
func MonteCarloLineage(ctx context.Context, l *Lineage, opts prob.MCOptions) (*table.Relation, *MCStats, error) {
	ests, err := prob.EstimateAllCtx(ctx, l.DNFs, l.Assign, opts)
	if err != nil {
		return nil, nil, err
	}
	out := l.output()
	stats := &MCStats{LineageStats: l.Stats()}
	for i := range l.Keys {
		out.Rows = append(out.Rows, l.row(i, ests[i].P))
		stats.Samples += int64(ests[i].Samples)
		if n := int64(ests[i].Samples); n > stats.MaxAnswerSamples {
			stats.MaxAnswerSamples = n
		}
		if ests[i].Samples == 0 {
			stats.ExactAnswers++
		}
		if ests[i].Capped {
			stats.CappedAnswers++
		}
		if ests[i].Stopped {
			stats.StoppedAnswers++
		}
		if ests[i].Epsilon > stats.MaxEpsilon {
			stats.MaxEpsilon = ests[i].Epsilon
		}
	}
	return out, stats, nil
}
