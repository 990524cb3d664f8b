package conf

import (
	"context"
	"fmt"
	"math/bits"
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
	// Source records, for every variable, the source table whose V column
	// carried it — the hook for signature-derived OBDD variable orders
	// (obdd.go).
	Source VarSources
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

// VarSources records which source table's V column carried each variable of
// a lineage: one entry per variable, made where collection first met it.
type VarSources struct {
	names []string // the input's sources, in schema order
	vars  []varSource
}

type varSource struct {
	v   prob.Var
	src int32 // index into names
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
//
// Grouping is by hash, not by sort: one pass gives each row a dense group id
// and appends its clause to a lineage-wide arena unless its answer already
// has it; only the distinct answers are then sorted. The result does not
// depend on the input's row order beyond which of several Compare-equal
// keys represents an answer (the first to arrive): Keys are sorted, every
// DNF's clauses are sorted below, and the counters count sets.
func CollectLineage(rel *table.Relation) (*Lineage, error) {
	return collectLineage(rel, ^uint64(0))
}

// lineageGroup is one distinct answer during collection.
type lineageGroup struct {
	first   int32 // the input row whose data columns are the answer's key
	next    int32 // next group under the same key hash, -1 at the end
	clauses int32 // distinct clauses collected so far
}

// lineageClause is one distinct clause during collection: n literals at
// arena offset off, in the DNF of group.
type lineageClause struct {
	group, off, n int32
	next          int32 // next clause under the same (group, clause) hash, -1 at the end
}

// collectLineage is CollectLineage with every hash ANDed with hashMask —
// the seam through which tests force hash collisions between distinct
// answers and between distinct clauses.
func collectLineage(rel *table.Relation, hashMask uint64) (*Lineage, error) {
	dataCols := rel.Schema.DataIndexes()
	var varCols, probCols []int
	l := &Lineage{Assign: prob.NewAssignment(), Input: int64(rel.Len())}
	for _, src := range rel.Schema.Sources() {
		vi, pi := rel.Schema.VarIndex(src), rel.Schema.ProbIndex(src)
		if pi < 0 {
			return nil, fmt.Errorf("conf: input has V(%s) but no P(%s): %v", src, src, rel.Schema.Names())
		}
		varCols = append(varCols, vi)
		probCols = append(probCols, pi)
		l.Source.names = append(l.Source.names, src)
	}
	l.Schema = rel.Schema.Project(dataCols)

	// Both tables are arrays of chain heads (entry index + 1, 0 = empty)
	// with more buckets than the input has rows; the equality-checked
	// chains run through the entries themselves, so nothing allocates per
	// entry. Answers go by the hash of their data columns, clauses by the
	// clause hash folded with the group id — one table for the whole
	// lineage, nothing to clear between answers. The Monte Carlo path needs
	// each answer's whole formula in memory anyway, so in-memory tables —
	// unlike the exact operator's external sort — are the right tool.
	buckets := 1 << bits.Len(uint(rel.Len()))
	bucket := func(h uint64) uint64 { return (h ^ h>>32) & hashMask & uint64(buckets-1) }
	groupAt, clauseAt := make([]int32, buckets), make([]int32, buckets)
	var groups []lineageGroup
	var clauses []lineageClause
	// Every clause's literals live in one arena; a duplicate row builds its
	// candidate at the tail and is truncated away again.
	arena := make([]prob.Var, 0, rel.Len()*len(varCols))
	lits := func(c lineageClause) prob.Clause { return arena[c.off : c.off+c.n : c.off+c.n] }
	for ri, row := range rel.Rows {
		start := len(arena)
		for k, vi := range varCols {
			v := row[vi].AsVar()
			if !v.Valid() {
				continue
			}
			p := row[probCols[k]].F
			if prev, ok := l.Assign.Lookup(v); !ok {
				if err := l.Assign.Set(v, p); err != nil {
					return nil, fmt.Errorf("conf: row %d: %w", ri, err)
				}
				l.Source.vars = append(l.Source.vars, varSource{v, int32(k)})
			} else if prev != p {
				return nil, fmt.Errorf("conf: variable %v carries two marginals, %g and %g (corrupt input)", v, prev, p)
			}
			arena = append(arena, v)
		}
		// Normalize the candidate in place (sorted, deduplicated), the same
		// canonical form prob.NewClause produces.
		slices.Sort(arena[start:])
		arena = arena[:start+len(slices.Compact(arena[start:]))]
		vs := prob.Clause(arena[start:])

		head := &groupAt[bucket(table.HashOn(row, dataCols))]
		g := *head - 1
		for g >= 0 && !table.EqualOn(rel.Rows[groups[g].first], row, dataCols) {
			g = groups[g].next
		}
		if g < 0 {
			g = int32(len(groups))
			groups = append(groups, lineageGroup{first: int32(ri), next: *head - 1})
			*head = g + 1
		}

		head = &clauseAt[bucket(prob.FNVUint32(vs.Hash(), uint32(g)))]
		c := *head - 1
		for c >= 0 && (clauses[c].group != g || !vs.Equal(lits(clauses[c]))) {
			c = clauses[c].next
		}
		if c >= 0 {
			l.DupRows++
			arena = arena[:start]
			continue
		}
		clauses = append(clauses, lineageClause{group: g, off: int32(start), n: int32(len(vs)), next: *head - 1})
		*head = int32(len(clauses))
		groups[g].clauses++
	}
	l.Vars, l.Clauses = int64(l.Assign.Len()), int64(len(clauses))
	if len(groups) == 0 {
		return l, nil
	}

	// Emit in key order: sort the distinct answers, lay the clause headers
	// of all DNFs out in one slice, group by group, and drop each clause
	// into its group's range.
	order := make([]int32, len(groups))
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return table.CompareOn(rel.Rows[groups[a].first], rel.Rows[groups[b].first], dataCols)
	})
	l.Keys = make([]table.Tuple, len(groups))
	l.DNFs = make([]*prob.DNF, len(groups))
	dnfs := make([]prob.DNF, len(groups))
	headers := make([]prob.Clause, len(clauses))
	at := make([]int32, len(groups)) // per group: where its next clause header goes
	off := int32(0)
	for i, g := range order {
		l.Keys[i] = rel.Rows[groups[g].first].Project(dataCols)
		at[g] = off
		off += groups[g].clauses
		dnfs[i].Clauses = headers[at[g]:off:off]
		l.DNFs[i] = &dnfs[i]
	}
	for _, c := range clauses {
		headers[at[c.group]] = lits(c)
		at[c.group]++
	}
	for _, d := range l.DNFs {
		// Canonicalize the clause order (clauses are sorted var lists, so
		// lexicographic order is well defined). This makes every downstream
		// consumer — the Karp–Luby sampler's clause-index stream, the OBDD
		// occurrence order — a function of the answer's lineage *set* rather
		// than of the join's row order, which is what lets the engine promise
		// bit-identical confidences across worker counts and join strategies.
		slices.SortFunc(d.Clauses, slices.Compare[prob.Clause])
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
