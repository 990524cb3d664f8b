package conf

import (
	"context"
	"fmt"

	"repro/internal/signature"
	"repro/internal/table"
)

// AggregateFrom applies one probability-computation operator [s] eagerly
// to an intermediate relation (§V.B): all aggregation steps of s run as
// sort+scan passes and all propagation steps as projections, leaving a
// single representative V/P column pair for s's tables. The first pass
// consumes a streamed intermediate batch by batch, and what comes back is a
// source again — over the aggregated relation, or the input itself,
// untouched, when [s] is the identity — with the representative source
// name. What its sort+scan passes did — scans, sorts, spill volume — is
// accumulated into stats, like ComputeStats reports for the top operator.
//
// This is the building block of eager and hybrid plans: pushing [Item*]
// below a join, or [(Ord Item)*] above one, is this operator applied to the
// corresponding intermediate.
func AggregateFrom(src *Source, s signature.Sig, opts Options, stats *Stats) (*Source, string, error) {
	switch x := s.(type) {
	case signature.Table:
		// [R] is the identity (Fig. 5's JRK case).
		return src, string(x), nil

	case signature.Star:
		steps, final := planScans(x)
		// The final signature of a star is a star again (planScans only
		// rewrites inner components); collapse it in one more scan.
		fstar, ok := final.(signature.Star)
		if !ok {
			return nil, "", fmt.Errorf("conf: scheduler produced non-star %s from %s", final, s)
		}
		cur := src
		for _, st := range append(steps, scanStep{gamma: fstar}) {
			next, sp, err := aggregateStep(cur, st.gamma, opts)
			if err != nil {
				return nil, "", err
			}
			stats.addScan(sp)
			cur = FromRelation(next)
		}
		return cur, scanRootTable(fstar), nil

	case signature.Concat:
		// [αβ…]: collapse each starred component, then fold probabilities
		// right-to-left into the leftmost representative (pure
		// propagation, no extra scan).
		cur := src
		reps := make([]string, len(x))
		for i, comp := range x {
			var err error
			cur, reps[i], err = AggregateFrom(cur, comp, opts, stats)
			if err != nil {
				return nil, "", err
			}
		}
		rel, err := cur.Relation(opts.ctx())
		if err != nil {
			return nil, "", err
		}
		for i := len(reps) - 2; i >= 0; i-- {
			rel, err = propagatePair(rel, reps[i], reps[i+1])
			if err != nil {
				return nil, "", err
			}
		}
		return FromRelation(rel), reps[0], nil

	default:
		return nil, "", fmt.Errorf("conf: unknown signature shape %T", s)
	}
}

// Rep returns the representative source table that AggregateFrom([s])
// leaves behind — a pure function of the signature, mirroring its return
// value without touching data. The planner uses it to compute eager
// operator schedules at plan-build time; the virtual root of a pure
// product has no representative and yields "".
func Rep(s signature.Sig) (string, error) {
	switch x := s.(type) {
	case signature.Table:
		return string(x), nil
	case signature.Star:
		_, final := planScans(x)
		fstar, ok := final.(signature.Star)
		if !ok {
			return "", fmt.Errorf("conf: scheduler produced non-star %s from %s", final, s)
		}
		return scanRootTable(fstar), nil
	case signature.Concat:
		if len(x) == 0 {
			return "", fmt.Errorf("conf: empty concatenation")
		}
		return Rep(x[0])
	default:
		return "", fmt.Errorf("conf: unknown signature shape %T", s)
	}
}

// scanRootTable is newRuntimeTree's root selection without binding columns:
// stars delegate to their inner expression, a concatenation's root is
// picked by the shared concatRootIndex ("" for pure products, whose runtime
// root is virtual).
func scanRootTable(s signature.Sig) string {
	switch x := s.(type) {
	case signature.Table:
		return string(x)
	case signature.Star:
		return scanRootTable(x.Inner)
	case signature.Concat:
		if i := concatRootIndex(x); i >= 0 {
			return string(x[i].(signature.Table))
		}
		return ""
	default:
		return ""
	}
}

// propagatePair folds P(right) into P(left) and drops right's V/P columns —
// the JαβK projection of Fig. 5 executed on a materialized relation.
func propagatePair(rel *table.Relation, left, right string) (*table.Relation, error) {
	lp := rel.Schema.ProbIndex(left)
	rv := rel.Schema.VarIndex(right)
	rp := rel.Schema.ProbIndex(right)
	if lp < 0 || rv < 0 || rp < 0 {
		return nil, fmt.Errorf("conf: propagation %s·%s: columns missing in %v", left, right, rel.Schema.Names())
	}
	var keep []int
	for i := range rel.Schema.Cols {
		if i != rv && i != rp {
			keep = append(keep, i)
		}
	}
	out := table.NewRelation(rel.Schema.Project(keep))
	for _, row := range rel.Rows {
		nr := make(table.Tuple, 0, len(keep))
		for _, i := range keep {
			if i == lp {
				nr = append(nr, table.Float(row[lp].F*row[rp].F))
			} else {
				nr = append(nr, row[i])
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// FinalizeBareFrom extracts the answer from a source whose confidence is
// already fully computed (signature reduced to a bare table): it projects
// the data columns plus the surviving probability column as conf and
// deduplicates the rows as they stream past. Used by fully eager plans,
// where the top operator has nothing left to aggregate.
func FinalizeBareFrom(ctx context.Context, src *Source, rep string) (*table.Relation, error) {
	pi := src.Schema.ProbIndex(rep)
	if pi < 0 {
		return nil, fmt.Errorf("conf: representative %s has no P column in %v", rep, src.Schema.Names())
	}
	dataCols := src.Schema.DataIndexes()
	outCols := make([]table.Column, 0, len(dataCols)+1)
	for _, i := range dataCols {
		outCols = append(outCols, src.Schema.Cols[i])
	}
	outCols = append(outCols, table.DataCol(ConfCol, table.KindFloat))
	out := table.NewRelation(table.NewSchema(outCols...))
	// Dedup through a hash-keyed set over every output column: duplicate
	// rows are recognized without rendering a key string or retaining the
	// candidate tuple.
	all := make([]int, len(outCols))
	for i := range all {
		all[i] = i
	}
	seen := table.NewTupleSet(all, 0)
	nr := make(table.Tuple, len(outCols))
	sink := &rowSink{fn: func(row table.Tuple) error {
		nr = nr[:0]
		for _, i := range dataCols {
			nr = append(nr, row[i])
		}
		nr = append(nr, table.Float(row[pi].F))
		if c, added := seen.Add(nr, true); added {
			out.Rows = append(out.Rows, c)
		}
		return nil
	}}
	if err := src.push(ctx, sink); err != nil {
		return nil, err
	}
	src.rows = sink.n
	return out, nil
}
