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
// source again — over the last pass's column chunks, or the input itself,
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
			cur = next
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
		chunks, err := cur.Chunks(opts.ctx())
		if err != nil {
			return nil, "", err
		}
		schema := cur.Schema
		for i := len(reps) - 2; i >= 0; i-- {
			schema, chunks, err = propagatePair(schema, chunks, reps[i], reps[i+1])
			if err != nil {
				return nil, "", err
			}
		}
		return chunkSource(schema, chunks), reps[0], nil

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
// the JαβK projection of Fig. 5 executed on column chunks: the P columns
// are multiplied column-wise into a fresh vector and every other kept
// column is shared with the input chunks, which are left as they are.
func propagatePair(schema *table.Schema, chunks []*table.ColBatch, left, right string) (*table.Schema, []*table.ColBatch, error) {
	lp := schema.ProbIndex(left)
	rv := schema.VarIndex(right)
	rp := schema.ProbIndex(right)
	if lp < 0 || rv < 0 || rp < 0 {
		return nil, nil, fmt.Errorf("conf: propagation %s·%s: columns missing in %v", left, right, schema.Names())
	}
	var keep []int
	for i := range schema.Cols {
		if i != rv && i != rp {
			keep = append(keep, i)
		}
	}
	outSchema := schema.Project(keep)
	out := make([]*table.ColBatch, len(chunks))
	for k, c := range chunks {
		lf, rf := c.Cols[lp].Floats[:c.N], c.Cols[rp].Floats[:c.N]
		p := make([]float64, c.N)
		for i := range p {
			p[i] = lf[i] * rf[i]
		}
		cols := make([]table.ColVec, len(keep))
		for j, i := range keep {
			if i == lp {
				cols[j] = table.ColVec{Kind: table.KindFloat, Floats: p}
			} else {
				cols[j] = c.Cols[i]
			}
		}
		out[k] = &table.ColBatch{Schema: outSchema, N: c.N, Cols: cols}
	}
	return outSchema, out, nil
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
	var rows int64
	err := src.push(ctx, sinkFunc(func(b *table.ColBatch) error {
		n := b.Rows()
		for i := 0; i < n; i++ {
			row := b.RowID(i)
			for j, c := range dataCols {
				nr[j] = b.Cols[c].Value(row)
			}
			nr[len(dataCols)] = table.Float(b.Cols[pi].Floats[row])
			if c, added := seen.Add(nr, true); added {
				out.Rows = append(out.Rows, c)
			}
		}
		rows += int64(n)
		return nil
	}))
	if err != nil {
		return nil, err
	}
	src.rows = rows
	return out, nil
}
