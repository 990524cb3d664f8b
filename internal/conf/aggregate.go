package conf

import (
	"fmt"
	"slices"

	"repro/internal/engine"
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
		// The schedule's steps, then one more scan collapsing the final
		// star into its representative.
		steps, final := signature.Schedule(x)
		cur := src
		for _, gamma := range append(steps, final) {
			next, sp, err := aggregateStep(cur, gamma, opts)
			if err != nil {
				return nil, "", err
			}
			stats.addScan(sp)
			cur = next
		}
		return cur, signature.Rep(x), nil

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
		chunks, err := cur.Chunks(opts.ctx(), opts.Scope)
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
// where the top operator has nothing left to aggregate. The kept rows are
// whole chunks handed out by opts' Scope (table.Scope.NewChunk).
func FinalizeBareFrom(src *Source, rep string, opts Options) (*table.Relation, error) {
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
	// Dedup on the cells of the output columns as they stream past: rows
	// are hashed in place (ColBatch.HashInto), and a row whose hash was seen
	// is compared cell by cell (ColVec.CompareCell) with the kept rows of
	// that hash. The distinct rows are kept as column chunks in first-seen
	// order and numbered from 1 across them; heads maps a hash to its latest
	// kept row and next[k-1] chains kept row k to the previous one of its
	// hash, 0 ending both.
	schema := table.NewSchema(outCols...)
	idx := append(slices.Clone(dataCols), pi)
	var kept []*table.ColBatch
	heads := make(map[uint64]int32)
	var next []int32
	var hashes []uint64
	var rows int64
	err := src.push(opts.ctx(), sinkFunc(func(b *table.ColBatch) error {
		hashes = b.HashInto(idx, hashes)
		for i, h := range hashes {
			row := b.RowID(i)
			k := heads[h]
			for k > 0 && !sameCells(b, row, idx, kept[(k-1)/table.BatchSize], int((k-1)%table.BatchSize)) {
				k = next[k-1]
			}
			if k > 0 {
				continue // a duplicate of kept row k
			}
			if len(kept) == 0 || kept[len(kept)-1].N == table.BatchSize {
				kept = append(kept, opts.Scope.NewChunk(schema))
			}
			last := kept[len(kept)-1]
			for j, c := range idx {
				last.Cols[j].AppendCell(last.N, &b.Cols[c], row)
			}
			last.N++
			next = append(next, heads[h])
			heads[h] = int32(len(next))
		}
		rows += int64(len(hashes))
		return nil
	}))
	if err != nil {
		return nil, err
	}
	out := engine.NewRelationSink(schema)
	for _, c := range kept {
		out.AddBatch(c)
	}
	src.rows = rows
	return out.Rel, nil
}

// sameCells reports whether physical row `row` of b, over the columns idx,
// equals row k of the kept chunk c cell by cell under Compare semantics.
func sameCells(b *table.ColBatch, row int, idx []int, c *table.ColBatch, k int) bool {
	for j, col := range idx {
		if b.Cols[col].CompareCell(row, &c.Cols[j], k) != 0 {
			return false
		}
	}
	return true
}
