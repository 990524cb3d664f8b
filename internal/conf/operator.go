package conf

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/freelist"
	"repro/internal/pool"
	"repro/internal/signature"
	"repro/internal/storage"
	"repro/internal/table"
)

// Options tunes the operator's secondary-storage behaviour and its parallel
// execution.
type Options struct {
	SortBudget int    // tuples held in memory per sort; 0 = default
	TmpDir     string // spill directory; "" = os.TempDir()
	// Pool drives the partition-parallel aggregation scans: the input is
	// hash-partitioned by group key, each partition sorted and scanned by a
	// worker, and the per-partition outputs merged back into global sort
	// order. nil or a one-worker pool keeps the scans serial. The output is
	// bit-identical either way.
	Pool *pool.Pool
	// Ctx cancels long scans between tuples; nil means no cancellation.
	Ctx context.Context
	// Mem, when set, governs the operator's sort buffers: under memory
	// pressure the external sorts spill earlier instead of growing. nil
	// means ungoverned.
	Mem *fault.Governor
	// Scope, when set, owns the column chunks the passes output: they are
	// drawn off the engine's free list and go back when the scope's owner
	// — the run that materializes their answer — releases it. nil
	// allocates them.
	Scope *table.Scope
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Stats reports what the operator did — the quantities behind the paper's
// Fig. 13 (number of scans with/without FDs, sorting work).
type Stats struct {
	Scans        int      // aggregation scans + the final scan
	Sorts        int      // sort passes (one per scan)
	SpilledRuns  int      // external-sort runs written to disk
	SpillBytes   int64    // bytes written to those run files
	InputTuples  int64    // tuples entering the first scan
	OutputTuples int64    // distinct answer tuples
	Steps        []string // signatures of the scheduled aggregation steps
}

// ConfCol is the name of the confidence column in the operator's output.
const ConfCol = "conf"

// ComputeStats runs the confidence operator: given a materialized answer
// relation (data columns plus V/P columns for every source table) and a
// signature over those sources, it returns the distinct data tuples with
// their exact confidences, and what the operator did. Semantically it
// equals the aggregation sequence of Fig. 5; operationally it schedules the
// minimal number of sort+scan passes (Prop. V.10).
func ComputeStats(rel *table.Relation, sig signature.Sig, opts Options) (*table.Relation, *Stats, error) {
	return ComputeFrom(FromRelation(rel), sig, opts)
}

// ComputeFrom is ComputeStats over a Source: a streamed answer goes batch
// by batch into the first pass's run generation and is never materialized;
// each pass hands its column chunks to the next one's sort, and only the
// answer is built as a relation.
func ComputeFrom(src *Source, sig signature.Sig, opts Options) (*table.Relation, *Stats, error) {
	if err := validateSources(src.Schema, sig); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	steps, finalSig := signature.Schedule(sig)
	cur := src
	for _, gamma := range steps {
		stats.Steps = append(stats.Steps, "["+gamma.String()+"]")
		next, sp, err := aggregateStep(cur, gamma, opts)
		if err != nil {
			return nil, nil, err
		}
		stats.addScan(sp)
		cur = next
	}
	out, sp, err := finalScan(cur, finalSig, opts)
	if err != nil {
		return nil, nil, err
	}
	stats.addScan(sp)
	stats.InputTuples = src.Rows()
	stats.OutputTuples = out.Rows()
	rel, err := out.Relation(opts.ctx(), opts.Scope)
	if err != nil {
		return nil, nil, err
	}
	return rel, stats, nil
}

// spillStats is what one sort spilled: run files and their bytes.
type spillStats struct {
	runs  int
	bytes int64
}

func (a *spillStats) add(b spillStats) {
	a.runs += b.runs
	a.bytes += b.bytes
}

// addScan records one sort+scan pass.
func (s *Stats) addScan(sp spillStats) {
	s.Scans++
	s.Sorts++
	s.SpilledRuns += sp.runs
	s.SpillBytes += sp.bytes
}

func validateSources(s *table.Schema, sig signature.Sig) error {
	have := make(map[string]bool)
	for _, src := range s.Sources() {
		have[src] = true
	}
	for _, t := range signature.Tables(sig) {
		if !have[t] {
			return fmt.Errorf("conf: signature table %s has no V/P columns in input schema %v", t, s.Names())
		}
		delete(have, t)
	}
	for src := range have {
		return fmt.Errorf("conf: input carries variables of table %s absent from signature %s", src, sig)
	}
	return nil
}

// mergeByKey merges per-partition output chunks back into global key
// order: each part is sorted on its leading keys columns and no key value
// spans two partitions (they were hash-partitioned on it), so a k-way
// min-merge (ColVec.CompareCell) reproduces the serial scan's output
// exactly.
func mergeByKey(parts [][]*table.ColBatch, keys int, ls *freelist.Lease, sc *table.Scope) []*table.ColBatch {
	type cursor struct {
		chunks []*table.ColBatch
		row    int // in chunks[0]
	}
	curs := make([]cursor, 0, len(parts))
	room := 0 // rows still to merge
	for _, p := range parts {
		if len(p) > 0 {
			curs = append(curs, cursor{chunks: p})
		}
		for _, c := range p {
			room += c.N
		}
	}
	less := func(a, b *cursor) bool {
		ca, cb := a.chunks[0], b.chunks[0]
		for k := 0; k < keys; k++ {
			if d := ca.Cols[k].CompareCell(a.row, &cb.Cols[k], b.row); d != 0 {
				return d < 0
			}
		}
		return false
	}
	// A partition's chunk that is merged out is dead: it goes back to the
	// free list under ls, where the next pass's partitions draw it. The
	// output chunks are the pass's output, owned by sc as a serial scan's
	// are (appendChunks).
	var out []*table.ColBatch
	for len(curs) > 0 {
		best := 0
		for i := 1; i < len(curs); i++ {
			if less(&curs[i], &curs[best]) {
				best = i
			}
		}
		c := &curs[best]
		out = appendChunks(sc, out, c.chunks[0], c.row, c.row+1, room)
		room--
		if c.row++; c.row == c.chunks[0].N {
			c.chunks[0].Recycle(ls)
			c.chunks, c.row = c.chunks[1:], 0
			if len(c.chunks) == 0 {
				curs = slices.Delete(curs, best, best+1)
			}
		}
	}
	return out
}

// accumulator is the per-group combine of one sort+scan pass: seed opens a
// group with its first sorted row, step folds in each further row in
// sorted order, flush closes the group and returns its probability. Rows
// are given as a physical row of a sorted batch, whose typed V ([]int64)
// and P ([]float64) vectors the accumulator reads. The paper's one-scan
// evaluator (runtimeTree) and MystiQ's independent projection (indAcc)
// differ in nothing else.
type accumulator interface {
	seed(b *table.ColBatch, row int)
	step(b *table.ColBatch, row int)
	flush() float64
}

// groupedScan finishes a fed key sorter and walks its sorted batches group
// by group (groups are contiguous on groupCols in key order), folding each
// group into acc. Every group becomes one row of BatchSize-row column
// chunks of the output schema: the group columns of its first sorted row,
// that row's repVar column when repVar >= 0 (sorted ascending, the group's
// minimal variable — its representative), and the probability. The row is
// written when the group opens and its probability when it closes, so the
// group's first row is kept as its output row; a later row opens the next
// group when it differs from that output row on the group columns
// (ColVec.CompareCell, whose equality is table.Compare's: NULL equals
// NULL, −0 equals +0). The context is checked once per sorted batch, like
// the feeding side, so cancellation latency is uniform across the
// pipelined and the sort+scan tiers. Error paths discard any spilled runs.
// The batch the sorted stream fills is drawn off the engine's free list and
// goes back when the scan ends. A partition's scan (ls not nil) draws its
// output chunks whole off the list under ls too — the merge gives them
// back — while a serial scan's chunks are the pass's output, owned by the
// options' Scope (drawn whole, released with the run) or, without one,
// allocated.
func groupedScan(sorter *storage.ExternalSorter, acc accumulator, groupCols []int, repVar int, schema *table.Schema, ls *freelist.Lease, opts Options) ([]*table.ColBatch, spillStats, error) {
	ctx := opts.ctx()
	it, err := sorter.FinishBatches()
	if err != nil {
		return nil, spillStats{}, err
	}
	defer it.Close()
	b := table.NewColBatch(it.Schema())
	var bl freelist.Lease
	b.Draw(&bl, table.BatchSize)
	defer b.Recycle(&bl)
	sp := spillStats{runs: sorter.Spills(), bytes: sorter.SpillBytes()}
	outCols := groupCols
	if repVar >= 0 {
		outCols = append(slices.Clone(groupCols), repVar)
	}
	pc := len(outCols) // the probability column
	// No pass emits more groups than it was fed rows, and most emit far
	// fewer: the first chunk of an allocated serial output starts small
	// and, should it fill, is reserved whole in one step; the later ones,
	// and drawn ones, are reserved whole from the start.
	reserve := int(min(sorter.Rows(), firstChunkRows))
	if ls != nil || opts.Scope != nil {
		reserve = table.BatchSize
	}
	var chunks []*table.ColBatch
	var out *table.ColBatch // the chunk holding the open group's row k
	k := -1
	for {
		if err := ctx.Err(); err != nil {
			return nil, sp, err
		}
		n, err := it.NextColBatch(b)
		if err != nil {
			return nil, sp, err
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if k >= 0 && sameGroup(out, k, b, i, groupCols) {
				acc.step(b, i)
				continue
			}
			if k >= 0 {
				out.Cols[pc].Floats[k] = acc.flush()
			}
			if out == nil || out.N == table.BatchSize {
				if ls != nil {
					out = table.NewColBatch(schema)
					out.Draw(ls, reserve)
				} else {
					out = opts.Scope.NewChunk(schema)
				}
				for j, c := range outCols {
					out.Cols[j].SettleLike(&b.Cols[c])
				}
				out.Reserve(reserve)
				reserve = table.BatchSize
				chunks = append(chunks, out)
			} else if out.N == firstChunkRows {
				out.Reserve(table.BatchSize)
			}
			k = out.N
			for j, c := range outCols {
				out.Cols[j].AppendCell(k, &b.Cols[c], i)
			}
			out.Cols[pc].AppendFloat(0)
			out.N++
			acc.seed(b, i)
		}
	}
	if k >= 0 {
		out.Cols[pc].Floats[k] = acc.flush()
	}
	return chunks, sp, nil
}

// firstChunkRows is what a pass's first output chunk is reserved for.
const firstChunkRows = 64

// sameGroup reports whether row i of the sorted batch b equals output row k
// of out on the group columns, which lead out's schema.
func sameGroup(out *table.ColBatch, k int, b *table.ColBatch, i int, groupCols []int) bool {
	for j, c := range groupCols {
		if out.Cols[j].CompareCell(k, &b.Cols[c], i) != 0 {
			return false
		}
	}
	return true
}

// scanGroups is one sort+scan pass: src is fed into run generation sorted
// by groupCols followed by tailCols — the columns whose order within a
// group the accumulator relies on — and every group of rows equal on
// groupCols becomes one row of the output, a source over column chunks
// (schema: the group columns, the representative variable when repVar >= 0,
// the probability newAcc's accumulator computed). With a multi-worker pool
// in the options an input of at least pool.ParallelMinRows rows is
// hash-partitioned by group key while it is fed, the partitions are sorted
// and scanned in parallel — each with an accumulator of its own — and their
// outputs — each sorted on the group columns, no key spanning two — are
// merged back into global order: bit-identical to the serial scan's. The
// partitions' chunks come off the engine's free list and go back to it as
// the merge consumes them. The pass's output chunks — the serial scan's or
// the merge's — belong to the options' Scope, and so can be read any
// number of times until the scope's run releases it.
func scanGroups(src *Source, groupCols, tailCols []int, repVar int, newAcc func() accumulator, schema *table.Schema, opts Options) (*Source, spillStats, error) {
	sortCols := append(slices.Clone(groupCols), tailCols...)
	in := newScanFeed(src.Schema, groupCols, sortCols, opts)
	err := src.push(opts.ctx(), in)
	if err == nil {
		src.rows, err = in.finish()
	}
	if err != nil {
		in.discard()
		return nil, spillStats{}, err
	}
	if in.one != nil {
		chunks, sp, err := groupedScan(in.one, newAcc(), groupCols, repVar, schema, nil, opts)
		if err != nil {
			return nil, spillStats{}, err
		}
		return chunkSource(schema, chunks), sp, nil
	}
	var ls freelist.Lease // the partitions' chunks', shared by their scans and the merge
	outs := make([][]*table.ColBatch, len(in.parts))
	spills := make([]spillStats, len(in.parts))
	err = opts.Pool.Do(opts.ctx(), len(in.parts), func(i int) error {
		var err error
		outs[i], spills[i], err = groupedScan(in.parts[i], newAcc(), groupCols, repVar, schema, &ls, opts)
		return err
	})
	if err != nil {
		in.discard() // partitions the failed Do never reached
		return nil, spillStats{}, err
	}
	var total spillStats
	for _, s := range spills {
		total.add(s)
	}
	// Merge key: the group columns occupy the output's leading positions.
	return chunkSource(schema, mergeByKey(outs, len(groupCols), &ls, opts.Scope)), total, nil
}

// aggregateStep executes one aggregation [γ*]: group by every column not
// belonging to γ's tables, run the one-scan algorithm over γ's columns per
// group, and emit the group columns plus representative V/P columns. This
// is the single-scan equivalent of one GRP statement of Fig. 6 (or of a
// whole sub-sequence when γ is composite).
func aggregateStep(src *Source, gamma signature.Sig, opts Options) (*Source, spillStats, error) {
	in := src.Schema
	tree, err := signature.BuildScanTree(gamma)
	if err != nil {
		return nil, spillStats{}, err
	}
	root := tree.Table
	rootVarIdx := in.VarIndex(root)
	if root == "" || rootVarIdx < 0 {
		return nil, spillStats{}, fmt.Errorf("conf: aggregation step %s has no representative table", gamma)
	}

	gammaCols := make(map[int]bool)
	for _, tn := range signature.Tables(gamma) {
		gammaCols[in.VarIndex(tn)] = true
		gammaCols[in.ProbIndex(tn)] = true
	}
	var groupCols []int
	for i := range in.Cols {
		if !gammaCols[i] {
			groupCols = append(groupCols, i)
		}
	}

	// Output schema: group columns followed by the representative's V/P.
	outCols := make([]table.Column, 0, len(groupCols)+2)
	for _, i := range groupCols {
		outCols = append(outCols, in.Cols[i])
	}
	outCols = append(outCols, table.VarCol(root), table.ProbCol(root))
	varCols, newAcc, err := treeAccumulators(tree, in)
	if err != nil {
		return nil, spillStats{}, err
	}
	return scanGroups(src, groupCols, varCols, rootVarIdx, newAcc, table.NewSchema(outCols...), opts)
}

// finalScan runs the concluding one-scan pass of the operator: sort by the
// data columns followed by the variable columns in 1scanTree preorder, then
// compute one probability per bag of duplicates (Fig. 8's outer loop).
func finalScan(src *Source, sig signature.Sig, opts Options) (*Source, spillStats, error) {
	dataCols := src.Schema.DataIndexes()
	outCols := make([]table.Column, 0, len(dataCols)+1)
	for _, i := range dataCols {
		outCols = append(outCols, src.Schema.Cols[i])
	}
	outCols = append(outCols, table.DataCol(ConfCol, table.KindFloat))
	tree, err := signature.BuildScanTree(sig)
	if err != nil {
		return nil, spillStats{}, err
	}
	varCols, newAcc, err := treeAccumulators(tree, src.Schema)
	if err != nil {
		return nil, spillStats{}, err
	}
	return scanGroups(src, dataCols, varCols, -1, newAcc, table.NewSchema(outCols...), opts)
}
