package conf

import (
	"context"
	"fmt"

	"repro/internal/fault"
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

// Compute runs the confidence operator: given a materialized answer
// relation (data columns plus V/P columns for every source table) and a
// signature over those sources, it returns the distinct data tuples with
// their exact confidences. Semantically it equals the aggregation sequence
// of Fig. 5; operationally it schedules the minimal number of sort+scan
// passes (Prop. V.10).
func Compute(rel *table.Relation, sig signature.Sig, opts Options) (*table.Relation, error) {
	out, _, err := ComputeStats(rel, sig, opts)
	return out, err
}

// ComputeStats is Compute with execution statistics.
func ComputeStats(rel *table.Relation, sig signature.Sig, opts Options) (*table.Relation, *Stats, error) {
	if err := validateSources(rel.Schema, sig); err != nil {
		return nil, nil, err
	}
	stats := &Stats{InputTuples: int64(rel.Len())}
	steps, finalSig := planScans(sig)
	cur := rel
	for _, st := range steps {
		stats.Steps = append(stats.Steps, "["+st.gamma.String()+"]")
		next, sp, err := aggregateStep(cur, st.gamma, opts)
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
	stats.OutputTuples = int64(out.Len())
	return out, stats, nil
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

// scanStep is one scheduled aggregation: gamma is a starred 1scan
// subexpression whose tables collapse into a single representative.
type scanStep struct {
	gamma signature.Sig
}

// planScans rewrites the signature until it has the 1scan property,
// emitting one aggregation step per starred subexpression that lacks a bare
// table (Def. V.8): the step's starred component is aggregated into its
// representative table. Returns the steps (innermost first) and the final
// 1scan signature. This reproduces Ex. V.11: (Cust*(Ord*Item*)*)* yields
// steps [Ord*], [Cust*] and final (Cust(Ord Item*)*)*.
func planScans(s signature.Sig) ([]scanStep, signature.Sig) {
	var steps []scanStep
	var fix func(signature.Sig) signature.Sig
	fix = func(s signature.Sig) signature.Sig {
		switch x := s.(type) {
		case signature.Table:
			return x
		case signature.Star:
			inner := fix(x.Inner)
			comps, ok := inner.(signature.Concat)
			if !ok {
				comps = signature.Concat{inner}
			}
			if !hasBare(comps) {
				// Aggregate the first starred component into its
				// representative table.
				for i, c := range comps {
					st, isStar := c.(signature.Star)
					if !isStar {
						continue
					}
					rep := representative(st)
					steps = append(steps, scanStep{gamma: st})
					rebuilt := append(signature.Concat{}, comps...)
					rebuilt[i] = signature.Table(rep)
					comps = rebuilt
					break
				}
			}
			return signature.NewStar(signature.NewConcat(comps...))
		case signature.Concat:
			parts := make([]signature.Sig, len(x))
			for i, c := range x {
				parts[i] = fix(c)
			}
			return signature.NewConcat(parts...)
		default:
			return s
		}
	}
	final := fix(s)
	return steps, final
}

func hasBare(c signature.Concat) bool {
	for _, comp := range c {
		if _, ok := comp.(signature.Table); ok {
			return true
		}
	}
	return false
}

// representative returns the table that survives the aggregation of a
// starred 1scan subexpression — the root of its 1scanTree.
func representative(s signature.Sig) string {
	st, err := signature.BuildScanTree(s)
	if err != nil {
		// planScans only aggregates components that are themselves 1scan;
		// reaching here is a scheduler bug.
		panic(fmt.Sprintf("conf: representative of non-1scan %s: %v", s, err))
	}
	return st.Table
}

// sortedScan sorts rel by keyCols (external key sort, buffers sized from
// rel.Len()) and streams it to emit, checking the context once per batch of
// scanBatchSize tuples on both the feeding and the draining side. The
// tuple handed to emit is borrowed — valid until emit returns, then the
// merge may decode the next one over it — so emit must copy what it keeps.
// Error paths discard any spilled runs.
func sortedScan(rel *table.Relation, keyCols []int, opts Options, emit func(table.Tuple) error) (sp spillStats, err error) {
	ctx := opts.ctx()
	sorter := storage.NewKeySorter(keyCols, opts.SortBudget, opts.TmpDir)
	sorter.Govern(opts.Mem)
	sorter.Expect(rel.Len())
	for i, row := range rel.Rows {
		if i%scanBatchSize == 0 && ctx.Err() != nil {
			sorter.Discard()
			return sp, ctx.Err()
		}
		if err := sorter.Add(row); err != nil {
			sorter.Discard()
			return sp, err
		}
	}
	it, err := sorter.FinishBorrowed()
	if err != nil {
		return sp, err
	}
	defer it.Close()
	sp = spillStats{runs: sorter.Spills(), bytes: sorter.SpillBytes()}
	for i := 0; ; i++ {
		if i%scanBatchSize == 0 && ctx.Err() != nil {
			return sp, ctx.Err()
		}
		t, ok, err := it.Next()
		if err != nil || !ok {
			return sp, err
		}
		if err := emit(t); err != nil {
			return sp, err
		}
	}
}

// scanBatchSize is the aggregation scans' batch granularity: how many tuples
// pass between context checks. It mirrors engine.BatchSize, so cancellation
// latency is uniform across the pipelined and the sort+scan tiers.
const scanBatchSize = 1024

// parallelScans reports whether an input should take the partition-parallel
// scan path.
func parallelScans(opts Options, rows, groupCols int) bool {
	return opts.Pool != nil && opts.Pool.Parallel() && rows >= pool.ParallelMinRows && groupCols > 0
}

// partitionByKey buckets the rows of rel by the hash of its key columns.
// Every group (rows equal on keyCols) lands wholly in one bucket, which is
// what makes per-partition aggregation correct.
func partitionByKey(rel *table.Relation, keyCols []int, n int) []*table.Relation {
	buckets := table.PartitionOn(rel.Rows, keyCols, n)
	parts := make([]*table.Relation, n)
	for i, rows := range buckets {
		parts[i] = &table.Relation{Schema: rel.Schema, Rows: rows}
	}
	return parts
}

// mergeByKey merges per-partition outputs back into global key order: each
// part is sorted on the keyCols of the output schema and no key value spans
// two partitions (they were hash-partitioned on it), so a k-way min-merge
// reproduces the serial scan's output exactly.
func mergeByKey(parts []*table.Relation, keyCols []int, schema *table.Schema) *table.Relation {
	out := table.NewRelation(schema)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	out.Rows = make([]table.Tuple, 0, total)
	pos := make([]int, len(parts))
	for {
		best := -1
		for i, p := range parts {
			if pos[i] >= p.Len() {
				continue
			}
			if best < 0 || table.CompareOn(p.Rows[pos[i]], parts[best].Rows[pos[best]], keyCols) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out.Rows = append(out.Rows, parts[best].Rows[pos[best]])
		pos[best]++
	}
}

// groupedScan is the shared core of the aggregation scans: sort rel by
// sortCols, walk it group by group (groups are contiguous on groupCols), run
// the one-scan algorithm of rt within each group, and append one output row
// per group built from the group's first sorted tuple and its probability.
//
// The scan keeps two tuples across rows — the group's first and the
// previous one — in buffers it reuses: sortedScan's tuples are borrowed,
// and buildRow copies the values it wants out of first.
func groupedScan(rel *table.Relation, rt *runtimeTree, groupCols, sortCols []int, opts Options, out *table.Relation, buildRow func(first table.Tuple, p float64) table.Tuple) (spillStats, error) {
	var prev, first table.Tuple
	inGroup := false
	emitGroup := func() {
		out.Rows = append(out.Rows, buildRow(first, rt.flush()))
	}
	sp, err := sortedScan(rel, sortCols, opts, func(t table.Tuple) error {
		if inGroup && !table.EqualOn(prev, t, groupCols) {
			emitGroup()
			inGroup = false
		}
		if !inGroup {
			first = append(first[:0], t...)
			rt.seed(t)
			inGroup = true
		} else {
			rt.step(rt.firstUnmatched(prev, t), t)
		}
		prev = append(prev[:0], t...)
		return nil
	})
	if err != nil {
		return sp, err
	}
	if inGroup {
		emitGroup()
	}
	return sp, nil
}

// aggregateStep executes one aggregation [γ*]: group by every column not
// belonging to γ's tables, run the one-scan algorithm over γ's columns per
// group, and emit the group columns plus representative V/P columns. This
// is the single-scan equivalent of one GRP statement of Fig. 6 (or of a
// whole sub-sequence when γ is composite). With a multi-worker pool in the
// options the input is hash-partitioned by group key and the partitions are
// sorted and scanned in parallel; the merged output is bit-identical to the
// serial scan's.
func aggregateStep(rel *table.Relation, gamma signature.Sig, opts Options) (*table.Relation, spillStats, error) {
	rt, err := newRuntimeTree(gamma, rel.Schema)
	if err != nil {
		return nil, spillStats{}, err
	}
	rootVarIdx := rt.rootVarIdx()
	if rootVarIdx < 0 {
		return nil, spillStats{}, fmt.Errorf("conf: aggregation step %s has no representative table", gamma)
	}
	root := rt.root.tableName

	gammaCols := make(map[int]bool)
	for _, tn := range signature.Tables(gamma) {
		gammaCols[rel.Schema.VarIndex(tn)] = true
		gammaCols[rel.Schema.ProbIndex(tn)] = true
	}
	var groupCols []int
	for i := range rel.Schema.Cols {
		if !gammaCols[i] {
			groupCols = append(groupCols, i)
		}
	}
	sortCols := append(append([]int(nil), groupCols...), rt.varColumns()...)

	// Output schema: group columns followed by the representative's V/P.
	outCols := make([]table.Column, 0, len(groupCols)+2)
	for _, i := range groupCols {
		outCols = append(outCols, rel.Schema.Cols[i])
	}
	outCols = append(outCols, table.VarCol(root), table.ProbCol(root))
	schema := table.NewSchema(outCols...)
	buildRow := func(first table.Tuple, p float64) table.Tuple {
		row := make(table.Tuple, 0, len(outCols))
		for _, i := range groupCols {
			row = append(row, first[i])
		}
		// Sorted ascending: the group's first variable is the minimal
		// representative.
		return append(row, first[rootVarIdx], table.Float(p))
	}

	scanOne := func(part *table.Relation, out *table.Relation) (spillStats, error) {
		prt, err := newRuntimeTree(gamma, rel.Schema)
		if err != nil {
			return spillStats{}, err
		}
		return groupedScan(part, prt, groupCols, sortCols, opts, out, buildRow)
	}

	if !parallelScans(opts, rel.Len(), len(groupCols)) {
		out := table.NewRelation(schema)
		sp, err := groupedScan(rel, rt, groupCols, sortCols, opts, out, buildRow)
		if err != nil {
			return nil, spillStats{}, err
		}
		return out, sp, nil
	}
	// Merge key: the group columns occupy the output's leading positions.
	mergeCols := make([]int, len(groupCols))
	for i := range mergeCols {
		mergeCols[i] = i
	}
	return parallelGroupedScan(rel, groupCols, mergeCols, schema, opts, scanOne)
}

// parallelGroupedScan hash-partitions rel by groupCols, runs scanOne over
// every partition on the pool, and merges the per-partition outputs (each
// sorted on the output's mergeCols) back into global order.
func parallelGroupedScan(rel *table.Relation, groupCols, mergeCols []int, schema *table.Schema, opts Options, scanOne func(part, out *table.Relation) (spillStats, error)) (*table.Relation, spillStats, error) {
	n := opts.Pool.Workers()
	parts := partitionByKey(rel, groupCols, n)
	outs := make([]*table.Relation, n)
	spills := make([]spillStats, n)
	err := opts.Pool.Do(opts.ctx(), n, func(i int) error {
		outs[i] = table.NewRelation(schema)
		s, err := scanOne(parts[i], outs[i])
		spills[i] = s
		return err
	})
	if err != nil {
		return nil, spillStats{}, err
	}
	var total spillStats
	for _, s := range spills {
		total.add(s)
	}
	return mergeByKey(outs, mergeCols, schema), total, nil
}

// finalScan runs the concluding one-scan pass of the operator: sort by the
// data columns followed by the variable columns in 1scanTree preorder, then
// compute one probability per bag of duplicates (Fig. 8's outer loop). Like
// aggregateStep it runs partition-parallel by answer key under a
// multi-worker pool, with bit-identical output.
func finalScan(rel *table.Relation, sig signature.Sig, opts Options) (*table.Relation, spillStats, error) {
	rt, err := newRuntimeTree(sig, rel.Schema)
	if err != nil {
		return nil, spillStats{}, err
	}
	dataCols := rel.Schema.DataIndexes()
	sortCols := append(append([]int(nil), dataCols...), rt.varColumns()...)

	outCols := make([]table.Column, 0, len(dataCols)+1)
	for _, i := range dataCols {
		outCols = append(outCols, rel.Schema.Cols[i])
	}
	outCols = append(outCols, table.DataCol(ConfCol, table.KindFloat))
	schema := table.NewSchema(outCols...)
	buildRow := func(first table.Tuple, p float64) table.Tuple {
		row := make(table.Tuple, 0, len(outCols))
		for _, i := range dataCols {
			row = append(row, first[i])
		}
		return append(row, table.Float(p))
	}

	scanOne := func(part *table.Relation, out *table.Relation) (spillStats, error) {
		prt, err := newRuntimeTree(sig, rel.Schema)
		if err != nil {
			return spillStats{}, err
		}
		return groupedScan(part, prt, dataCols, sortCols, opts, out, buildRow)
	}

	if !parallelScans(opts, rel.Len(), len(dataCols)) {
		out := table.NewRelation(schema)
		sp, err := groupedScan(rel, rt, dataCols, sortCols, opts, out, buildRow)
		if err != nil {
			return nil, spillStats{}, err
		}
		return out, sp, nil
	}
	mergeCols := make([]int, len(dataCols))
	for i := range mergeCols {
		mergeCols[i] = i
	}
	return parallelGroupedScan(rel, dataCols, mergeCols, schema, opts, scanOne)
}
