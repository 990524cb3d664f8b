package conf

import (
	"context"
	"fmt"
	"slices"

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
// by batch into the first pass's run generation and is never materialized.
func ComputeFrom(src *Source, sig signature.Sig, opts Options) (*table.Relation, *Stats, error) {
	if err := validateSources(src.Schema, sig); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	steps, finalSig := planScans(sig)
	cur := src
	for _, st := range steps {
		stats.Steps = append(stats.Steps, "["+st.gamma.String()+"]")
		next, sp, err := aggregateStep(cur, st.gamma, opts)
		if err != nil {
			return nil, nil, err
		}
		stats.addScan(sp)
		cur = FromRelation(next)
	}
	out, sp, err := finalScan(cur, finalSig, opts)
	if err != nil {
		return nil, nil, err
	}
	stats.addScan(sp)
	stats.InputTuples = src.Rows()
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

// sortedScan finishes a fed key sorter and streams its rows, in key order,
// to emit, checking the context once per batch of scanBatchSize tuples (the
// feeding side checks it per batch too). The tuple handed to emit is
// borrowed — valid until emit returns, then the sorter writes the next one
// over it — so emit must copy what it keeps. Error paths discard any
// spilled runs.
func sortedScan(sorter *storage.ExternalSorter, opts Options, emit func(table.Tuple) error) (sp spillStats, err error) {
	ctx := opts.ctx()
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

// accumulator is the per-group combine of one sort+scan pass: seed opens a
// group with its first sorted row, step folds in each further row (prev is
// the row before it), flush closes the group and returns its probability.
// The paper's one-scan evaluator (runtimeTree) and MystiQ's independent
// projection (indAcc) differ in nothing else.
type accumulator interface {
	seed(first table.Tuple)
	step(prev, cur table.Tuple)
	flush() float64
}

// groupedScan walks a fed sorter's rows group by group (groups are
// contiguous on groupCols in key order), folds each group into acc, and
// appends one output row per group: the group columns of its first sorted
// tuple, that tuple's repVar column when repVar >= 0 (sorted ascending, the
// group's minimal variable — its representative), and the probability.
//
// The scan keeps two tuples across rows — the group's first and the
// previous one — in buffers it reuses: sortedScan's tuples are borrowed.
func groupedScan(sorter *storage.ExternalSorter, acc accumulator, groupCols []int, repVar int, opts Options, out *table.Relation) (spillStats, error) {
	var prev, first table.Tuple
	inGroup := false
	emitGroup := func() {
		row := make(table.Tuple, 0, out.Schema.Len())
		for _, i := range groupCols {
			row = append(row, first[i])
		}
		if repVar >= 0 {
			row = append(row, first[repVar])
		}
		out.Rows = append(out.Rows, append(row, table.Float(acc.flush())))
	}
	sp, err := sortedScan(sorter, opts, func(t table.Tuple) error {
		if inGroup && !table.EqualOn(prev, t, groupCols) {
			emitGroup()
			inGroup = false
		}
		if !inGroup {
			first = append(first[:0], t...)
			acc.seed(t)
			inGroup = true
		} else {
			acc.step(prev, t)
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

// scanGroups is one sort+scan pass: src is fed into run generation sorted
// by groupCols followed by tailCols — the columns whose order within a
// group the accumulator relies on — and every group of rows equal on
// groupCols becomes one row of the output (schema: the group columns, the
// representative variable when repVar >= 0, the probability newAcc's
// accumulator computed). With a multi-worker pool in the options an input
// of at least pool.ParallelMinRows rows is hash-partitioned by group key
// while it is fed, the partitions are sorted and scanned in parallel — each
// with an accumulator of its own — and their outputs — each sorted on the
// group columns, no key spanning two — are merged back into global order:
// bit-identical to the serial scan's.
func scanGroups(src *Source, groupCols, tailCols []int, repVar int, newAcc func() accumulator, schema *table.Schema, opts Options) (*table.Relation, spillStats, error) {
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
		out := table.NewRelation(schema)
		sp, err := groupedScan(in.one, newAcc(), groupCols, repVar, opts, out)
		if err != nil {
			return nil, spillStats{}, err
		}
		return out, sp, nil
	}
	outs := make([]*table.Relation, len(in.parts))
	spills := make([]spillStats, len(in.parts))
	err = opts.Pool.Do(opts.ctx(), len(in.parts), func(i int) error {
		outs[i] = table.NewRelation(schema)
		var err error
		spills[i], err = groupedScan(in.parts[i], newAcc(), groupCols, repVar, opts, outs[i])
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
	mergeCols := make([]int, len(groupCols))
	for i := range mergeCols {
		mergeCols[i] = i
	}
	return mergeByKey(outs, mergeCols, schema), total, nil
}

// aggregateStep executes one aggregation [γ*]: group by every column not
// belonging to γ's tables, run the one-scan algorithm over γ's columns per
// group, and emit the group columns plus representative V/P columns. This
// is the single-scan equivalent of one GRP statement of Fig. 6 (or of a
// whole sub-sequence when γ is composite).
func aggregateStep(src *Source, gamma signature.Sig, opts Options) (*table.Relation, spillStats, error) {
	in := src.Schema
	rootVarIdx := -1
	if root := scanRootTable(gamma); root != "" {
		rootVarIdx = in.VarIndex(root)
	}
	if rootVarIdx < 0 {
		return nil, spillStats{}, fmt.Errorf("conf: aggregation step %s has no representative table", gamma)
	}
	root := scanRootTable(gamma)

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
	varCols, newAcc, err := treeAccumulators(gamma, in)
	if err != nil {
		return nil, spillStats{}, err
	}
	return scanGroups(src, groupCols, varCols, rootVarIdx, newAcc, table.NewSchema(outCols...), opts)
}

// finalScan runs the concluding one-scan pass of the operator: sort by the
// data columns followed by the variable columns in 1scanTree preorder, then
// compute one probability per bag of duplicates (Fig. 8's outer loop).
func finalScan(src *Source, sig signature.Sig, opts Options) (*table.Relation, spillStats, error) {
	dataCols := src.Schema.DataIndexes()
	outCols := make([]table.Column, 0, len(dataCols)+1)
	for _, i := range dataCols {
		outCols = append(outCols, src.Schema.Cols[i])
	}
	outCols = append(outCols, table.DataCol(ConfCol, table.KindFloat))
	varCols, newAcc, err := treeAccumulators(sig, src.Schema)
	if err != nil {
		return nil, spillStats{}, err
	}
	return scanGroups(src, dataCols, varCols, -1, newAcc, table.NewSchema(outCols...), opts)
}
