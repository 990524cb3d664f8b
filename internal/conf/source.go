package conf

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/table"
)

// Source is a confidence computation's input: a schema and a one-shot feed
// that pushes the rows, a column batch at a time, into the sink it is
// handed. The consumer takes the feed directly — the sort+scan operator's
// first sort into run generation, lineage collection into its grouping
// tables — so an input that is streamed (NewSource over a pipeline) is never
// held in memory as a whole. A source over a materialized relation
// (FromRelation) transposes that relation's rows into the same batches and
// can be consumed any number of times; a streamed one materializes itself
// only when asked for its Relation.
type Source struct {
	Schema *table.Schema
	feed   func(engine.Sink) error // nil once consumed, or for a relation
	rel    *table.Relation
	rows   int64 // rows the feed delivered
}

// NewSource wraps a one-shot feed of rows of the given schema. The batches
// the feed hands to its sink are borrowed: valid until the sink returns.
func NewSource(schema *table.Schema, feed func(engine.Sink) error) *Source {
	return &Source{Schema: schema, feed: feed}
}

// FromRelation wraps a materialized relation as a source.
func FromRelation(rel *table.Relation) *Source {
	return &Source{Schema: rel.Schema, rel: rel}
}

// Rows reports how many rows the source holds — for a streamed source, how
// many it delivered, known once it has been consumed.
func (s *Source) Rows() int64 {
	if s.rel != nil {
		return int64(s.rel.Len())
	}
	return s.rows
}

// Relation returns the source's rows as a relation, materializing a
// streamed source (which consumes it; the relation then stands in).
func (s *Source) Relation(ctx context.Context) (*table.Relation, error) {
	if s.rel == nil {
		sink := engine.NewRelationSink(s.Schema)
		if err := s.push(ctx, sink); err != nil {
			return nil, err
		}
		s.rel = sink.Rel
	}
	return s.rel, nil
}

// push delivers every row to sink: a relation's through a columnar scan of
// it, with the context checked between batches, a streamed source's through
// its feed, once.
func (s *Source) push(ctx context.Context, sink engine.Sink) error {
	if s.rel != nil {
		return engine.StreamCtx(ctx, &engine.ColMemScan{Rel: s.rel}, sink)
	}
	if s.feed == nil {
		return fmt.Errorf("conf: streamed input consumed twice")
	}
	feed := s.feed
	s.feed = nil
	return feed(sink)
}

// rowSink adapts a per-row function to a Sink: column batches are
// materialized row by row into one reused tuple, borrowed by fn.
type rowSink struct {
	fn  func(table.Tuple) error
	row table.Tuple
	n   int64
}

func (r *rowSink) AddBatch(b *table.ColBatch) error {
	if r.row == nil {
		r.row = make(table.Tuple, len(b.Cols))
	}
	for i, n := 0, b.Rows(); i < n; i++ {
		b.WriteRow(i, r.row)
		if err := r.fn(r.row); err != nil {
			return err
		}
	}
	r.n += int64(b.Rows())
	return nil
}

// scanFeed is the sink a grouped scan's input is fed into: run generation.
// The rows go to one key sorter — or, under a multi-worker pool, once
// pool.ParallelMinRows of them have arrived, to one sorter per worker,
// routed by the hash of their group columns (ColBatch.HashInto), so every
// group lands wholly in one partition. Until that many rows have been seen
// they wait in a buffer: the rule that small inputs scan serially is the
// materialized operator's, kept.
type scanFeed struct {
	opts      Options
	schema    *table.Schema
	groupCols []int
	sortCols  []int

	one   *storage.ExternalSorter   // the serial scan's sorter
	parts []*storage.ExternalSorter // the partitioned scan's, one per worker
	pend  *table.ColBatch           // rows awaiting the serial/partitioned decision

	hashes []uint64
	sels   [][]int32
}

// newScanFeed prepares run generation for rows of the given schema.
func newScanFeed(schema *table.Schema, groupCols, sortCols []int, opts Options) *scanFeed {
	f := &scanFeed{opts: opts, schema: schema, groupCols: groupCols, sortCols: sortCols}
	if opts.Pool != nil && opts.Pool.Parallel() && len(groupCols) > 0 {
		f.pend = table.NewColBatch(schema)
	} else {
		f.one = f.newSorter()
	}
	return f
}

func (f *scanFeed) newSorter() *storage.ExternalSorter {
	s := storage.NewKeySorter(f.schema, f.sortCols, f.opts.SortBudget, f.opts.TmpDir)
	s.Govern(f.opts.Mem)
	return s
}

// AddBatch feeds one column batch.
func (f *scanFeed) AddBatch(b *table.ColBatch) error {
	switch {
	case f.one != nil:
		return f.one.AddBatch(b)
	case f.parts != nil:
		return f.route(b)
	}
	f.pend.AppendBatch(b, 0, b.Rows())
	return f.decide()
}

// decide goes partitioned once the waiting rows reach the parallel cutoff.
func (f *scanFeed) decide() error {
	if f.pend.N < pool.ParallelMinRows {
		return nil
	}
	f.parts = make([]*storage.ExternalSorter, f.opts.Pool.Workers())
	for i := range f.parts {
		f.parts[i] = f.newSorter()
	}
	f.sels = make([][]int32, len(f.parts))
	pend := f.pend
	f.pend = nil
	return f.route(pend)
}

// route hands each partition its rows of b, as a selection over b.
func (f *scanFeed) route(b *table.ColBatch) error {
	f.hashes = b.HashInto(f.groupCols, f.hashes)
	for p := range f.sels {
		f.sels[p] = f.sels[p][:0]
	}
	n := uint64(len(f.parts))
	for i, h := range f.hashes {
		f.sels[h%n] = append(f.sels[h%n], int32(b.RowID(i)))
	}
	view := *b
	for p, sel := range f.sels {
		if len(sel) == 0 {
			continue
		}
		view.Sel = sel
		if err := f.parts[p].AddBatch(&view); err != nil {
			return err
		}
	}
	return nil
}

// finish ends feeding: an input that never reached the parallel cutoff goes
// to one sorter after all. It reports the rows fed.
func (f *scanFeed) finish() (int64, error) {
	if f.pend != nil {
		f.one = f.newSorter()
		if err := f.one.AddBatch(f.pend); err != nil {
			return 0, err
		}
		f.pend = nil
	}
	if f.one != nil {
		return f.one.Rows(), nil
	}
	var rows int64
	for _, s := range f.parts {
		rows += s.Rows()
	}
	return rows, nil
}

// discard removes whatever the sorters spilled — the error paths' cleanup.
// Sorters whose scan finished have handed their runs on; it skips those.
func (f *scanFeed) discard() {
	if f.one != nil {
		f.one.Discard()
	}
	for _, s := range f.parts {
		s.Discard()
	}
}
