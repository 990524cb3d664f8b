package conf

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/freelist"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/table"
)

// Source is a confidence computation's input: a schema and its rows, held
// one of two ways. A one-shot feed (NewSource) pushes the rows, a column
// batch at a time, into the sink it is handed: the consumer takes the feed
// directly — the sort+scan operator's first sort into run generation,
// lineage collection into its grouping tables — so a streamed input is never
// held in memory as a whole. Column chunks of at most table.BatchSize rows
// are what a sort+scan pass produces (an eager aggregation step, an
// independent projection) and what the next pass's sort, or the join above
// a placement (Chunks, engine.ColChunkScan), consumes as they are; a source
// over chunks can be consumed any number of times while its chunks live —
// a pass's chunks belong to its options' Scope, and live until the run that
// owns the scope has materialized its answer and released it. A relation
// becomes one at the API edge (FromRelation, Relation) and nowhere between
// two passes.
type Source struct {
	Schema *table.Schema
	feed   func(engine.Sink) error // a one-shot feed: nil once consumed
	chunks []*table.ColBatch       // the rows, when held (see held)
	held   bool                    // the rows are chunks, not a feed
	rows   int64                   // rows held, or rows the feed delivered
}

// NewSource wraps a one-shot feed of rows of the given schema. The batches
// the feed hands to its sink are borrowed: valid until the sink returns.
func NewSource(schema *table.Schema, feed func(engine.Sink) error) *Source {
	return &Source{Schema: schema, feed: feed}
}

// FromRelation transposes a materialized relation into a source over
// column chunks.
func FromRelation(rel *table.Relation) *Source {
	var chunks []*table.ColBatch
	for lo := 0; lo < len(rel.Rows); lo += table.BatchSize {
		rows := rel.Rows[lo:min(lo+table.BatchSize, len(rel.Rows))]
		c := table.NewColBatch(rel.Schema)
		c.Reserve(len(rows))
		for _, t := range rows {
			c.AppendRow(t)
		}
		chunks = append(chunks, c)
	}
	return chunkSource(rel.Schema, chunks)
}

// chunkSource holds chunks of the given schema as a source.
func chunkSource(schema *table.Schema, chunks []*table.ColBatch) *Source {
	s := &Source{Schema: schema, chunks: chunks, held: true}
	for _, c := range chunks {
		s.rows += int64(c.Rows())
	}
	return s
}

// Rows reports how many rows the source holds — for a streamed source, how
// many it delivered, known once it has been consumed.
func (s *Source) Rows() int64 { return s.rows }

// Chunks returns the source's rows as column chunks, which the caller only
// reads. A streamed source is drained into chunks (appendChunks) owned by
// sc, which consumes it; the chunks then stand in.
func (s *Source) Chunks(ctx context.Context, sc *table.Scope) ([]*table.ColBatch, error) {
	if !s.held {
		sink := chunkSink{scope: sc}
		if err := s.push(ctx, &sink); err != nil {
			return nil, err
		}
		s.chunks, s.held, s.rows = sink.chunks, true, sink.rows
	}
	return s.chunks, nil
}

// Relation materializes the source's rows as a relation — the answer at
// the API edge. A streamed source is consumed into chunks first (Chunks),
// owned by sc.
func (s *Source) Relation(ctx context.Context, sc *table.Scope) (*table.Relation, error) {
	chunks, err := s.Chunks(ctx, sc)
	if err != nil {
		return nil, err
	}
	sink := engine.NewRelationSink(s.Schema)
	sink.Rel.Rows = make([]table.Tuple, 0, s.rows)
	for _, c := range chunks {
		sink.AddBatch(c)
	}
	return sink.Rel, nil
}

// push delivers every row to sink: held chunks one by one, with the context
// checked between them, a streamed source's through its feed, once.
func (s *Source) push(ctx context.Context, sink engine.Sink) error {
	if s.held {
		for _, c := range s.chunks {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if err := sink.AddBatch(c); err != nil {
				return err
			}
		}
		return nil
	}
	if s.feed == nil {
		return fmt.Errorf("conf: streamed input consumed twice")
	}
	feed := s.feed
	s.feed = nil
	return feed(sink)
}

// appendChunks copies live rows [lo, hi) of src onto the last of chunks,
// starting a new chunk, owned by sc, whenever that one holds
// table.BatchSize rows, and returns the chunks. room is how many rows,
// these among them, are still to be appended at most (≥ table.BatchSize
// when unknown): a new chunk is reserved whole for min(room,
// table.BatchSize) rows when it starts — for table.BatchSize under a
// scope, which draws it whole — chunks of fixed size, because one growing
// batch would copy its slices over and over as it regrows, and settled on
// src's string layouts (ColVec.SettleLike).
func appendChunks(sc *table.Scope, chunks []*table.ColBatch, src *table.ColBatch, lo, hi, room int) []*table.ColBatch {
	for lo < hi {
		var last *table.ColBatch
		if k := len(chunks); k > 0 && chunks[k-1].N < table.BatchSize {
			last = chunks[k-1]
		} else {
			rows := min(room, table.BatchSize)
			if sc != nil {
				rows = table.BatchSize
			}
			last = sc.NewChunk(src.Schema)
			for c := range last.Cols {
				last.Cols[c].SettleLike(&src.Cols[c])
			}
			last.Reserve(rows)
			chunks = append(chunks, last)
		}
		n := min(hi, lo+table.BatchSize-last.N)
		last.AppendBatch(src, lo, n)
		room -= n - lo
		lo = n
	}
	return chunks
}

// chunkSink keeps what it is fed as column chunks, owned by scope.
type chunkSink struct {
	scope  *table.Scope
	chunks []*table.ColBatch
	rows   int64
}

func (c *chunkSink) AddBatch(b *table.ColBatch) error {
	c.chunks = appendChunks(c.scope, c.chunks, b, 0, b.Rows(), table.BatchSize)
	c.rows += int64(b.Rows())
	return nil
}

// sinkFunc adapts a function to a Sink.
type sinkFunc func(*table.ColBatch) error

func (f sinkFunc) AddBatch(b *table.ColBatch) error { return f(b) }

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
	lease  freelist.Lease // pend's vectors, hashes and sels come off the engine's free list
}

// newScanFeed prepares run generation for rows of the given schema.
func newScanFeed(schema *table.Schema, groupCols, sortCols []int, opts Options) *scanFeed {
	f := &scanFeed{opts: opts, schema: schema, groupCols: groupCols, sortCols: sortCols}
	if opts.Pool != nil && opts.Pool.Parallel() && len(groupCols) > 0 {
		f.pend = table.NewColBatch(schema)
		f.pend.Draw(&f.lease, pool.ParallelMinRows)
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
	// The routing buffers are drawn for the most rows one route takes —
	// the waiting rows, fewer than pool.ParallelMinRows + table.BatchSize —
	// so that none regrows past what the next pass draws.
	const most = pool.ParallelMinRows + table.BatchSize
	f.sels = make([][]int32, len(f.parts))
	var ok bool
	for p := range f.sels {
		if f.sels[p], ok = freelist.Int32s.Fit(&f.lease, 4*most); !ok {
			f.sels[p] = make([]int32, 0, most)
		}
	}
	if f.hashes, ok = freelist.Uint64s.Fit(&f.lease, 8*most); !ok {
		f.hashes = make([]uint64, 0, most)
	}
	pend := f.pend
	f.pend = nil
	defer pend.Recycle(&f.lease)
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
		err := f.one.AddBatch(f.pend)
		f.pend.Recycle(&f.lease)
		f.pend = nil
		if err != nil {
			return 0, err
		}
	}
	f.release()
	if f.one != nil {
		return f.one.Rows(), nil
	}
	var rows int64
	for _, s := range f.parts {
		rows += s.Rows()
	}
	return rows, nil
}

// release gives the routing scratch back to the free list once the feed
// has ended, and lets go of it.
func (f *scanFeed) release() {
	for _, sel := range f.sels {
		freelist.Int32s.Put(&f.lease, sel)
	}
	freelist.Uint64s.Put(&f.lease, f.hashes)
	f.sels, f.hashes = nil, nil
}

// discard removes whatever the sorters spilled — the error paths' cleanup.
// Sorters whose scan finished have handed their runs on; it skips those.
func (f *scanFeed) discard() {
	f.release()
	if f.one != nil {
		f.one.Discard()
	}
	for _, s := range f.parts {
		s.Discard()
	}
}
