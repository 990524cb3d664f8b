package engine

import (
	"fmt"
	"slices"

	"repro/internal/freelist"
	"repro/internal/storage"
	"repro/internal/table"
)

// This file is the executor's operator set: operators that move
// table.ColBatch column vectors, in the MonetDB/X100 vectorized tradition.
// Scans evaluate their selections as tight per-column loops over typed
// slices into a selection vector (pred.go) and copy out the qualifying rows
// alone; projections move column vectors; every operator pays one
// interface call per batch instead of per-row Value unboxing. The hash join
// lives in coljoin.go. Hashes via
// ColBatch.HashInto are bit-identical to table.HashOn, so a row and its
// column form group alike everywhere.

// ColOperator is the columnar Volcano interface. NextColBatch fills dst with
// the next batch and returns the number of live rows (selection applied);
// 0 means the stream is exhausted. The batch contents — column slices
// included — are valid only until the next NextColBatch call on the same
// operator; consumers that retain slices or cells across batches must copy
// them (the batchalias analyzer enforces this).
type ColOperator interface {
	Schema() *table.Schema
	Open() error
	NextColBatch(dst *table.ColBatch) (int, error)
	Close() error
}

// ColChunkScan iterates column chunks — an in-memory base table's storage
// (table.ColStore), or what a sort+scan placement below a join hands up
// (conf.Source.Chunks) — copied column-wise into the consumer's batch. The
// chunks are dense (no selection) and only read, never written, so they
// may be scanned any number of times, by concurrent scans too. Without
// Preds a call copies one chunk; with them, the kernels (pred.go) run over
// a chunk in place, the qualifying rows alone are copied, and the output
// batch fills from as many chunks as it takes.
type ColChunkScan struct {
	S      *table.Schema
	Chunks []*table.ColBatch
	// Preds are the selections on the chunks' columns: only the rows
	// satisfying all of them are copied out.
	Preds []ColPred
	pos   int // the chunk being read
	row   int // its next row
	// need marks the columns some consumer actually reads (nil = all); only
	// those are copied. Set by pruneCols; a pruned column's vector stays
	// empty, as a ColHeapScan's does. A predicate column no consumer reads
	// is evaluated but not copied.
	need  []bool
	sel   []int32 // the qualifying rows of the window being read
	lease freelist.Lease
}

// Schema returns the chunks' schema.
func (s *ColChunkScan) Schema() *table.Schema { return s.S }

// Open resets the cursor and draws the selection storage.
func (s *ColChunkScan) Open() error {
	s.pos, s.row = 0, 0
	if len(s.Preds) > 0 && s.sel == nil {
		s.sel = freelist.Int32s.Draw(&s.lease, 4*BatchSize)
	}
	return nil
}

// NextColBatch copies the next non-empty chunk onto dst or, with
// predicates, the next qualifying rows, up to a batch of them.
func (s *ColChunkScan) NextColBatch(dst *table.ColBatch) (int, error) {
	dst.Reset(s.S)
	if len(s.Preds) == 0 {
		for dst.N == 0 && s.pos < len(s.Chunks) {
			c := s.Chunks[s.pos]
			s.pos++
			dst.AppendBatchCols(c, 0, c.Rows(), s.need)
		}
		return dst.N, nil
	}
	for dst.N < BatchSize && s.pos < len(s.Chunks) {
		c := s.Chunks[s.pos]
		lo, hi := s.row, min(c.N, s.row+BatchSize)
		sel := selectAll(s.Preds, c.Cols, lo, hi, &s.sel)
		s.row = hi
		if room := BatchSize - dst.N; len(sel) > room {
			sel = sel[:room]
			s.row = int(sel[room-1]) + 1
		}
		if s.row >= c.N {
			s.pos, s.row = s.pos+1, 0
		}
		dst.AppendRows(c, sel, s.need)
	}
	return dst.N, nil
}

// Close gives the selection storage back.
func (s *ColChunkScan) Close() error {
	freelist.Int32s.Put(&s.lease, s.sel)
	s.sel = nil
	return nil
}

// ColHeapScan iterates a heap file straight into column vectors, without
// ever materializing a row tuple: each page's minipages are decoded onto
// the destination columns a vector at a time, string cells as raw bytes in
// the flat layout with no per-row string allocation. With Preds it
// materializes late (Abadi et al., "Materialization strategies in a
// column-oriented DBMS", ICDE 2007): per page window it decodes only the
// predicate columns, into a scan-private scratch batch, runs the kernels
// (pred.go) over them, and gather-decodes the columns consumers read at the
// qualifying rows alone, so the output batch is dense and fills from as
// many pages as it takes. A stored column that is neither all NULL nor of
// its schema column's kind fails the scan: the heap file is where rows
// enter the engine from outside.
type ColHeapScan struct {
	File   *storage.HeapFile
	Pool   *storage.BufferPool
	schema *table.Schema
	// Preds are the selections on the file's columns, set before the first
	// Open: only the rows satisfying all of them are decoded out.
	Preds []ColPred
	sc    *storage.Scanner
	// need marks the columns some consumer actually reads (nil = all).
	// Dead columns' minipages are skipped by offset, never read. Set by
	// pruneCols; a pruned column's vector stays empty, so a consumer
	// reading it by mistake fails loudly on the bounds check rather than
	// seeing stale data. A predicate column no consumer reads is decoded
	// into the scratch batch only.
	need []bool

	predCols []bool         // the columns some predicate reads
	scratch  table.ColBatch // the window being read: its predicate columns alone
	sel      []int32        // the window's qualifying rows
	lease    freelist.Lease
}

// NewColHeapScan builds a columnar scan over a heap file whose tuples
// conform to schema.
func NewColHeapScan(f *storage.HeapFile, pool *storage.BufferPool, schema *table.Schema) *ColHeapScan {
	return &ColHeapScan{File: f, Pool: pool, schema: schema}
}

// Schema returns the declared schema.
func (s *ColHeapScan) Schema() *table.Schema { return s.schema }

// Open positions a fresh scanner and, with predicates, draws the scratch
// batch and the selection storage from the engine's free list.
func (s *ColHeapScan) Open() error {
	s.sc = s.File.NewScanner(s.Pool)
	if len(s.Preds) == 0 || s.sel != nil {
		return nil
	}
	if s.predCols == nil {
		s.predCols = make([]bool, s.schema.Len())
		for _, p := range s.Preds {
			s.predCols[p.Col] = true
		}
	}
	s.scratch.Reset(s.schema)
	for c, pred := range s.predCols {
		if !pred {
			continue
		}
		if v, ok := scratchVecs.Largest(&s.lease); ok {
			v.Reuse(s.scratch.Cols[c].Kind)
			s.scratch.Cols[c] = v
		}
	}
	s.sel = freelist.Int32s.Draw(&s.lease, 4*BatchSize)
	return nil
}

// scratchVecs are the idle vectors of heap scans' scratch batches, of any
// kind: a vector keeps the storage of every layout it decoded, so that
// after a few scans one serves any predicate column without growing.
var scratchVecs = freelist.New(func(v table.ColVec) int64 { return v.MemSize() }, func(v *table.ColVec) { v.Reuse(v.Kind) }, nil)

// NextColBatch fills dst with up to BatchSize rows: stored rows, a page
// possibly straddling two batches, or with predicates the qualifying ones.
func (s *ColHeapScan) NextColBatch(dst *table.ColBatch) (int, error) {
	dst.Reset(s.schema)
	if len(s.Preds) == 0 {
		for dst.N < BatchSize {
			n, err := s.sc.NextBlock(dst, BatchSize-dst.N, s.need)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				break
			}
		}
		return dst.N, nil
	}
	for dst.N < BatchSize {
		lo, hi, err := s.sc.Window(BatchSize)
		if err != nil {
			return 0, err
		}
		if lo == hi {
			break
		}
		s.scratch.Reset(s.schema)
		if err := s.sc.Decode(&s.scratch, lo, hi, s.predCols); err != nil {
			return 0, err
		}
		sel := selectAll(s.Preds, s.scratch.Cols, 0, hi-lo, &s.sel)
		next := hi
		if room := BatchSize - dst.N; len(sel) > room {
			sel = sel[:room]
			next = lo + int(sel[room-1]) + 1
		}
		if len(sel) > 0 {
			if err := s.sc.Gather(dst, lo, sel, s.need); err != nil {
				return 0, err
			}
		}
		s.sc.Seek(next)
	}
	return dst.N, nil
}

// Close releases the scanner's pinned page or extent and gives the
// scratch batch back.
func (s *ColHeapScan) Close() error {
	if s.sc != nil {
		s.sc.Close()
		s.sc = nil
	}
	if s.sel != nil {
		for c, pred := range s.predCols {
			if v := &s.scratch.Cols[c]; pred {
				scratchVecs.Put(&s.lease, *v)
				*v = table.ColVec{Kind: v.Kind}
			}
		}
		freelist.Int32s.Put(&s.lease, s.sel)
		s.sel = nil
	}
	return nil
}

// ColProject selects input columns by index without copying them: it pulls
// its input into a batch of its own and moves each selected column's
// vector into the output batch, swapping vector headers, so that the
// output's previous storage becomes the input's next fill. A backing array
// thus has one holder at a time, and a projection costs a few header swaps
// per batch; a column the index map names twice is moved once and copied
// once. The output shares the input's selection vector, which the input's
// producer owns.
type ColProject struct {
	In    ColOperator
	idx   []int
	first []int // first[i]: the first output column projecting idx[i]
	out   *table.Schema
	in    *table.ColBatch
}

// NewColProject projects in onto its columns idx. out describes the output
// columns — the input's own metadata when nil, a relabelling of them (the
// planner's occurrence rename) otherwise.
func NewColProject(in ColOperator, idx []int, out *table.Schema) (*ColProject, error) {
	is := in.Schema()
	for _, j := range idx {
		if j < 0 || j >= is.Len() {
			return nil, fmt.Errorf("engine: projection references column %d of a %d-column input", j, is.Len())
		}
	}
	if out == nil {
		out = is.Project(idx)
	} else if out.Len() != len(idx) {
		return nil, fmt.Errorf("engine: projection schema/column arity mismatch: %d vs %d", out.Len(), len(idx))
	}
	first := make([]int, len(idx))
	for i, j := range idx {
		first[i] = slices.Index(idx, j)
	}
	return &ColProject{In: in, idx: idx, first: first, out: out}, nil
}

// NewColumnProject projects the named input columns, keeping their column
// metadata.
func NewColumnProject(in ColOperator, names []string) (*ColProject, error) {
	is := in.Schema()
	idx := make([]int, len(names))
	for i, n := range names {
		if idx[i] = is.ColIndex(n); idx[i] < 0 {
			return nil, fmt.Errorf("engine: projection references unknown column %q in %v", n, is.Names())
		}
	}
	return NewColProject(in, idx, nil)
}

// Schema returns the output schema.
func (p *ColProject) Schema() *table.Schema { return p.out }

// Open opens the input and draws the input batch; a re-Open gives the
// previous one back first.
func (p *ColProject) Open() error {
	recyclePull(p.in)
	p.in = nil
	if err := p.In.Open(); err != nil {
		return err
	}
	p.in = drawPull(p.In.Schema())
	return nil
}

// NextColBatch pulls one input batch and moves the selected columns into
// dst.
func (p *ColProject) NextColBatch(dst *table.ColBatch) (int, error) {
	n, err := p.In.NextColBatch(p.in)
	if err != nil || n == 0 {
		return 0, err
	}
	dst.Schema = p.out
	dst.N = p.in.N
	dst.Sel = p.in.Sel
	if len(dst.Cols) != len(p.idx) {
		dst.Cols = make([]table.ColVec, len(p.idx))
	}
	for i, j := range p.idx {
		if f := p.first[i]; f < i {
			dst.Cols[i].CopyOf(&dst.Cols[f], dst.N)
			continue
		}
		dst.Cols[i], p.in.Cols[j] = p.in.Cols[j], dst.Cols[i]
	}
	return n, nil
}

// Close closes the input and gives the input batch back.
func (p *ColProject) Close() error {
	recyclePull(p.in)
	p.in = nil
	return p.In.Close()
}

// pruneCols pushes column liveness down a columnar tree to its scans: a
// ColProject only reads the input columns its index map names, so any column
// it drops need never be decoded off the page or copied out of a chunk; a
// scan evaluates its own predicates' columns whether or not they are read. need[i]=true marks output
// column i as read by the consumer; nil means all are. Joins (and any root
// consumer) read every column of their inputs, so pruning restarts at nil
// below them.
func pruneCols(op ColOperator, need []bool) {
	switch o := op.(type) {
	case *ColCounted:
		pruneCols(o.In, need)
	case *ColProject:
		childNeed := make([]bool, o.In.Schema().Len())
		for i, j := range o.idx {
			if need == nil || need[i] {
				childNeed[j] = true
			}
		}
		pruneCols(o.In, childNeed)
	case *ColHeapScan:
		o.need = need
	case *ColChunkScan:
		o.need = need
	case *ColHashJoin:
		pruneCols(o.Left, nil)
		pruneCols(o.Right, nil)
	}
}
