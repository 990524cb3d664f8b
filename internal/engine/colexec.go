package engine

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/table"
)

// This file is the executor's operator set: operators that move
// table.ColBatch column vectors, in the MonetDB/X100 vectorized tradition.
// Scan, filter and project run as tight per-column loops over typed slices
// with a selection vector, paying one interface call per batch instead of
// per-row Value unboxing; the hash join lives in coljoin.go. Hashes via
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
// (conf.Source.Chunks) — one chunk per call, copied column-wise into the
// consumer's batch (ColBatch.AppendBatchCols). The chunks are only read, so
// they may be scanned any number of times.
type ColChunkScan struct {
	S      *table.Schema
	Chunks []*table.ColBatch
	pos    int
	// need marks the columns some consumer actually reads (nil = all); only
	// those are copied. Set by pruneCols; a pruned column's vector stays
	// empty, as a ColHeapScan's does.
	need []bool
}

// Schema returns the chunks' schema.
func (s *ColChunkScan) Schema() *table.Schema { return s.S }

// Open resets the cursor.
func (s *ColChunkScan) Open() error { s.pos = 0; return nil }

// NextColBatch copies the next non-empty chunk onto dst.
func (s *ColChunkScan) NextColBatch(dst *table.ColBatch) (int, error) {
	dst.Reset(s.S)
	for dst.N == 0 && s.pos < len(s.Chunks) {
		c := s.Chunks[s.pos]
		s.pos++
		dst.AppendBatchCols(c, 0, c.Rows(), s.need)
	}
	return dst.N, nil
}

// Close is a no-op.
func (s *ColChunkScan) Close() error { return nil }

// ColHeapScan iterates a heap file straight into column vectors: each page's
// minipages are decoded onto the destination columns a vector at a time
// (storage.Scanner.NextBlock), without ever materializing a row tuple.
// String cells move as raw bytes into the flat layout, with no per-row
// string allocation. A stored column that is neither all NULL nor of its
// schema column's kind fails the scan: the heap file is where rows enter
// the engine from outside.
type ColHeapScan struct {
	File   *storage.HeapFile
	Pool   *storage.BufferPool
	schema *table.Schema
	sc     *storage.Scanner
	// need marks the columns some consumer actually reads (nil = all).
	// Dead columns' minipages are skipped by offset, never read. Set by
	// pruneCols; a pruned column's vector stays empty, so a consumer
	// reading it by mistake fails loudly on the bounds check rather than
	// seeing stale data.
	need []bool
}

// NewColHeapScan builds a columnar scan over a heap file whose tuples
// conform to schema.
func NewColHeapScan(f *storage.HeapFile, pool *storage.BufferPool, schema *table.Schema) *ColHeapScan {
	return &ColHeapScan{File: f, Pool: pool, schema: schema}
}

// Schema returns the declared schema.
func (s *ColHeapScan) Schema() *table.Schema { return s.schema }

// Open positions a fresh scanner.
func (s *ColHeapScan) Open() error {
	s.sc = s.File.NewScanner(s.Pool)
	return nil
}

// NextColBatch decodes up to BatchSize stored rows onto dst's columns; a
// page may straddle two batches.
func (s *ColHeapScan) NextColBatch(dst *table.ColBatch) (int, error) {
	dst.Reset(s.schema)
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

// Close releases the scanner's pinned page.
func (s *ColHeapScan) Close() error {
	if s.sc != nil {
		s.sc.Close()
		s.sc = nil
	}
	return nil
}

// ColPred is one column-vs-constant comparison, cell op Val under
// table.Compare semantics: the only predicate shape the planner emits for
// selections.
type ColPred struct {
	Col int
	Op  CmpOp
	Val table.Value
}

// ColFilter qualifies the rows satisfying every predicate of Preds by
// narrowing the batch's selection vector — a tight loop per predicate
// column, no cell ever moves. Null-free int and float columns compared
// against a constant of the same kind run as direct typed loops; everything
// else goes through ColVec.CompareValue, which matches table.Compare
// exactly.
type ColFilter struct {
	In    ColOperator
	Preds []ColPred
}

// Schema returns the input schema.
func (f *ColFilter) Schema() *table.Schema { return f.In.Schema() }

// Open opens the input.
func (f *ColFilter) Open() error { return f.In.Open() }

// NextColBatch pulls input batches into dst and applies the predicates,
// skipping batches that qualify no rows.
func (f *ColFilter) NextColBatch(dst *table.ColBatch) (int, error) {
	for {
		n, err := f.In.NextColBatch(dst)
		if err != nil || n == 0 {
			return 0, err
		}
		for _, p := range f.Preds {
			f.apply(dst, p)
			if dst.Rows() == 0 {
				break
			}
		}
		if live := dst.Rows(); live > 0 {
			return live, nil
		}
	}
}

// apply narrows dst.Sel to the rows satisfying p. The new selection is
// written into the batch's reusable selection storage; when dst.Sel already
// aliases it (a prior predicate this batch), the in-place compaction is safe
// because the write index never passes the read index.
func (f *ColFilter) apply(dst *table.ColBatch, p ColPred) {
	v := &dst.Cols[p.Col]
	sel := dst.SelBuf(dst.Rows())
	k := 0
	direct := len(v.Nulls) == 0
	switch {
	case direct && v.Kind == table.KindInt && p.Val.Kind == table.KindInt:
		c := p.Val.I
		if dst.Sel == nil {
			for i, x := range v.Ints[:dst.N] {
				if p.Op.Holds(cmpI64(x, c)) {
					sel[k] = int32(i)
					k++
				}
			}
		} else {
			for _, row := range dst.Sel {
				if p.Op.Holds(cmpI64(v.Ints[row], c)) {
					sel[k] = row
					k++
				}
			}
		}
	case direct && v.Kind == table.KindFloat && p.Val.Kind == table.KindFloat:
		c := p.Val.F
		if dst.Sel == nil {
			for i, x := range v.Floats[:dst.N] {
				if p.Op.Holds(cmpF64(x, c)) {
					sel[k] = int32(i)
					k++
				}
			}
		} else {
			for _, row := range dst.Sel {
				if p.Op.Holds(cmpF64(v.Floats[row], c)) {
					sel[k] = row
					k++
				}
			}
		}
	default:
		if dst.Sel == nil {
			for i := 0; i < dst.N; i++ {
				if p.Op.Holds(v.CompareValue(i, p.Val)) {
					sel[k] = int32(i)
					k++
				}
			}
		} else {
			for _, row := range dst.Sel {
				if p.Op.Holds(v.CompareValue(int(row), p.Val)) {
					sel[k] = row
					k++
				}
			}
		}
	}
	dst.Sel = sel[:k]
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Close closes the input.
func (f *ColFilter) Close() error { return f.In.Close() }

// ColProject selects input columns by index with zero copies: the output
// batch shares the input's column storage and selection vector (shallow
// ColVec headers), so a column projection costs a few struct assignments per
// batch. The produced batch is a read-only view — downstream operators only
// narrow their own selection storage or read cells, never mutate columns.
type ColProject struct {
	In  ColOperator
	idx []int
	out *table.Schema
	in  *table.ColBatch
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
	return &ColProject{In: in, idx: idx, out: out}, nil
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

// Open opens the input and shapes the internal batch.
func (p *ColProject) Open() error {
	if err := p.In.Open(); err != nil {
		return err
	}
	p.in = table.NewColBatch(p.In.Schema())
	return nil
}

// NextColBatch pulls one input batch and re-exposes the selected columns.
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
		dst.Cols[i] = p.in.Cols[j]
	}
	return n, nil
}

// Close closes the input.
func (p *ColProject) Close() error { return p.In.Close() }

// pruneCols pushes column liveness down a columnar tree to its scans: a
// ColProject only reads the input columns its index map names, so any column
// it drops — net of the filter predicates evaluated below it — need never be
// decoded off the page or copied out of a chunk. need[i]=true marks output
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
	case *ColFilter:
		if need == nil {
			pruneCols(o.In, nil)
			return
		}
		childNeed := make([]bool, len(need))
		copy(childNeed, need)
		for _, p := range o.Preds {
			childNeed[p.Col] = true
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
