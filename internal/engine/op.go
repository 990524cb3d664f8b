package engine

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/table"
)

// Operator is the row tier's Volcano interface. Open prepares the pipeline,
// NextBatch fills dst[:n] with up to len(dst) tuples and returns n, Close
// releases resources. n == 0 means the stream is exhausted (a non-empty
// stream never returns an empty batch early). The returned tuples may alias
// internal buffers: they remain valid until the next NextBatch call on the
// operator unless it promises StableTuples, so consumers that retain tuples
// across batches must clone them (CollectCtxBatch holds that rule; the
// batchalias analyzer enforces it). Consumers that need one tuple at a time
// read through a Cursor. A failed Open leaves the operator fully closed,
// children included: collectors do not Close a tree whose Open errored.
type Operator interface {
	Schema() *table.Schema
	Open() error
	NextBatch(dst []table.Tuple) (int, error)
	Close() error
}

// MemScan iterates an in-memory relation.
type MemScan struct {
	Rel *table.Relation
	pos int
}

// NewMemScan builds a scan over rel.
func NewMemScan(rel *table.Relation) *MemScan { return &MemScan{Rel: rel} }

// Schema returns the relation's schema.
func (s *MemScan) Schema() *table.Schema { return s.Rel.Schema }

// Open resets the cursor.
func (s *MemScan) Open() error { s.pos = 0; return nil }

// NextBatch copies up to len(dst) row references out of the relation.
func (s *MemScan) NextBatch(dst []table.Tuple) (int, error) {
	n := copy(dst, s.Rel.Rows[s.pos:])
	s.pos += n
	return n, nil
}

// StableTuples: rows are owned by the relation and never overwritten.
func (s *MemScan) StableTuples() bool { return true }

// Close is a no-op.
func (s *MemScan) Close() error { return nil }

// HeapScan iterates a heap file through a buffer pool — the disk-backed
// counterpart of MemScan.
type HeapScan struct {
	File   *storage.HeapFile
	Pool   *storage.BufferPool
	schema *table.Schema
	sc     *storage.Scanner
}

// NewHeapScan builds a scan over a heap file whose tuples conform to schema.
func NewHeapScan(f *storage.HeapFile, pool *storage.BufferPool, schema *table.Schema) *HeapScan {
	return &HeapScan{File: f, Pool: pool, schema: schema}
}

// Schema returns the declared schema.
func (s *HeapScan) Schema() *table.Schema { return s.schema }

// Open positions a fresh scanner.
func (s *HeapScan) Open() error {
	s.sc = s.File.NewScanner(s.Pool)
	return nil
}

// NextBatch decodes up to len(dst) stored tuples.
func (s *HeapScan) NextBatch(dst []table.Tuple) (int, error) {
	n := 0
	for n < len(dst) {
		t, ok, err := s.sc.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if len(t) != s.schema.Len() {
			return 0, fmt.Errorf("engine: heap tuple arity %d != schema arity %d", len(t), s.schema.Len())
		}
		dst[n] = t
		n++
	}
	return n, nil
}

// StableTuples: the scanner decodes into arena storage it never reuses.
func (s *HeapScan) StableTuples() bool { return true }

// Close releases the scanner's pinned page.
func (s *HeapScan) Close() error {
	if s.sc != nil {
		s.sc.Close()
		s.sc = nil
	}
	return nil
}

// Filter passes through tuples satisfying a predicate.
type Filter struct {
	In   Operator
	Pred Pred
}

// NewFilter wraps in with predicate p.
func NewFilter(in Operator, p Pred) *Filter { return &Filter{In: in, Pred: p} }

// Schema returns the input schema.
func (f *Filter) Schema() *table.Schema { return f.In.Schema() }

// Open opens the input.
func (f *Filter) Open() error { return f.In.Open() }

// NextBatch pulls an input batch into dst and compacts the qualifying
// tuples in place — no copies, no allocation.
func (f *Filter) NextBatch(dst []table.Tuple) (int, error) {
	for {
		n, err := f.In.NextBatch(dst)
		if err != nil || n == 0 {
			return 0, err
		}
		k := 0
		for _, t := range dst[:n] {
			if f.Pred.Holds(t) {
				dst[k] = t
				k++
			}
		}
		if k > 0 {
			return k, nil
		}
	}
}

// StableTuples: a filter passes its input's tuples through untouched.
func (f *Filter) StableTuples() bool { return Stable(f.In) }

// Close closes the input.
func (f *Filter) Close() error { return f.In.Close() }

// Project computes output columns from input tuples. Each output column has
// a schema Column and a defining expression.
type Project struct {
	In    Operator
	Exprs []Expr
	Out   *table.Schema
	in    []table.Tuple // reused input batch
	slots slotBufs      // reused per-slot output buffers
}

// NewProject builds a generalized projection.
func NewProject(in Operator, out *table.Schema, exprs []Expr) (*Project, error) {
	if out.Len() != len(exprs) {
		return nil, fmt.Errorf("engine: projection schema/expr arity mismatch: %d vs %d", out.Len(), len(exprs))
	}
	return &Project{In: in, Exprs: exprs, Out: out}, nil
}

// NewColumnProject projects the named input columns (by name), keeping their
// column metadata.
func NewColumnProject(in Operator, names []string) (*Project, error) {
	is := in.Schema()
	idx := make([]int, len(names))
	for i, n := range names {
		j := is.ColIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("engine: projection references unknown column %q in %v", n, is.Names())
		}
		idx[i] = j
	}
	exprs := make([]Expr, len(idx))
	for i, j := range idx {
		exprs[i] = ColRef{Idx: j, Name: is.Cols[j].Name}
	}
	return &Project{In: in, Exprs: exprs, Out: is.Project(idx)}, nil
}

// Schema returns the output schema.
func (p *Project) Schema() *table.Schema { return p.Out }

// Open opens the input.
func (p *Project) Open() error { return p.In.Open() }

// NextBatch evaluates the projection into reused per-slot buffers.
func (p *Project) NextBatch(dst []table.Tuple) (int, error) {
	p.in = batchScratch(p.in, len(dst))
	n, err := p.In.NextBatch(p.in)
	if err != nil || n == 0 {
		return 0, err
	}
	for i, t := range p.in[:n] {
		buf := p.slots.slot(i, len(p.Exprs))
		for k, e := range p.Exprs {
			buf[k] = e.Eval(t)
		}
		dst[i] = buf
	}
	return n, nil
}

// Close closes the input.
func (p *Project) Close() error { return p.In.Close() }
