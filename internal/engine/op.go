package engine

import (
	"repro/internal/table"
)

// Operator is the row protocol of the grace join's cold path (external
// Sort, MergeJoin, ColToRows). Open prepares the pipeline, NextBatch fills
// dst[:n] with up to len(dst) tuples and returns n, Close releases
// resources. n == 0 means the stream is exhausted (a non-empty stream never
// returns an empty batch early). The returned tuples may alias internal
// buffers: they remain valid until the next NextBatch call on the operator
// unless it promises StableTuples, so consumers that retain tuples across
// batches must clone them through a table.Slab or Cursor.Keep (the
// batchalias analyzer enforces it). Consumers that need one tuple at a time
// read through a Cursor. A failed Open leaves the operator fully closed,
// children included: callers do not Close a tree whose Open errored.
type Operator interface {
	Schema() *table.Schema
	Open() error
	NextBatch(dst []table.Tuple) (int, error)
	Close() error
}

// MemScan iterates an in-memory relation as rows.
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
