// Package table is a fixture stub of repro/internal/table: just enough
// surface (Tuple, Slab) for the batchalias fixtures to typecheck. The
// analyzers match the type by package-path suffix, so this stub stands in
// for the real package.
package table

type Value struct{ S string }

type Tuple []Value

func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

type Slab struct{ buf []Value }

func (s *Slab) Clone(t Tuple) Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Columnar stubs: just enough ColBatch/ColVec surface for the NextColBatch
// fixtures to typecheck.
type ColVec struct {
	Ints  []int64
	Bytes []byte
}

type ColBatch struct {
	N    int
	Sel  []int32
	Cols []ColVec
}

func (b *ColBatch) HashInto(idx []int, dst []uint64) []uint64 { return dst }

func (b *ColBatch) WriteRow(i int, dst Tuple) {}

func (b *ColBatch) AppendRow(t Tuple) {}
