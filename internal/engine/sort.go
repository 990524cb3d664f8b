package engine

import (
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/table"
)

// SortSpec names the columns to order by, in priority order. All sorts are
// ascending; the confidence operator only needs grouping, not direction.
type SortSpec struct {
	Cols []int
}

// Sort materializes and orders its input using the external sorter, so that
// inputs beyond the memory budget spill to disk. The paper's lazy plans are
// dominated by exactly this step: "the time needed ... to compute and store
// on disk the answer tuples ... ordered as required by our operator" (§VII).
type Sort struct {
	In     Operator
	Spec   SortSpec
	Budget int             // tuples held in memory; 0 = storage.DefaultSortBudget
	TmpDir string          // "" = os.TempDir()
	Mem    *fault.Governor // optional memory governor: spill earlier under pressure

	sortedStream
	spills int
}

// NewSort builds a sort operator.
func NewSort(in Operator, spec SortSpec) *Sort { return &Sort{In: in, Spec: spec} }

// Schema returns the input schema.
func (s *Sort) Schema() *table.Schema { return s.In.Schema() }

// Spills reports how many runs the last Open spilled to disk.
func (s *Sort) Spills() int { return s.spills }

// Open drains the input, batch by batch, into the sorter, which copies the
// rows into its run buffer.
func (s *Sort) Open() error {
	if err := s.In.Open(); err != nil {
		return err
	}
	sorter := storage.NewKeySorter(s.Spec.Cols, s.Budget, s.TmpDir)
	sorter.Govern(s.Mem)
	if err := pumpRows(s.In, sorter.AddRows); err != nil {
		s.In.Close()
		sorter.Discard()
		return err
	}
	if err := s.In.Close(); err != nil {
		sorter.Discard()
		return err
	}
	it, err := sorter.Finish()
	if err != nil {
		return err
	}
	s.it = it
	s.spills = sorter.Spills()
	return nil
}

// sortedStream is a finished sorter's output as the streaming half of an
// operator — what Sort and the grace join's pre-sorted build side share.
type sortedStream struct {
	it storage.TupleIterator
}

// NextBatch streams tuples in sorted order; batches are stable (see
// StableTuples).
func (s *sortedStream) NextBatch(dst []table.Tuple) (int, error) {
	n := 0
	for s.it != nil && n < len(dst) {
		t, ok, err := s.it.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		dst[n] = t
		n++
	}
	return n, nil
}

// StableTuples: the iterator comes from the sorter's stable mode
// (ExternalSorter.Finish, not FinishBorrowed) — an unspilled sort writes its
// rows into slab blocks, a spilled one decodes its runs into arena blocks,
// and neither is ever reused — so consumers may retain sorted tuples without
// cloning.
func (s *sortedStream) StableTuples() bool { return true }

// Close releases the sorted stream (removing any spill files).
func (s *sortedStream) Close() error {
	if s.it == nil {
		return nil
	}
	err := s.it.Close()
	s.it = nil
	return err
}
