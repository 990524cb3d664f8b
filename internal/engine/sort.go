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

	it     storage.TupleIterator
	spills int
}

// NewSort builds a sort operator.
func NewSort(in Operator, spec SortSpec) *Sort { return &Sort{In: in, Spec: spec} }

// Schema returns the input schema.
func (s *Sort) Schema() *table.Schema { return s.In.Schema() }

// Spills reports how many runs the last Open spilled to disk.
func (s *Sort) Spills() int { return s.spills }

// Open drains and sorts the input, batch by batch. Tuples from stable
// inputs feed the sorter directly; everything else is cloned through a slab
// (one allocation per ~4k values instead of one per tuple).
func (s *Sort) Open() error {
	if err := s.In.Open(); err != nil {
		return err
	}
	sorter := storage.NewKeySorter(s.Spec.Cols, s.Budget, s.TmpDir)
	sorter.Govern(s.Mem)
	if err := drainEach(s.In, sorter.Add); err != nil {
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

// Next yields tuples in sorted order.
func (s *Sort) Next() (table.Tuple, bool, error) {
	if s.it == nil {
		return nil, false, nil
	}
	return s.it.Next()
}

// NextBatch streams sorted tuples; batches are stable (see StableTuples).
func (s *Sort) NextBatch(dst []table.Tuple) (int, error) {
	if s.it == nil {
		return 0, nil
	}
	return fillBatch(dst, func(int) (table.Tuple, bool, error) { return s.it.Next() })
}

// StableTuples: Open takes the sorter's stable iterator (ExternalSorter.
// Finish, not FinishBorrowed) — an unspilled sort hands out the buffered
// input tuples, a spilled one decodes its runs into arena blocks that are
// never reused — so consumers may retain sorted tuples without cloning.
func (s *Sort) StableTuples() bool { return true }

// Close releases the sorted stream (removing any spill files).
func (s *Sort) Close() error {
	if s.it == nil {
		return nil
	}
	err := s.it.Close()
	s.it = nil
	return err
}
