package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/freelist"
	"repro/internal/table"
)

// TupleCompare orders two tuples; negative/zero/positive like bytes.Compare.
type TupleCompare func(a, b table.Tuple) int

// TupleIterator is a comparator sort's sorted stream (Finish). Next lends
// its tuple: it is valid until the next Next, which may write the following
// tuple over it, so a consumer copies what it keeps. A key sort's stream is
// SortedBatches.
type TupleIterator interface {
	Next() (table.Tuple, bool, error)
	Close() error
}

// ExternalSorter sorts an unbounded tuple stream under a bounded in-memory
// budget: it accumulates tuples, sorts and spills full buffers as sorted
// runs (heap files), and merges the runs with a stable k-way heap merge
// (ties go to the earlier run) into one sorted stream. This is the sort
// that feeds the paper's confidence operator, which requires its input
// "sorted by the data columns followed by the variable columns in preorder
// of the 1scanTree" (§V.C).
//
// A key sorter (NewKeySorter) orders by normalized byte keys (sortkey.go)
// and copies the live rows of every column batch it is given (AddBatch)
// into its run buffer, a column batch of the sort's schema
// holding at most budget rows, which every run of the sort reuses, so its
// memory is bounded by the budget, not by the input. The run buffer, key
// arena and sort entries outlive the sort: an ungoverned sorter draws them
// from the engine's free list (internal/freelist, through sortbuf.go) and
// gives them back when it is done, so a sort regrows only past what
// earlier sorts grew to; a governed one (Govern) bypasses the free list
// and grows from nothing. The sort columns are
// encoded once, from the buffer's column vectors, and a run is sorted as
// 16-byte entries on an 8-byte key prefix; the rows never move, and a
// spilled run's records are encoded from the same vectors. Its rows
// must fit the schema (one kind per column, table.Schema.Check), which is
// what makes the key order CompareOn's. It finishes into column batches
// (FinishBatches). A comparator sorter (NewExternalSorter) drives the same
// machinery from a TupleCompare over the tuples it is given, which must stay
// unmodified until the sort's iterator is closed, and finishes into a
// stream of lent tuples (Finish).
type ExternalSorter struct {
	cmp       TupleCompare // nil while sorting by key
	cols      []int        // key sorter: the sort columns
	budget    int          // max tuples held in memory before spilling
	tmpDir    string
	runs      []*HeapFile
	runWriter *pageWriter // what every run is written through
	spills    int
	spillSize int64
	finished  bool
	seq       int
	tmpPrefix string
	rows      int64 // rows added over the whole sort

	// Comparator state: the run's tuples and the bytes of the values they
	// hold.
	buf  []table.Tuple
	held int64

	// Key-sorter state, reused across the runs of one sort.
	sortBufs
	rowCap int // rows the buffers take before they must grow

	mem         *fault.Governor // optional memory governor (nil = ungoverned)
	memReserved int64           // bytes currently reserved with mem
	earlySpills int             // spills forced by governor pressure
}

// keyEntry is what run generation sorts in place of a row.
type keyEntry struct {
	prefix uint64 // the key's bytes at the run's first 8 varying positions
	idx    uint32 // row of the run buffer: arrival order, the stability tie-break
}

// keyEntryMem is the per-row footprint of a key sorter's bookkeeping: the
// entry, its slot in the radix sort's second buffer, and the key offset.
const keyEntryMem = 16 + 16 + 4

// tupleMem and valueMem are what a comparator sort holds per buffered tuple
// and per value of it: the slice header and the table.Value.
const tupleMem, valueMem = 24, 40

// maxKeyArena caps the key bytes of one run so that offs fits uint32: a run
// that reaches it spills as if the tuple budget were full.
const maxKeyArena = 1 << 30

// memChunk is the reservation granularity of a governed sorter: what its
// buffers hold is charged to the governor in chunks this large, so the
// atomic traffic stays off the per-tuple path.
const memChunk = 64 << 10

// minRunCap is the row capacity a key sorter's buffers start at; a run
// shorter than this is never spilled on account of the governor.
const minRunCap = 64

// DefaultSortBudget is the default number of tuples buffered in memory.
const DefaultSortBudget = 1 << 16

// sorterID distinguishes the spill files of concurrent sorters within one
// process — conf's per-worker feed runs one sort per worker — where a
// pid-only prefix would make them truncate each other's runs.
var sorterID atomic.Int64

// NewExternalSorter creates a comparator sorter. budget <= 0 selects
// DefaultSortBudget; tmpDir == "" selects os.TempDir(). In-tree callers
// sort by columns and use NewKeySorter.
func NewExternalSorter(cmp TupleCompare, budget int, tmpDir string) *ExternalSorter {
	s := newSorter(budget, tmpDir)
	s.cmp = cmp
	return s
}

// NewKeySorter creates a sorter ordering rows of the given schema like
// table.CompareOn over cols, through normalized byte keys. budget and
// tmpDir as for NewExternalSorter.
func NewKeySorter(schema *table.Schema, cols []int, budget int, tmpDir string) *ExternalSorter {
	s := newSorter(budget, tmpDir)
	s.cols = cols
	s.run.Reset(schema)
	return s
}

func newSorter(budget int, tmpDir string) *ExternalSorter {
	if budget <= 0 {
		budget = DefaultSortBudget
	}
	if tmpDir == "" {
		tmpDir = os.TempDir()
	}
	return &ExternalSorter{budget: budget, tmpDir: tmpDir,
		tmpPrefix: fmt.Sprintf("sproutsort-%d-%d-", os.Getpid(), sorterID.Add(1))}
}

// Spills reports how many runs were written to disk (0 = pure in-memory sort).
func (s *ExternalSorter) Spills() int { return s.spills }

// SpillBytes reports the bytes written to run files.
func (s *ExternalSorter) SpillBytes() int64 { return s.spillSize }

// Rows reports how many rows have been added.
func (s *ExternalSorter) Rows() int64 { return s.rows }

// Govern attaches a memory governor: what the sorter's buffers hold is
// charged against it in memChunk steps, and a denied reservation forces an
// early spill instead of growing further. Call before the first Add.
func (s *ExternalSorter) Govern(g *fault.Governor) { s.mem = g }

// EarlySpills reports how many runs were spilled because the governor
// denied further buffer growth (a subset of Spills).
func (s *ExternalSorter) EarlySpills() int { return s.earlySpills }

// Add buffers one tuple of a comparator sort, spilling a sorted run when
// the tuple budget is exceeded — or earlier, when the memory governor
// refuses to admit more buffer growth. A key sorter takes its rows through
// AddBatch.
func (s *ExternalSorter) Add(t table.Tuple) error {
	if s.finished {
		return fmt.Errorf("storage: Add after Finish")
	}
	if s.cmp == nil {
		return fmt.Errorf("storage: a key sorter takes rows through AddBatch")
	}
	s.buf = append(s.buf, t)
	s.held += valueMem * int64(len(t))
	s.rows++
	if !s.reserve(tupleMem*int64(cap(s.buf)) + s.held) {
		// Pressure: spill now rather than OOM (a lone tuple cannot shrink).
		if len(s.buf) > 1 || s.memReserved > 0 {
			s.earlySpills++
			return s.spill()
		}
	}
	if len(s.buf) >= s.budget {
		return s.spill()
	}
	return nil
}

// AddBatch adds the live rows of a column batch of the key sorter's
// schema, in order, copying them column-wise: nothing of b is kept. A batch
// that straddles the tuple budget is split there, so the runs do not depend
// on how the input is cut into batches.
func (s *ExternalSorter) AddBatch(b *table.ColBatch) error {
	if s.finished {
		return fmt.Errorf("storage: Add after Finish")
	}
	for lo, n := 0, b.Rows(); lo < n; {
		k, err := s.room(n - lo)
		if err != nil {
			return err
		}
		s.run.AppendBatch(b, lo, lo+k)
		if err := s.appended(); err != nil {
			return err
		}
		lo += k
	}
	return nil
}

// room returns how many of want more rows the run buffer takes now — at
// least one — growing it when it is full, and spilling the run first when
// it cannot grow: the governor denied the growth, so the run is short of
// the tuple budget (an early spill).
func (s *ExternalSorter) room(want int) (int, error) {
	if s.run.N == s.rowCap && !s.grow(want) {
		s.earlySpills++
		if err := s.spill(); err != nil {
			return 0, err
		}
	}
	return min(want, s.rowCap-s.run.N), nil
}

// grow raises the run buffer's row capacity: doubling, from minRunCap (or a
// first batch) up to the tuple budget, so that every later run of the sort
// reuses the buffers. The key arena follows at the key length seen so far.
// An ungoverned sorter draws its buffers from the free list at the first
// grow, and they grow only past what the draw handed over. Under a
// governor the growth is reserved first, at the bytes per row the buffers
// hold now; grow reports false, and leaves the buffers alone, when that
// reservation is denied.
func (s *ExternalSorter) grow(want int) bool {
	n := s.run.N
	if s.mem == nil && !s.pooled {
		s.draw()
	}
	newCap := min(max(2*s.rowCap, n+want, minRunCap), s.budget)
	if s.mem != nil && n > 0 && !s.reserve(s.footprint()/int64(n)*int64(newCap)) {
		return false
	}
	s.run.Reserve(newCap)
	if n > 0 {
		perKey := len(s.keys)/n + 1
		s.keys = slices.Grow(s.keys, max(newCap*(perKey+perKey/8)+keySlack-len(s.keys), 0))
	}
	s.offs = slices.Grow(s.offs, newCap+1-len(s.offs))
	s.rowCap = newCap
	return true
}

// footprint is what a key sorter's buffers hold, bookkeeping of the coming
// sort included.
func (s *ExternalSorter) footprint() int64 {
	return s.run.MemSize() + int64(cap(s.keys)) + keyEntryMem*int64(cap(s.offs))
}

// reserve raises the governor reservation to cover total bytes, in memChunk
// steps; false means the governor denied it.
func (s *ExternalSorter) reserve(total int64) bool {
	if s.mem == nil || total <= s.memReserved {
		return true
	}
	need := (total - s.memReserved + memChunk - 1) / memChunk * memChunk
	if !s.mem.TryReserve(need) {
		return false
	}
	s.memReserved += need
	return true
}

// releaseMem returns the buffer reservation to the governor.
func (s *ExternalSorter) releaseMem() {
	if s.memReserved > 0 {
		s.mem.Release(s.memReserved)
		s.memReserved = 0
	}
}

// appended finishes an append to the run buffer: it encodes the keys of the
// rows that have none yet, trues the governor's reservation up to what the
// buffers hold now, and spills the run once it is full.
func (s *ExternalSorter) appended() error {
	if len(s.offs) == 0 { // first rows of a run: restart the key arena
		s.keys, s.offs = s.keys[:0], append(s.offs, 0)
	}
	from := len(s.offs) - 1
	s.rows += int64(s.run.N - from)
	for row := from; row < s.run.N; row++ {
		s.keys = AppendColSortKey(s.keys, &s.run, row, s.cols)
		s.offs = append(s.offs, uint32(len(s.keys)))
	}
	if s.mem != nil && !s.reserve(s.footprint()) && (s.run.N >= minRunCap || s.memReserved > 0) {
		// The buffers outgrew what the governor admits (their first batch,
		// or an arena past its estimate): spill what they hold and give
		// them back, so that the next run starts from nothing.
		s.earlySpills++
		if err := s.spill(); err != nil {
			return err
		}
		s.dropRun()
		s.releaseMem()
		return nil
	}
	if s.run.N >= s.budget || len(s.keys) > maxKeyArena {
		return s.spill()
	}
	return nil
}

// dropRun gives the run buffer and its bookkeeping back — to the free list
// when they came from it, else to the collector — leaving an empty run
// buffer of the sort's schema.
func (s *ExternalSorter) dropRun() {
	schema := s.run.Schema
	s.release()
	s.rowCap = 0
	if schema != nil {
		s.run.Reset(schema)
	}
}

// sortRun sorts the run buffer and returns its rows' order, equal rows in
// arrival order: one entry per row is sorted, the rows stay where they are.
//
// A fixed leading-8-byte prefix would tie on nearly every comparison: the
// leading bytes are the group columns, which repeat, and the high bytes of
// small integers are constant (on TPC-H q1 the first 8 key bytes are two
// one-letter flags with their tags and terminators). So the prefix gathers
// the key bytes at the first 8 positions where the run's keys differ at
// all. Every key agrees with every other on the skipped positions, so
// comparing the gathered bytes equals comparing the keys up to the last
// gathered position; a prefix tie is settled by the key bytes after it.
func (s *ExternalSorter) sortRun() []keyEntry {
	n := s.run.N
	if cap(s.ents) < n {
		s.ents = make([]keyEntry, n)
	}
	ents := s.ents[:n]
	if n < 2 {
		clear(ents)
		return ents
	}
	s.keys = append(s.keys, make([]byte, keySlack)...)
	keys, offs := s.keys, s.offs
	pos, lim := prefixPositions(keys, offs)
	for i := range ents {
		k := keys[offs[i]:]
		var prefix uint64
		for j, p := range pos {
			prefix |= uint64(k[p]) << (56 - 8*j)
		}
		ents[i] = keyEntry{prefix: prefix, idx: uint32(i)}
	}
	tail := uint32(lim) // bytes before it are settled by the prefix
	byKey := func(a, b keyEntry) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		ka := keys[offs[a.idx]+tail : offs[a.idx+1]]
		kb := keys[offs[b.idx]+tail : offs[b.idx+1]]
		if c := bytes.Compare(ka, kb); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	}
	if n < radixMin {
		slices.SortFunc(ents, byKey)
		return ents
	}
	// The gathered prefix is dense, so a byte-wise radix sort on it does
	// most of the ordering; only entries sharing a whole prefix are left to
	// the comparison sort.
	if cap(s.aux) < n {
		s.aux = make([]keyEntry, n)
	}
	ents = radixSortPrefix(ents, s.aux[:n])
	for i := 0; i < n; {
		j := i + 1
		for j < n && ents[j].prefix == ents[i].prefix {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ents[i:j], byKey)
		}
		i = j
	}
	return ents
}

// maxPrefixScan bounds how far into the keys prefixPositions looks.
const maxPrefixScan = 256

// keySlack is how many zero bytes follow a run's last key, so that
// prefixPositions may load whole words at any position of any key.
const keySlack = 8

// prefixPositions finds the byte positions a run's sort prefix is gathered
// from: the first (at most 8) positions, ascending, at which some key
// differs from the first key. It returns them with lim, the position up to
// which equal prefixes imply equal keys. Only positions every key has, and
// below maxPrefixScan, are considered; if fewer than 8 of them vary, lim is
// that bound, else it is just past the 8th. keys ends in keySlack spare
// bytes.
func prefixPositions(keys []byte, offs []uint32) (pos []int, lim int) {
	n := len(offs) - 1
	lim = maxPrefixScan
	for i := 0; i < n; i++ {
		lim = min(lim, int(offs[i+1]-offs[i]))
	}
	// Keys are examined a word at a time against the first key. found
	// masks the positions already in pos, so a step is a load, an XOR and
	// an AND-NOT unless it discovers a position — which happens a handful
	// of times per run. Once 8 are known, lim drops to just past the last
	// and a nearer find pushes the last one out.
	var found [maxPrefixScan / 8]uint64
	pos = make([]int, 0, 8)
	for i := 1; i < n; i++ {
		k := keys[offs[i]:]
		for w := 0; w*8 < lim; w++ {
			x := binary.LittleEndian.Uint64(k[w*8:]) ^ binary.LittleEndian.Uint64(keys[w*8:])
			for x &^= found[w]; x != 0; {
				p := w*8 + bits.TrailingZeros64(x)/8 // lowest differing position
				if p >= lim {
					break // bytes past lim: another column, or another key
				}
				x &^= 0xFF << (8 * (p % 8))
				found[w] |= 0xFF << (8 * (p % 8))
				if len(pos) < cap(pos) {
					pos = append(pos, p)
				}
				j := len(pos) - 1
				for ; j > 0 && pos[j-1] > p; j-- {
					pos[j] = pos[j-1]
				}
				pos[j] = p
				if len(pos) == cap(pos) {
					lim = pos[len(pos)-1] + 1
				}
			}
		}
	}
	return pos, lim
}

// radixMin is the run length from which sortByKey radix-sorts the prefixes
// before comparing; below it the histogram costs more than it saves.
const radixMin = 256

// radixSortPrefix orders ents by prefix with stable least-significant-byte-
// first counting passes between ents and aux, skipping bytes on which all
// prefixes agree, and returns whichever of the two holds the result.
func radixSortPrefix(ents, aux []keyEntry) []keyEntry {
	var count [8][256]uint32
	for i := range ents {
		p := ents[i].prefix
		for b := range count {
			count[b][byte(p>>(8*b))]++
		}
	}
	for b := range count {
		c := &count[b]
		if c[byte(ents[0].prefix>>(8*b))] == uint32(len(ents)) {
			continue
		}
		sum := uint32(0)
		for v, k := range c {
			c[v], sum = sum, sum+k
		}
		for _, e := range ents {
			d := byte(e.prefix >> (8 * b))
			aux[c[d]] = e
			c[d]++
		}
		ents, aux = aux, ents
	}
	return ents
}

// spill sorts the buffered run and writes it to a fresh run file. A key
// sorter's buffers (and their reservation) stay for the next run.
func (s *ExternalSorter) spill() error {
	path := filepath.Join(s.tmpDir, fmt.Sprintf("%srun%d.heap", s.tmpPrefix, s.seq))
	s.seq++
	if s.runWriter == nil {
		s.runWriter = new(pageWriter)
	}
	run, err := createHeapFile(path, s.runWriter)
	if err != nil {
		return err
	}
	if s.cmp != nil {
		slices.SortStableFunc(s.buf, s.cmp)
		for _, t := range s.buf {
			if err = run.Append(t); err != nil {
				break
			}
		}
	} else {
		// The sorted permutation, a selection's worth at a time: the run
		// buffer's rows are gathered in that order column by column.
		ents := s.sortRun()
		s.sel = slices.Grow(s.sel[:0], table.BatchSize)
		for lo := 0; lo < len(ents) && err == nil; lo += cap(s.sel) {
			order := s.sel[:0]
			for _, e := range ents[lo:min(lo+cap(s.sel), len(ents))] {
				order = append(order, int32(e.idx))
			}
			err = run.AppendBatch(&s.run, order)
		}
	}
	if err == nil {
		err = run.FinishWrites()
	}
	if err != nil {
		run.Remove()
		return err
	}
	s.runs = append(s.runs, run)
	s.spills++
	s.spillSize += run.NumPages() * PageSize
	if s.cmp != nil {
		s.buf, s.held = s.buf[:0], 0
		s.releaseMem()
	} else {
		s.run.Reset(s.run.Schema)
		s.offs = s.offs[:0]
	}
	return nil
}

// Finish completes a comparator sort and returns an iterator over the
// sorted stream, which lends its tuples (see TupleIterator): the sorted
// buffer's tuples, or a merge of the spilled runs that decodes each run into
// one reused buffer. A key sort finishes with FinishBatches instead. The
// iterator's Close removes any temp runs; when Finish itself fails, the runs
// spilled so far are removed before returning.
func (s *ExternalSorter) Finish() (TupleIterator, error) {
	if s.cmp == nil {
		return nil, fmt.Errorf("storage: a key sort finishes with FinishBatches")
	}
	runs, err := s.finish()
	if err != nil {
		return nil, err
	}
	if runs == nil {
		slices.SortStableFunc(s.buf, s.cmp)
		return &memIter{rows: s.buf}, nil
	}
	s.buf = nil
	return newMergeIter(runs, s.cmp, nil, nil, false)
}

// FinishBatches completes a key sort and returns its sorted stream, a
// column batch at a time. Its Close removes any temp runs; when
// FinishBatches itself fails, the runs spilled so far are removed before
// returning.
func (s *ExternalSorter) FinishBatches() (*SortedBatches, error) {
	if s.cmp != nil {
		return nil, fmt.Errorf("storage: a comparator sort finishes with Finish")
	}
	schema := s.run.Schema
	runs, err := s.finish()
	if err != nil {
		return nil, err
	}
	if runs == nil {
		out := &SortedBatches{schema: schema, order: s.sortRun(), bufs: s.sortBufs}
		s.sortBufs = sortBufs{} // the stream owns them now
		return out, nil
	}
	s.dropRun()
	m, err := newMergeIter(runs, nil, s.cols, schema, s.mem == nil)
	if err != nil {
		return nil, err
	}
	return &SortedBatches{schema: schema, merge: m}, nil
}

// finish ends the sort's input and releases its governor reservation. A
// sort that spilled writes what its buffer holds as one more run and hands
// the runs over (newMergeIter removes them itself on a failed open, so a
// later Discard cannot double-remove); one that did not returns nil runs,
// its buffer being the whole input.
func (s *ExternalSorter) finish() ([]*HeapFile, error) {
	if s.finished {
		return nil, fmt.Errorf("storage: Finish called twice")
	}
	s.finished = true
	if len(s.runs) > 0 && (len(s.buf) > 0 || s.run.N > 0) {
		if err := s.spill(); err != nil {
			s.Discard()
			return nil, err
		}
	}
	s.releaseMem()
	runs := s.runs
	s.runs = nil
	return runs, nil
}

// Discard removes any spilled runs of a sort that is being abandoned — the
// cleanup hook for error paths that stop feeding the sorter (an Add failure
// mid-stream, a cancelled scan) — and gives its buffers back. Safe to call
// at any time, and more than once; after a successful Finish the iterator
// owns the runs and the buffers, and Discard is a no-op.
func (s *ExternalSorter) Discard() {
	for _, r := range s.runs {
		r.Remove()
	}
	s.runs = nil
	s.finished = true
	s.releaseMem()
	s.release()
}

// memIter iterates a comparator sort's in-memory sorted buffer.
type memIter struct {
	rows []table.Tuple
	pos  int
}

func (m *memIter) Next() (table.Tuple, bool, error) {
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	t := m.rows[m.pos]
	m.pos++
	return t, true, nil
}

func (m *memIter) Close() error { return nil }

// SortedBatches is a finished key sort's output: its rows in key order, a
// column batch at a time. NextColBatch has the engine's ColOperator shape —
// it fills the caller's batch with up to table.BatchSize rows and returns
// how many (0 at the end) — so what it hands out is the caller's, valid
// until the caller refills it. An unspilled sort gathers its run buffer's
// rows column-wise in sorted order (ColBatch.AppendBatch through a
// selection of the sorted entries); a spilled one appends the k-way merge's
// rows. Neither materializes a tuple per row for the consumer.
type SortedBatches struct {
	schema *table.Schema
	bufs   sortBufs   // unspilled: the sorter's buffers, the run among them
	order  []keyEntry // unspilled: the run's rows in key order
	pos    int        // entries of order handed out so far
	merge  *mergeIter // spilled: the merge of the runs
}

// Schema is the schema of the sorted rows.
func (it *SortedBatches) Schema() *table.Schema { return it.schema }

// NextColBatch fills dst with the next sorted rows.
func (it *SortedBatches) NextColBatch(dst *table.ColBatch) (int, error) {
	dst.Reset(it.schema)
	if it.merge != nil {
		for dst.N < table.BatchSize {
			h, err := it.merge.next()
			if err != nil {
				return 0, err
			}
			if h == nil {
				break
			}
			if dst.N == 0 {
				for c := range dst.Cols {
					if v := &dst.Cols[c]; v.Kind == table.KindString {
						v.Mode = table.StrHeader
					}
				}
				dst.Reserve(table.BatchSize)
			}
			h.appendRow(dst)
		}
		return dst.N, nil
	}
	k := min(table.BatchSize, len(it.order)-it.pos)
	if k <= 0 {
		return 0, nil
	}
	sel := it.bufs.sel[:0] // the next batch's rows, as a selection over the run
	for _, e := range it.order[it.pos : it.pos+k] {
		sel = append(sel, int32(e.idx))
	}
	it.bufs.sel = sel
	it.pos += k
	run := &it.bufs.run
	run.Sel = sel
	for c := range dst.Cols {
		dst.Cols[c].SettleLike(&run.Cols[c])
	}
	dst.Reserve(k)
	dst.AppendBatch(run, 0, k)
	return k, nil
}

// Close releases the stream, removing any spilled runs and giving the
// sorter's buffers back; closing twice is harmless.
func (it *SortedBatches) Close() error {
	it.order = nil
	it.bufs.release()
	if it.merge != nil {
		return it.merge.Close()
	}
	return nil
}

// mergeIter performs a k-way merge over sorted runs: a binary min-heap of
// the runs' head rows, ordered by normalized key (or by the comparator
// when the sorter had one), ties to the earlier run so the merge is stable.
// A key merge decodes each run a page at a time into the run's block and
// keys the head row from its cells (AppendColSortKey), so no tuple is built
// between a run file and the batches it is appended to; a comparator merge
// reads each run's lent tuples (Scanner.Next). The run whose head was
// handed out advances at the start of the following next, so a lent head
// survives exactly until then. A pooled key merge (an ungoverned sort's)
// draws its per-run pages and block vectors from the engine's free list and
// gives them back on Close.
type mergeIter struct {
	cmp     TupleCompare // nil: heads are ordered by key
	cols    []int
	schema  *table.Schema // key merge: the runs' rows
	runs    []*HeapFile
	heads   []mergeHead
	pending bool        // heads[0] was handed out and must advance first
	idle    []mergeHead // heads of exhausted runs, whose buffers go back on Close

	pooled bool // the heads' pages and blocks came off the free list
	lease  freelist.Lease
}

type mergeHead struct {
	scan  *Scanner
	run   int
	t     table.Tuple    // comparator merge: the run's lent head tuple
	page  *Page          // key merge: the page the scanner reads into
	block table.ColBatch // key merge: the run's current page, decoded
	pos   int            // key merge: the head row of block
	key   []byte
	strs  []string // key merge: per string column, the last string handed out
}

// appendRow appends a key merge's head row to dst, column by column. A
// string cell is handed out as a shared header, allocated only when it
// differs from the run's previous string in the column — consecutive rows
// of a sorted run mostly repeat their leading columns — so a consumer that
// keeps the rows (a sort+scan pass's output chunks) shares those strings
// instead of copying bytes.
func (h *mergeHead) appendRow(dst *table.ColBatch) {
	for c := range dst.Cols {
		v, src := &dst.Cols[c], &h.block.Cols[c]
		if v.Kind != table.KindString || src.Null(h.pos) {
			v.AppendCell(dst.N, src, h.pos)
			continue
		}
		if cell := src.Bytes[src.Offs[h.pos]:src.Offs[h.pos+1]]; h.strs[c] != string(cell) {
			h.strs[c] = string(cell)
		}
		v.Strs = append(v.Strs, h.strs[c])
	}
	dst.N++
}

// pageList holds the idle pages of merges.
var pageList = freelist.New(func(*Page) int64 { return PageSize }, func(**Page) {})

func newMergeIter(runs []*HeapFile, cmp TupleCompare, cols []int, schema *table.Schema, pooled bool) (*mergeIter, error) {
	m := &mergeIter{cmp: cmp, cols: cols, schema: schema, runs: runs, heads: make([]mergeHead, 0, len(runs)),
		pooled: pooled && cmp == nil}
	for i, r := range runs {
		h := mergeHead{scan: r.NewScanner(nil), run: i, pos: -1}
		if cmp == nil {
			h.block.Reset(schema)
			h.strs = make([]string, schema.Len())
			if m.pooled {
				h.page, _ = pageList.Largest(&m.lease)
				h.block.Draw(&m.lease, pageRows(schema))
			}
			if h.page == nil {
				h.page = new(Page)
			}
			h.scan.page = h.page
		}
		ok, err := m.advance(&h)
		if err != nil {
			m.idle = append(m.idle, h)
			m.Close()
			return nil, err
		}
		if ok {
			m.heads = append(m.heads, h)
		} else {
			m.idle = append(m.idle, h)
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// pageRows is how many rows of the schema a page holds at most: a
// merge block's size.
func pageRows(schema *table.Schema) int {
	width := 0
	for _, c := range schema.Cols {
		switch c.Kind {
		case table.KindString:
			width += 2
		case table.KindNull:
		default:
			width += 8
		}
	}
	return min(PageSize/max(width, 1), maxPageRows)
}

// advance moves h to its run's next row: the next lent tuple, or the next
// row of the block, decoding the run's next page when the block is used
// up, and keys it.
func (m *mergeIter) advance(h *mergeHead) (bool, error) {
	if m.cmp != nil {
		t, ok, err := h.scan.Next()
		h.t = t
		return ok, err
	}
	if h.pos++; h.pos >= h.block.N {
		h.block.Reset(m.schema)
		h.pos = 0
		if n, err := h.scan.NextBlock(&h.block, maxPageRows, nil); err != nil || n == 0 {
			return false, err
		}
	}
	h.key = AppendColSortKey(h.key[:0], &h.block, h.pos, m.cols)
	return true, nil
}

func (m *mergeIter) less(i, j int) bool {
	a, b := &m.heads[i], &m.heads[j]
	var c int
	if m.cmp != nil {
		c = m.cmp(a.t, b.t)
	} else {
		c = bytes.Compare(a.key, b.key)
	}
	if c != 0 {
		return c < 0
	}
	return a.run < b.run
}

func (m *mergeIter) siftDown(i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(m.heads); c++ {
			if m.less(c, least) {
				least = c
			}
		}
		if least == i {
			return
		}
		m.heads[i], m.heads[least] = m.heads[least], m.heads[i]
		i = least
	}
}

// next returns the head that comes next, nil after the last: its lent
// tuple, or its block's row pos, stays valid until the following call.
func (m *mergeIter) next() (*mergeHead, error) {
	if m.pending {
		ok, err := m.advance(&m.heads[0])
		if err != nil {
			return nil, err
		}
		m.pending = false
		if !ok {
			last := len(m.heads) - 1
			m.idle = append(m.idle, m.heads[0])
			m.heads[0] = m.heads[last]
			m.heads = m.heads[:last]
		}
		m.siftDown(0)
	}
	if len(m.heads) == 0 {
		return nil, nil
	}
	m.pending = true
	return &m.heads[0], nil
}

// Next returns a comparator merge's next tuple, lent until the next call.
func (m *mergeIter) Next() (table.Tuple, bool, error) {
	h, err := m.next()
	if err != nil || h == nil {
		return nil, false, err
	}
	return h.t, true, nil
}

// Close removes the runs and gives the heads' pages and blocks back.
func (m *mergeIter) Close() error {
	var firstErr error
	for _, r := range m.runs {
		if err := r.Remove(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.runs = nil
	if m.pooled {
		for _, hs := range [][]mergeHead{m.heads, m.idle} {
			for i := range hs {
				pageList.Put(&m.lease, hs[i].page)
				hs[i].block.Recycle(&m.lease)
			}
		}
	}
	m.heads, m.idle = nil, nil
	return firstErr
}
