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
	"repro/internal/table"
)

// TupleCompare orders two tuples; negative/zero/positive like bytes.Compare.
type TupleCompare func(a, b table.Tuple) int

// TupleIterator is the minimal pull interface shared with the executor.
type TupleIterator interface {
	Next() (table.Tuple, bool, error)
	Close() error
}

// ExternalSorter sorts an unbounded tuple stream under a bounded in-memory
// budget: it accumulates tuples, sorts and spills full buffers as sorted
// runs (heap files), and merges the runs with a stable k-way heap merge
// (ties go to the earlier run). This is the sort that feeds the paper's
// confidence operator, which requires its input "sorted by the data columns
// followed by the variable columns in preorder of the 1scanTree" (§V.C).
//
// A key sorter (NewKeySorter) orders by normalized byte keys (sortkey.go):
// every added tuple's sort columns are encoded once, a run is sorted as
// 16-byte entries on an 8-byte key prefix (full key, then arrival order, on
// ties), and the merge compares the run heads' keys. A comparator sorter
// (NewExternalSorter) drives the same run/spill/merge machinery from a
// TupleCompare instead — the compatibility entry; it is also what a key
// sorter degrades to for the rest of a sort whose key column turns out to
// mix kinds.
//
// The sorter owns the tuples it is given: they must stay valid and
// unmodified until the sort's iterator is closed.
type ExternalSorter struct {
	cmp       TupleCompare // nil while sorting by key
	cols      []int        // key sorter: the sort columns
	budget    int          // max tuples held in memory before spilling
	tmpDir    string
	buf       []table.Tuple
	runs      []*HeapFile
	spills    int
	spillSize int64
	finished  bool
	seq       int
	tmpPrefix string
	expect    int // Expect's row count, capped at budget; 0 = unknown

	// Key-sorter state, reused across the runs of one sort.
	kinds []table.Kind // kind seen so far per sort column (KindNull = none yet)
	keys  []byte       // normalized keys of buf, back to back
	offs  []uint32     // key i is keys[offs[i]:offs[i+1]]
	ents  []keyEntry
	aux   []keyEntry // radix sort's second buffer

	mem         *fault.Governor // optional memory governor (nil = ungoverned)
	memEst      int64           // estimated bytes of buf (and its keys)
	memReserved int64           // bytes currently reserved with mem
	earlySpills int             // spills forced by governor pressure
}

// keyEntry is what run generation sorts in place of a tuple.
type keyEntry struct {
	prefix uint64 // the key's bytes at the run's first 8 varying positions
	idx    uint32 // position in buf: arrival order, the stability tie-break
}

// keyEntryMem is the per-tuple footprint of a key sorter's bookkeeping: the
// entry, its slot in the radix sort's second buffer, and the key offset.
const keyEntryMem = 16 + 16 + 4

// maxKeyArena caps the key bytes of one run so that offs fits uint32: a run
// that reaches it spills as if the tuple budget were full.
const maxKeyArena = 1 << 30

// memChunk is the reservation granularity of a governed sorter: the buffer
// estimate is charged to the governor in chunks this large, so the atomic
// traffic stays off the per-tuple path.
const memChunk = 64 << 10

// tupleMemEst approximates the heap footprint of one buffered tuple:
// slice header plus per-value storage.
func tupleMemEst(t table.Tuple) int64 { return 32 + 48*int64(len(t)) }

// DefaultSortBudget is the default number of tuples buffered in memory.
const DefaultSortBudget = 1 << 16

// sorterID distinguishes the spill files of concurrent sorters within one
// process: the partition-parallel scans run many external sorts at once,
// and a pid-only prefix would make them truncate each other's runs.
var sorterID atomic.Int64

// NewExternalSorter creates a comparator sorter. budget <= 0 selects
// DefaultSortBudget; tmpDir == "" selects os.TempDir(). In-tree callers
// sort by columns and use NewKeySorter.
func NewExternalSorter(cmp TupleCompare, budget int, tmpDir string) *ExternalSorter {
	s := newSorter(budget, tmpDir)
	s.cmp = cmp
	return s
}

// NewKeySorter creates a sorter ordering tuples like table.CompareOn over
// cols, through normalized byte keys. budget and tmpDir as for
// NewExternalSorter.
func NewKeySorter(cols []int, budget int, tmpDir string) *ExternalSorter {
	s := newSorter(budget, tmpDir)
	s.cols = cols
	s.kinds = make([]table.Kind, len(cols))
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

// Expect announces how many tuples will be added, so the buffers are
// allocated once at min(n, budget) instead of growing by append. Optional;
// call before the first Add.
func (s *ExternalSorter) Expect(n int) {
	s.expect = min(n, s.budget)
	s.buf = make([]table.Tuple, 0, s.expect)
	if s.cmp == nil {
		s.offs = make([]uint32, 0, s.expect+1)
	}
}

// Spills reports how many runs were written to disk (0 = pure in-memory sort).
func (s *ExternalSorter) Spills() int { return s.spills }

// SpillBytes reports the bytes written to run files.
func (s *ExternalSorter) SpillBytes() int64 { return s.spillSize }

// Govern attaches a memory governor: the in-memory buffer is charged
// against it in memChunk steps, and a denied reservation forces an early
// spill instead of growing further. Call before the first Add.
func (s *ExternalSorter) Govern(g *fault.Governor) { s.mem = g }

// EarlySpills reports how many runs were spilled because the governor
// denied further buffer growth (a subset of Spills).
func (s *ExternalSorter) EarlySpills() int { return s.earlySpills }

// Add buffers one tuple, spilling a sorted run when the tuple budget is
// exceeded — or earlier, when the memory governor refuses to admit more
// buffer growth.
func (s *ExternalSorter) Add(t table.Tuple) error {
	if s.finished {
		return fmt.Errorf("storage: Add after Finish")
	}
	s.buf = append(s.buf, t)
	keyMem := 0
	if s.cmp == nil {
		keyMem = s.addKey(t)
	}
	if s.mem != nil {
		s.memEst += tupleMemEst(t) + int64(keyMem)
		if s.memEst > s.memReserved {
			if !s.mem.TryReserve(memChunk) {
				// Pressure: spill now (len(buf) >= 1) rather than OOM.
				if len(s.buf) > 1 || s.memReserved > 0 {
					s.earlySpills++
					return s.spill()
				}
			} else {
				s.memReserved += memChunk
			}
		}
	}
	if len(s.buf) >= s.budget || len(s.keys) > maxKeyArena {
		return s.spill()
	}
	return nil
}

// addKey encodes the normalized key of t, the tuple just appended to buf,
// and returns the bytes it added. A sort column showing a second kind
// breaks the key order's equivalence with table.CompareOn (sortkey.go), so
// the sorter switches to that comparator for the rest of the sort: runs
// already spilled held one kind per column and are ordered under both.
func (s *ExternalSorter) addKey(t table.Tuple) int {
	for i, c := range s.cols {
		if k := t[c].Kind; k != s.kinds[i] && k != table.KindNull {
			if s.kinds[i] != table.KindNull {
				cols := s.cols
				s.cmp = func(a, b table.Tuple) int { return table.CompareOn(a, b, cols) }
				s.keys, s.offs, s.ents, s.aux = nil, nil, nil, nil
				return 0
			}
			s.kinds[i] = k
		}
	}
	if len(s.buf) == 1 { // first tuple of a run: restart the key arena
		s.keys, s.offs = s.keys[:0], append(s.offs[:0], 0)
	}
	before := len(s.keys)
	s.keys = AppendSortKey(s.keys, t, s.cols)
	if size := s.expect*len(s.keys) + keySlack; before == 0 && cap(s.keys) < size {
		// First key of the sort: size the arena for a run of such keys.
		s.keys = append(make([]byte, 0, size), s.keys...)
	}
	s.offs = append(s.offs, uint32(len(s.keys)))
	return len(s.keys) - before + keyEntryMem
}

// releaseMem returns the buffer reservation to the governor.
func (s *ExternalSorter) releaseMem() {
	if s.memReserved > 0 {
		s.mem.Release(s.memReserved)
		s.memReserved = 0
	}
	s.memEst = 0
}

// sortBuf leaves buf in sorted order, equal tuples in arrival order.
func (s *ExternalSorter) sortBuf() {
	if s.cmp != nil {
		slices.SortStableFunc(s.buf, s.cmp)
		return
	}
	s.sortByKey()
}

// sortByKey sorts one entry per tuple and then permutes buf in place.
//
// A fixed leading-8-byte prefix would tie on nearly every comparison: the
// leading bytes are the group columns, which repeat, and the high bytes of
// small integers are constant (on TPC-H q1 the first 8 key bytes are two
// one-letter flags with their tags and terminators). So the prefix gathers
// the key bytes at the first 8 positions where the run's keys differ at
// all. Every key agrees with every other on the skipped positions, so
// comparing the gathered bytes equals comparing the keys up to the last
// gathered position; a prefix tie is settled by the key bytes after it.
func (s *ExternalSorter) sortByKey() {
	n := len(s.buf)
	if n < 2 {
		return
	}
	s.keys = append(s.keys, make([]byte, keySlack)...)
	keys, offs := s.keys, s.offs
	pos, lim := prefixPositions(keys, offs)
	if cap(s.ents) < n {
		s.ents = make([]keyEntry, n)
	}
	ents := s.ents[:n]
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
	} else {
		// The gathered prefix is dense, so a byte-wise radix sort on it
		// does most of the ordering; only entries sharing a whole prefix
		// are left to the comparison sort.
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
	}
	// Apply the permutation in place, following cycles; a placed entry is
	// marked by pointing at itself.
	buf := s.buf
	for i := range ents {
		if int(ents[i].idx) == i {
			continue
		}
		held := buf[i]
		for j := i; ; {
			src := int(ents[j].idx)
			ents[j].idx = uint32(j)
			if src == i {
				buf[j] = held
				break
			}
			buf[j] = buf[src]
			j = src
		}
	}
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

func (s *ExternalSorter) spill() error {
	s.sortBuf()
	path := filepath.Join(s.tmpDir, fmt.Sprintf("%srun%d.heap", s.tmpPrefix, s.seq))
	s.seq++
	run, err := CreateHeapFile(path)
	if err != nil {
		return err
	}
	for _, t := range s.buf {
		if err := run.Append(t); err != nil {
			run.Remove()
			return err
		}
	}
	if err := run.FinishWrites(); err != nil {
		run.Remove()
		return err
	}
	s.runs = append(s.runs, run)
	s.spills++
	s.spillSize += run.NumPages() * PageSize
	s.buf = s.buf[:0]
	s.releaseMem()
	return nil
}

// Finish completes the sort and returns an iterator over the sorted stream
// whose tuples stay valid for the life of the program: the caller may
// retain them without cloning (engine.Sort and the grace join do). The
// iterator's Close removes any temp runs; when Finish itself fails, the
// runs spilled so far are removed before returning.
func (s *ExternalSorter) Finish() (TupleIterator, error) { return s.finish(false) }

// FinishBorrowed is Finish for a consumer that retains no tuple across
// calls: a tuple is valid only until the next Next, which lets a spilled
// sort decode every run into one reused tuple buffer instead of fresh
// storage (string values are still immutable and may be kept). An
// unspilled sort hands out the added tuples themselves either way.
func (s *ExternalSorter) FinishBorrowed() (TupleIterator, error) { return s.finish(true) }

func (s *ExternalSorter) finish(borrowed bool) (TupleIterator, error) {
	if s.finished {
		return nil, fmt.Errorf("storage: Finish called twice")
	}
	s.finished = true
	if len(s.runs) == 0 {
		s.sortBuf()
		s.releaseMem()
		s.keys, s.offs, s.ents, s.aux = nil, nil, nil, nil
		return &memIter{rows: s.buf}, nil
	}
	if len(s.buf) > 0 {
		if err := s.spill(); err != nil {
			s.Discard()
			return nil, err
		}
	}
	// Hand run ownership to the iterator (newMergeIter removes them itself
	// on a failed open), so a later Discard cannot double-remove.
	runs := s.runs
	s.runs = nil
	s.buf, s.keys, s.offs, s.ents, s.aux = nil, nil, nil, nil, nil
	return newMergeIter(runs, s.cmp, s.cols, borrowed)
}

// Discard removes any spilled runs of a sort that is being abandoned — the
// cleanup hook for error paths that stop feeding the sorter (an Add failure
// mid-stream, a cancelled scan). Safe to call at any time; after a
// successful Finish the iterator owns the runs and Discard is a no-op.
func (s *ExternalSorter) Discard() {
	for _, r := range s.runs {
		r.Remove()
	}
	s.runs = nil
	s.finished = true
	s.releaseMem()
}

// memIter iterates an in-memory sorted buffer.
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

// mergeIter performs a k-way merge over sorted runs: a binary min-heap of
// the runs' current tuples, ordered by normalized key (or by the comparator
// when the sorter had one), ties to the earlier run so the merge is stable.
//
// Stable mode decodes through the scanners' arenas (tuples valid forever);
// borrowed mode decodes each run into its head's one tuple buffer. The run
// whose tuple was handed out advances at the start of the following Next,
// so a borrowed tuple survives exactly until then.
type mergeIter struct {
	cmp      TupleCompare // nil: heads are ordered by key
	cols     []int
	borrowed bool
	runs     []*HeapFile
	heads    []mergeHead
	pending  bool // heads[0] was handed out and must advance first
}

type mergeHead struct {
	t    table.Tuple
	key  []byte
	scan *Scanner
	run  int
}

func newMergeIter(runs []*HeapFile, cmp TupleCompare, cols []int, borrowed bool) (*mergeIter, error) {
	m := &mergeIter{cmp: cmp, cols: cols, borrowed: borrowed, runs: runs,
		heads: make([]mergeHead, 0, len(runs))}
	for i, r := range runs {
		h := mergeHead{scan: r.NewScanner(nil), run: i}
		ok, err := m.advance(&h)
		if err != nil {
			m.Close()
			return nil, err
		}
		if ok {
			m.heads = append(m.heads, h)
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// advance loads the run's next tuple (and its key) into h.
func (m *mergeIter) advance(h *mergeHead) (bool, error) {
	if m.borrowed {
		rec, ok, err := h.scan.NextRaw()
		if err != nil || !ok {
			return false, err
		}
		if h.t, err = DecodeTupleReuse(rec, h.t); err != nil {
			return false, err
		}
	} else {
		t, ok, err := h.scan.Next()
		if err != nil || !ok {
			return false, err
		}
		h.t = t
	}
	if m.cmp == nil {
		h.key = AppendSortKey(h.key[:0], h.t, m.cols)
	}
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

func (m *mergeIter) Next() (table.Tuple, bool, error) {
	if m.pending {
		ok, err := m.advance(&m.heads[0])
		if err != nil {
			return nil, false, err
		}
		m.pending = false
		if !ok {
			last := len(m.heads) - 1
			m.heads[0] = m.heads[last]
			m.heads = m.heads[:last]
		}
		m.siftDown(0)
	}
	if len(m.heads) == 0 {
		return nil, false, nil
	}
	m.pending = true
	return m.heads[0].t, true, nil
}

func (m *mergeIter) Close() error {
	var firstErr error
	for _, r := range m.runs {
		if err := r.Remove(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.runs = nil
	return firstErr
}
