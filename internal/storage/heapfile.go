package storage

import (
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/table"
)

// HeapFile is an unordered collection of pages in an OS file — the on-disk
// representation of a relation, and of a sort's spilled run. Writes gather
// rows onto the page being filled and write it out when the next row does
// not fit; reads go through a BufferPool so that repeated scans hit memory,
// mimicking the warm-cache setup of the paper's experiments (§VII).
type HeapFile struct {
	f        *os.File
	path     string
	numPages int64
	w        *pageWriter // fills the tail page, nil when the file is read-only
	writeNo  int64
	tuples   int64
}

// CreateHeapFile creates (truncating) a heap file at path.
func CreateHeapFile(path string) (*HeapFile, error) {
	return createHeapFile(path, new(pageWriter))
}

// createHeapFile is CreateHeapFile filling pages through w, which the file
// holds until FinishWrites: a sorter writes all its runs, one after the
// other, through one writer.
func createHeapFile(path string, w *pageWriter) (*HeapFile, error) {
	f, err := ioCreate(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create heap file: %w", err)
	}
	w.pend.N = 0
	return &HeapFile{f: f, path: path, w: w}, nil
}

// OpenHeapFile opens an existing heap file for reading.
func OpenHeapFile(path string) (*HeapFile, error) {
	f, err := ioOpen(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open heap file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d not page-aligned", path, st.Size())
	}
	return &HeapFile{f: f, path: path, numPages: st.Size() / PageSize}, nil
}

// Path returns the file path.
func (h *HeapFile) Path() string { return h.path }

// NumPages returns the number of full pages written so far (excluding the
// in-progress tail page).
func (h *HeapFile) NumPages() int64 { return h.numPages }

// NumTuples returns the number of rows appended (write mode).
func (h *HeapFile) NumTuples() int64 { return h.tuples }

// errReadOnly is what appending to a file opened for reading fails with.
func (h *HeapFile) errReadOnly() error {
	return fmt.Errorf("storage: heap file %s is read-only", h.path)
}

// errOversize is what appending a row that no empty page holds fails with.
func errOversize(cols int) error {
	return fmt.Errorf("storage: a row of %d columns exceeds the capacity of an empty page", cols)
}

// Append stores a tuple — the comparator sort's spill. The row joins the
// page being filled, which is written out first when the row's arity
// differs from the page's, when one of its non-NULL cells has another kind
// than the page's column (whose kind is its first row's cell's), or when
// the row does not fit.
func (h *HeapFile) Append(t table.Tuple) error {
	w := h.w
	if w == nil {
		return h.errReadOnly()
	}
	if w.pend.N > 0 && !w.takes(t) {
		if err := h.flushPage(); err != nil {
			return err
		}
	}
	if w.pend.N == 0 {
		w.begin(nil, t)
		if !w.takes(t) {
			return errOversize(len(t))
		}
	}
	w.appendTuple(t)
	h.tuples++
	return nil
}

// AppendBatch stores rows of a column batch, copying their cells column by
// column onto the page being filled: b's live rows, or when order is not
// nil the physical rows it lists, in its order (a sorted run's
// permutation). A page holds the kinds of b's columns: one being filled
// with other kinds is written out first.
func (h *HeapFile) AppendBatch(b *table.ColBatch, order []int32) error {
	w := h.w
	if w == nil {
		return h.errReadOnly()
	}
	n := b.Rows()
	if order != nil {
		n = len(order)
	}
	if w.pend.N > 0 && !sameKinds(&w.pend, b) {
		if err := h.flushPage(); err != nil {
			return err
		}
	}
	for i := 0; i < n; {
		if w.pend.N == 0 {
			w.begin(b, nil)
		}
		k := w.fitBatch(b, order, i, n)
		if k == 0 {
			if w.pend.N == 0 {
				return errOversize(len(b.Cols))
			}
			if err := h.flushPage(); err != nil {
				return err
			}
			continue
		}
		if order != nil {
			sel := b.Sel
			b.Sel = order // a permutation: AppendBatch gathers through it
			w.pend.AppendBatch(b, i, i+k)
			b.Sel = sel
		} else {
			w.pend.AppendBatch(b, i, i+k)
		}
		i += k
		h.tuples += int64(k)
	}
	return nil
}

// sameKinds reports whether a and b's columns have the same kinds.
func sameKinds(a, b *table.ColBatch) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Cols {
		if a.Cols[c].Kind != b.Cols[c].Kind {
			return false
		}
	}
	return true
}

// flushPage encodes the pending rows onto the page and writes it out.
func (h *HeapFile) flushPage() error {
	h.w.encode()
	if err := ioWriteAt(h.f, h.path, h.w.pg.Bytes(), h.writeNo*PageSize); err != nil {
		return fmt.Errorf("storage: flush page %d: %w", h.writeNo, err)
	}
	h.writeNo++
	h.numPages = h.writeNo
	h.w.pend.N = 0
	return nil
}

// FinishWrites flushes the tail page and switches the file to read mode.
func (h *HeapFile) FinishWrites() error {
	if h.w == nil {
		return nil
	}
	if h.w.pend.N > 0 {
		if err := h.flushPage(); err != nil {
			return err
		}
	}
	h.w = nil
	return nil
}

// ReadPage reads page no into dst. A page that is not a column page of
// this format fails with ErrPageFormat.
func (h *HeapFile) ReadPage(no int64, dst *Page) error {
	if no < 0 || no >= h.numPages {
		return fmt.Errorf("storage: page %d out of range [0,%d)", no, h.numPages)
	}
	if _, err := ioReadAt(h.f, h.path, dst.Bytes(), no*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", no, err)
	}
	if err := checkFormat(dst.Bytes()); err != nil {
		return fmt.Errorf("%s page %d: %w", h.path, no, err)
	}
	return nil
}

// Close closes the underlying file (flushing pending writes first).
func (h *HeapFile) Close() error {
	if err := h.FinishWrites(); err != nil {
		h.f.Close()
		return err
	}
	return h.f.Close()
}

// Sync flushes the file to stable storage — the durability barrier callers
// place after FinishWrites when the file must survive a crash.
func (h *HeapFile) Sync() error {
	if err := ioSync(h.f, h.path); err != nil {
		return fmt.Errorf("storage: sync %s: %w", h.path, err)
	}
	return nil
}

// Remove closes and deletes the file; used for temp spill files.
func (h *HeapFile) Remove() error {
	if err := h.f.Close(); err != nil {
		ioRemove(h.path)
		return err
	}
	return ioRemove(h.path)
}

// Scanner iterates a heap file in storage order, a page at a time,
// fetching pages through a buffer pool when one is supplied. NextBlock
// decodes rows onto a caller's column batch; Next lends tuples decoded
// from the current page; NextRaw hands out the pages undecoded.
type Scanner struct {
	h      *HeapFile
	pool   *BufferPool
	page   *Page
	pinned *Frame
	pageNo int64
	layout pageLayout // of the current page, once parsed
	row    int        // the current page's next row

	block table.ColBatch // Next: the current page, decoded
	tuple table.Tuple    // Next: the lent tuple
}

// NewScanner returns a scanner positioned before the first page. pool may
// be nil, in which case pages are read directly (used by temp files that are
// scanned exactly once).
func (h *HeapFile) NewScanner(pool *BufferPool) *Scanner {
	return &Scanner{h: h, pool: pool, pageNo: -1}
}

// advance moves to the next page, ok=false past the last, and parses its
// layout when parse is set.
func (s *Scanner) advance(parse bool) (bool, error) {
	if s.pinned != nil {
		s.pool.Unpin(s.pinned)
		s.pinned = nil
	}
	s.row, s.layout.rows = 0, 0
	s.pageNo++
	if s.pageNo >= s.h.numPages {
		s.page = nil
		return false, nil
	}
	if s.pool != nil {
		fr, err := s.pool.Fetch(s.h, s.pageNo)
		if err != nil {
			return false, err
		}
		s.pinned = fr
		s.page = fr.Page()
	} else {
		if s.page == nil {
			s.page = new(Page)
		}
		if err := s.h.ReadPage(s.pageNo, s.page); err != nil {
			return false, err
		}
	}
	if parse {
		if err := s.layout.parse(s.page.Bytes()); err != nil {
			return false, s.pageErr(err)
		}
	}
	return true, nil
}

// pageErr names the file and the current page in err.
func (s *Scanner) pageErr(err error) error {
	return fmt.Errorf("%s page %d: %w", s.h.path, s.pageNo, err)
}

// NextBlock appends up to max rows of the current page to dst, moving to
// the next page when the current one is used up, and returns how many (0
// at the end of the file): a page may straddle two calls. Only the columns
// need marks (nil = all) are decoded — the others' minipages are skipped by
// offset, never read — while dst.N counts every appended row. Cells land in
// dst's typed vectors, strings as flat bytes (a string column of dst that
// holds shared headers fails). A stored column of another kind than dst's,
// other than an all-NULL one, fails the scan: a heap file is where rows
// enter the engine from outside.
func (s *Scanner) NextBlock(dst *table.ColBatch, max int, need []bool) (int, error) {
	for s.page == nil || s.row >= s.layout.rows {
		if ok, err := s.advance(true); err != nil || !ok {
			return 0, err
		}
	}
	k := min(max, s.layout.rows-s.row)
	if err := s.layout.decode(s.page.Bytes(), dst, s.row, s.row+k, need); err != nil {
		return 0, s.pageErr(err)
	}
	s.row += k
	return k, nil
}

// Next returns the next tuple, or ok=false at end of file. The tuple is
// lent: it is valid until the next Next, which may write the following row
// over it. Its cells are decoded a page at a time into the scanner's block,
// in the page's column kinds; a string cell that repeats the one the lent
// tuple already holds keeps it instead of allocating a copy. The engine
// scans through NextBlock; Next serves the comparator sort's merge, the
// benchmark's storage.decode_s probe, and the tests.
func (s *Scanner) Next() (table.Tuple, bool, error) {
	b := &s.block
	for s.page == nil || s.row >= b.N {
		if ok, err := s.advance(true); err != nil || !ok {
			return nil, false, err
		}
		b.N = 0
		b.Cols = slices.Grow(b.Cols[:0], len(s.layout.cols))[:len(s.layout.cols)]
		for c := range b.Cols {
			b.Cols[c].Reuse(s.layout.cols[c].kind)
		}
		if err := s.layout.decode(s.page.Bytes(), b, 0, s.layout.rows, nil); err != nil {
			return nil, false, s.pageErr(err)
		}
	}
	t := slices.Grow(s.tuple[:0], len(b.Cols))[:len(b.Cols)]
	for c := range t {
		v := &b.Cols[c]
		if v.Kind == table.KindString && !v.Null(s.row) {
			if cell := v.Bytes[v.Offs[s.row]:v.Offs[s.row+1]]; t[c].Kind != table.KindString || t[c].S != string(cell) {
				t[c] = table.Str(string(cell))
			}
			continue
		}
		t[c] = v.Value(s.row)
	}
	s.tuple = t
	s.row++
	return t, true, nil
}

// NextRaw fetches the next page and returns its bytes without decoding
// them — one page per call, ok=false after the last; the benchmark's
// storage.scan_raw_s probe times the page fetch with it. The bytes alias
// the page and stay valid only until the next call.
func (s *Scanner) NextRaw() ([]byte, bool, error) {
	ok, err := s.advance(false)
	if err != nil || !ok {
		return nil, false, err
	}
	return s.page.Bytes(), true, nil
}

// Close releases any pinned page.
func (s *Scanner) Close() {
	if s.pinned != nil {
		s.pool.Unpin(s.pinned)
		s.pinned = nil
	}
}
