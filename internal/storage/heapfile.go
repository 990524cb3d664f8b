package storage

import (
	"fmt"
	"io"
	"os"

	"repro/internal/table"
)

// HeapFile is an unordered collection of pages in an OS file — the on-disk
// representation of a relation. Writes append tuples into the last page,
// allocating new pages as needed; reads go through a BufferPool so that
// repeated scans hit memory, mimicking the warm-cache setup of the paper's
// experiments (§VII).
type HeapFile struct {
	f        *os.File
	path     string
	numPages int64
	writePg  *Page // tail page being filled, nil when file is read-only
	writeNo  int64
	tuples   int64
	encBuf   []byte // reused Append encode buffer
}

// CreateHeapFile creates (truncating) a heap file at path.
func CreateHeapFile(path string) (*HeapFile, error) {
	f, err := ioCreate(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create heap file: %w", err)
	}
	h := &HeapFile{f: f, path: path, writePg: new(Page), writeNo: 0, numPages: 0}
	h.writePg.Reset()
	return h, nil
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

// NumTuples returns the number of records appended (write mode).
func (h *HeapFile) NumTuples() int64 { return h.tuples }

// Append encodes and stores a tuple — the comparator sort's spill. The
// encode buffer is owned by the file and reused across appends.
func (h *HeapFile) Append(t table.Tuple) error {
	h.encBuf = EncodeTuple(h.encBuf[:0], t)
	return h.insert()
}

// AppendColRow stores physical row `row` of a column batch, encoded from its
// cells (AppendColRecord) into the file's reused encode buffer.
func (h *HeapFile) AppendColRow(b *table.ColBatch, row int) error {
	h.encBuf = AppendColRecord(h.encBuf[:0], b, row)
	return h.insert()
}

// insert stores the record in the encode buffer on the tail page, flushing
// the page first when the record does not fit.
func (h *HeapFile) insert() error {
	if h.writePg == nil {
		return fmt.Errorf("storage: heap file %s is read-only", h.path)
	}
	rec := h.encBuf
	if _, err := h.writePg.Insert(rec); err != nil {
		if !IsPageFull(err) {
			return err
		}
		if err := h.flushWritePage(); err != nil {
			return err
		}
		if _, err := h.writePg.Insert(rec); err != nil {
			return err
		}
	}
	h.tuples++
	return nil
}

func (h *HeapFile) flushWritePage() error {
	if err := ioWriteAt(h.f, h.path, h.writePg.Bytes(), h.writeNo*PageSize); err != nil {
		return fmt.Errorf("storage: flush page %d: %w", h.writeNo, err)
	}
	h.writeNo++
	h.numPages = h.writeNo
	h.writePg.Reset()
	return nil
}

// FinishWrites flushes the tail page and switches the file to read mode.
func (h *HeapFile) FinishWrites() error {
	if h.writePg == nil {
		return nil
	}
	if h.writePg.NumSlots() > 0 {
		if err := h.flushWritePage(); err != nil {
			return err
		}
	}
	h.writePg = nil
	return nil
}

// ReadPage reads page no into dst.
func (h *HeapFile) ReadPage(no int64, dst *Page) error {
	if no < 0 || no >= h.numPages {
		return fmt.Errorf("storage: page %d out of range [0,%d)", no, h.numPages)
	}
	if _, err := ioReadAt(h.f, h.path, dst.Bytes(), no*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", no, err)
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

// scanArenaBlock is how many decoded values a scanner allocates per arena
// block; tuples wider than this fall back to a direct allocation.
const scanArenaBlock = 4096

// Scanner iterates the tuples of a heap file in storage order, fetching
// pages through a buffer pool when one is supplied. Decoded tuples draw
// their value storage from a per-scanner arena — one allocation per
// scanArenaBlock values instead of one per tuple — and stay valid for the
// life of the program (arena blocks are never reused), so callers may
// retain them without cloning.
type Scanner struct {
	h      *HeapFile
	pool   *BufferPool
	page   *Page
	pinned *Frame
	pageNo int64
	slot   int
	arena  []table.Value
	arity  int // widest tuple seen, for arena refill sizing
}

// NewScanner returns a scanner positioned before the first tuple. pool may
// be nil, in which case pages are read directly (used by temp files that are
// scanned exactly once).
func (h *HeapFile) NewScanner(pool *BufferPool) *Scanner {
	return &Scanner{h: h, pool: pool, pageNo: -1}
}

// Next returns the next tuple, or ok=false at end of file. The engine scans
// through NextRaw; the tuple decode is kept for the benchmark's
// storage.decode_s probe, which times it against NextRaw, and the tests.
func (s *Scanner) Next() (table.Tuple, bool, error) {
	rec, ok, err := s.NextRaw()
	if err != nil || !ok {
		return nil, false, err
	}
	if len(s.arena) < s.arity && s.arity <= scanArenaBlock {
		s.arena = make([]table.Value, scanArenaBlock)
	}
	t, rest, _, err := DecodeTupleArena(rec, s.arena)
	if err != nil {
		return nil, false, err
	}
	s.arena = rest
	if len(t) > s.arity {
		s.arity = len(t)
	}
	return t, true, nil
}

// NextRaw returns the next encoded record without decoding it — the
// columnar scan's entry point, which decodes the fields straight into
// column vectors (see FieldIter). The returned bytes alias the current page
// and stay valid only until the scan advances past it; callers must copy
// whatever they retain before the next page boundary.
func (s *Scanner) NextRaw() ([]byte, bool, error) {
	for {
		if s.page != nil && s.slot < s.page.NumSlots() {
			rec, err := s.page.Record(s.slot)
			if err != nil {
				return nil, false, err
			}
			s.slot++
			return rec, true, nil
		}
		// Advance to the next page.
		if s.pinned != nil {
			s.pool.Unpin(s.pinned)
			s.pinned = nil
		}
		s.pageNo++
		if s.pageNo >= s.h.numPages {
			s.page = nil
			return nil, false, nil
		}
		if s.pool != nil {
			fr, err := s.pool.Fetch(s.h, s.pageNo)
			if err != nil {
				return nil, false, err
			}
			s.pinned = fr
			s.page = fr.Page()
		} else {
			if s.page == nil {
				s.page = new(Page)
			}
			if err := s.h.ReadPage(s.pageNo, s.page); err != nil {
				return nil, false, err
			}
		}
		s.slot = 0
	}
}

// Close releases any pinned page.
func (s *Scanner) Close() {
	if s.pinned != nil {
		s.pool.Unpin(s.pinned)
		s.pinned = nil
	}
}
