package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/table"
)

// TestOpenHeapFileMisaligned: a truncated (non-page-aligned) file is
// rejected at open time rather than producing garbage scans.
func TestOpenHeapFileMisaligned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.heap")
	if err := os.WriteFile(path, make([]byte, PageSize+17), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenHeapFile(path); err == nil {
		t.Error("misaligned heap file must be rejected")
	}
}

func TestOpenHeapFileMissing(t *testing.T) {
	if _, err := OpenHeapFile(filepath.Join(t.TempDir(), "nope.heap")); err == nil {
		t.Error("missing file must be rejected")
	}
}

// TestScannerSurvivesReopen: a heap file written, closed, reopened and
// scanned twice yields identical contents (no hidden state in the file).
func TestScannerSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "re.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1234; i++ {
		if err := h.Append(table.Tuple{table.Int(int64(i)), table.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		h2, err := OpenHeapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := h2.NewScanner(nil)
		n := 0
		for {
			tup, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if tup[0].I != int64(n) {
				t.Fatalf("round %d: tuple %d has key %d", round, n, tup[0].I)
			}
			n++
		}
		if n != 1234 {
			t.Fatalf("round %d: scanned %d tuples", round, n)
		}
		h2.Close()
	}
}

// TestReadPageOutOfRange: page reads past EOF are errors, not zero pages.
func TestReadPageOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(table.Tuple{table.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := h.FinishWrites(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var p Page
	if err := h.ReadPage(99, &p); err == nil {
		t.Error("out-of-range page read must fail")
	}
	if err := h.ReadPage(-1, &p); err == nil {
		t.Error("negative page read must fail")
	}
}

// TestReadPageShortRead: a heap file cut short after it was opened fails
// the read of its lost page with io.ErrUnexpectedEOF, naming the file and
// the page — through the nil-pool scan a spilled-run merge uses, which
// must not hand out the previous page's rows again, and through a pool.
func TestReadPageShortRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 1200 {
		if err := h.Append(table.Tuple{table.Int(int64(i)), table.Str("xxxxxxxx")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.NumPages() != 3 {
		t.Fatalf("1200 rows took %d pages, want 3", back.NumPages())
	}
	if err := os.Truncate(path, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	for name, pool := range map[string]*BufferPool{"nil pool": nil, "64-frame pool": NewBufferPool(64)} {
		sc := back.NewScanner(pool)
		rows := 0
		for {
			_, ok, err := sc.Next()
			if err != nil {
				if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), fmt.Sprintf("%s page 2", path)) {
					t.Errorf("%s: scan failed with %v, want an unexpected EOF naming %s page 2", name, err, path)
				}
				break
			}
			if !ok {
				t.Errorf("%s: scan of the cut file ended without an error after %d rows", name, rows)
				break
			}
			rows++
		}
		sc.Close()
	}
}

// TestExternalSorterMisuse: Add after Finish and double Finish are errors,
// and each kind of sorter is fed and finishes only its own way: a
// comparator sort takes tuples and finishes into lent tuples, a key sort
// takes column batches and finishes into column batches.
func TestExternalSorterMisuse(t *testing.T) {
	s := NewExternalSorter(func(a, b table.Tuple) int { return 0 }, 10, t.TempDir())
	if _, err := s.FinishBatches(); err == nil {
		t.Error("FinishBatches of a comparator sort must fail")
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(table.Tuple{table.Int(1)}); err == nil {
		t.Error("Add after Finish must fail")
	}
	if _, err := s.Finish(); err == nil {
		t.Error("double Finish must fail")
	}
	k := NewKeySorter(table.NewSchema(table.DataCol("a", table.KindInt)), []int{0}, 10, t.TempDir())
	if err := k.Add(table.Tuple{table.Int(1)}); err == nil {
		t.Error("Add to a key sort must fail: it takes column batches")
	}
	if _, err := k.Finish(); err == nil {
		t.Error("Finish of a key sort must fail")
	}
	if _, err := k.FinishBatches(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.FinishBatches(); err == nil {
		t.Error("double FinishBatches must fail")
	}
}

// TestSpillFilesCleanedUp: closing the merge iterator removes the temp runs.
func TestSpillFilesCleanedUp(t *testing.T) {
	dir := t.TempDir()
	s := NewExternalSorter(func(a, b table.Tuple) int {
		return table.Compare(a[0], b[0])
	}, 8, dir)
	for i := 0; i < 100; i++ {
		if err := s.Add(table.Tuple{table.Int(int64(99 - i))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if s.Spills() == 0 {
		t.Fatal("expected spills")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) == 0 {
		t.Fatal("spill files should exist before Close")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("spill files left behind: %v", entries)
	}
}
