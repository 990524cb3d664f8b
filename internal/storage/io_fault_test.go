package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/table"
)

// installIO installs a fault injector for the test and restores the
// disarmed state on cleanup.
func installIO(t *testing.T, io *fault.IO) {
	t.Helper()
	SetIO(io)
	t.Cleanup(func() { SetIO(nil) })
}

// TestInjectedWriteFaultSurfacesTyped: a scheduled write fault reaches the
// caller as a typed *fault.Injected error, and the failed spill leaves no
// run files behind.
func TestInjectedWriteFaultSurfacesTyped(t *testing.T) {
	dir := t.TempDir()
	installIO(t, &fault.IO{Plan: fault.NewPlan(1,
		fault.Rule{Op: fault.OpWrite, Nth: 2, Kind: fault.KindENOSPC})})
	s := NewExternalSorter(func(a, b table.Tuple) int {
		return table.Compare(a[0], b[0])
	}, 4, dir)
	var addErr error
	for i := 0; i < 64 && addErr == nil; i++ {
		addErr = s.Add(table.Tuple{table.Int(int64(i)), table.Str("padpadpad")})
	}
	if addErr == nil {
		t.Fatal("expected an injected spill failure")
	}
	if !fault.IsInjected(addErr) {
		t.Fatalf("error %v is not typed as injected", addErr)
	}
	s.Discard()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill files leaked after injected failure: %v", entries)
	}
}

// TestTransientFaultRetriedInsideStorage: a transient write fault with a
// retry policy never surfaces — the wrapper retries, the rule has burned
// out, and the spill succeeds; the retry is counted.
func TestTransientFaultRetriedInsideStorage(t *testing.T) {
	dir := t.TempDir()
	var slept []time.Duration
	io := &fault.IO{
		Plan: fault.NewPlan(7,
			fault.Rule{Op: fault.OpWrite, Nth: 1, Kind: fault.KindErr, Transient: true}),
		Retry: fault.Retry{MaxAttempts: 3, Base: time.Microsecond, Max: time.Millisecond},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	installIO(t, io)
	h, err := CreateHeapFile(filepath.Join(dir, "t.heap"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ { // enough tuples to flush a page
		if err := h.Append(table.Tuple{table.Int(int64(i)), table.Str("xxxxxxxx")}); err != nil {
			t.Fatalf("append %d: %v (transient fault must be absorbed)", i, err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if io.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", io.Retries())
	}
	if len(slept) == 0 {
		t.Fatal("retry must back off through the injected sleeper")
	}
}

// TestHardFaultNotRetried: a non-transient fault fails immediately even
// with a retry policy installed.
func TestHardFaultNotRetried(t *testing.T) {
	dir := t.TempDir()
	io := &fault.IO{
		Plan: fault.NewPlan(7,
			fault.Rule{Op: fault.OpCreate, Kind: fault.KindENOSPC, Count: 100}),
		Retry: fault.Retry{MaxAttempts: 5, Base: time.Microsecond},
		Sleep: func(time.Duration) {},
	}
	installIO(t, io)
	if _, err := CreateHeapFile(filepath.Join(dir, "t.heap")); !fault.IsInjected(err) {
		t.Fatalf("got %v, want injected fault", err)
	}
	if io.Retries() != 0 {
		t.Fatalf("hard fault was retried %d times", io.Retries())
	}
}

// TestTornPagePersistsPrefix: a torn-page fault really writes a prefix of
// the page before failing, so recovery paths face genuine corruption.
func TestTornPagePersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.heap")
	installIO(t, &fault.IO{Plan: fault.NewPlan(99,
		fault.Rule{Op: fault.OpWrite, Nth: 1, Kind: fault.KindTornPage})})
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wErr error
	for i := 0; i < 600 && wErr == nil; i++ {
		wErr = h.Append(table.Tuple{table.Int(int64(i)), table.Str("xxxxxxxx")})
	}
	if wErr == nil {
		t.Fatal("expected torn-page failure on first page flush")
	}
	var inj *fault.Injected
	if !errors.As(wErr, &inj) || inj.Kind != fault.KindTornPage {
		t.Fatalf("error %v is not a torn-page fault", wErr)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= PageSize {
		t.Fatalf("torn page wrote %d bytes, want a strict prefix of %d", st.Size(), PageSize)
	}
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h.Remove()

	// Read the torn file back once its page is whole again in size, as a
	// later write past it would leave it: the first read fails with
	// ErrPageFormat, naming the file and the page.
	SetIO(nil)
	if err := os.WriteFile(path, append(torn, make([]byte, PageSize-len(torn))...), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	sc := back.NewScanner(nil)
	defer sc.Close()
	if _, _, err := sc.Next(); !errors.Is(err, ErrPageFormat) || !strings.Contains(err.Error(), path+" page 0") {
		t.Fatalf("reading the torn page: err = %v, want ErrPageFormat naming %s page 0", err, path)
	}
}

// scanFile writes rows rows of (i, "xxxxxxxx") to a heap file in dir and
// reopens it for reading: about 450 rows a page.
func scanFile(t *testing.T, dir string, rows int) *HeapFile {
	t.Helper()
	path := filepath.Join(dir, "scan.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := h.Append(table.Tuple{table.Int(int64(i)), table.Str("xxxxxxxx")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	return ro
}

// scanKeys drains a scanner's first column.
func scanKeys(sc *Scanner) ([]int64, error) {
	defer sc.Close()
	var keys []int64
	for {
		tup, ok, err := sc.Next()
		if err != nil || !ok {
			return keys, err
		}
		keys = append(keys, tup[0].I)
	}
}

// TestScanAbortUnpinsPages: a scan that stops mid-file (injected read
// fault) leaves zero pinned frames once closed — the chaos harness's
// pinned-page invariant in miniature — on both read paths: a file larger
// than a quarter of the pool, read in extents (its second extent read
// fails), and a file within a quarter of it, read through the frames (its
// second page fetch fails).
func TestScanAbortUnpinsPages(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, pool int
	}{
		{"ring", 40000, 8},
		{"pool", 3000, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := scanFile(t, t.TempDir(), tc.rows)
			pool := NewBufferPool(tc.pool)
			if ring := h.NumPages() > int64(tc.pool/4); ring != (tc.name == "ring") || h.NumPages() <= extentPages && ring {
				t.Fatalf("%d pages under a %d-page pool: ring %v", h.NumPages(), tc.pool, ring)
			}
			installIO(t, &fault.IO{Plan: fault.NewPlan(3,
				fault.Rule{Op: fault.OpRead, Nth: 2, Kind: fault.KindErr})})
			keys, scanErr := scanKeys(h.NewScanner(pool))
			if !fault.IsInjected(scanErr) {
				t.Fatalf("scan error %v, want injected read fault", scanErr)
			}
			if len(keys) == 0 || len(keys) >= tc.rows {
				t.Fatalf("the scan stopped after %d of %d rows, want mid-file", len(keys), tc.rows)
			}
			if n := pool.Pinned(); n != 0 {
				t.Errorf("%d frames still pinned after aborted scan", n)
			}
		})
	}
}

// TestExtentTransientFaultRetried: a transient fault on the k-th extent
// read is retried inside storage, and the scan reads exactly what an
// unfaulted one does.
func TestExtentTransientFaultRetried(t *testing.T) {
	h := scanFile(t, t.TempDir(), 40000)
	if h.NumPages() <= 2*extentPages {
		t.Fatalf("%d pages: the third extent read must exist", h.NumPages())
	}
	pool := NewBufferPool(8)
	want, err := scanKeys(h.NewScanner(pool))
	if err != nil || len(want) != 40000 {
		t.Fatalf("clean scan: %d rows, %v", len(want), err)
	}
	for k := 1; k <= 3; k++ {
		io := &fault.IO{
			Plan: fault.NewPlan(int64(k),
				fault.Rule{Op: fault.OpRead, Nth: int64(k), Kind: fault.KindErr, Transient: true}),
			Retry: fault.Retry{MaxAttempts: 3, Base: time.Microsecond, Max: time.Millisecond},
			Sleep: func(time.Duration) {},
		}
		installIO(t, io)
		got, err := scanKeys(h.NewScanner(pool))
		SetIO(nil)
		if err != nil {
			t.Fatalf("extent %d: transient fault surfaced: %v", k, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("extent %d: faulted scan read %d rows, differing from the clean scan's %d", k, len(got), len(want))
		}
		if io.Retries() != 1 {
			t.Fatalf("extent %d: retries = %d, want 1", k, io.Retries())
		}
	}
}

// TestExtentHardFaultNamesPage: a hard fault on an extent read ends the
// scan in a typed *fault.Injected error that names the file and the first
// page of the extent.
func TestExtentHardFaultNamesPage(t *testing.T) {
	h := scanFile(t, t.TempDir(), 40000)
	installIO(t, &fault.IO{Plan: fault.NewPlan(5,
		fault.Rule{Op: fault.OpRead, Nth: 2, Kind: fault.KindErr})})
	_, err := scanKeys(h.NewScanner(NewBufferPool(8)))
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("scan error %v, want a *fault.Injected", err)
	}
	if want := fmt.Sprintf("%s page %d", h.Path(), extentPages); !strings.Contains(err.Error(), want) {
		t.Fatalf("scan error %q does not name %q", err, want)
	}
}

// TestExtentCorruptPageNamed: a page inside an extent that is not a column
// page fails the scan with ErrPageFormat naming that page, after the rows
// of the pages before it.
func TestExtentCorruptPageNamed(t *testing.T) {
	h := scanFile(t, t.TempDir(), 40000)
	const bad = extentPages + 5
	sc := h.NewScanner(nil)
	before := 0 // the rows of pages 0..bad-1
	for p := 0; p < bad; p++ {
		lo, hi, err := sc.Window(maxPageRows)
		if err != nil {
			t.Fatal(err)
		}
		before += hi - lo
		sc.Seek(hi)
	}
	sc.Close()
	raw, err := os.ReadFile(h.Path())
	if err != nil {
		t.Fatal(err)
	}
	clear(raw[bad*PageSize : bad*PageSize+4]) // the page's magic
	if err := os.WriteFile(h.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := scanKeys(h.NewScanner(NewBufferPool(8)))
	if want := fmt.Sprintf("%s page %d", h.Path(), bad); !errors.Is(err, ErrPageFormat) || !strings.Contains(err.Error(), want) {
		t.Fatalf("scan error %v, want ErrPageFormat naming %q", err, want)
	}
	if len(keys) != before {
		t.Fatalf("the scan read %d rows before failing, want the %d of pages 0..%d", len(keys), before, bad-1)
	}
}

// TestGovernedSorterSpillsEarly: under a tight governor the sorter spills
// before its tuple budget and the accounting balances back to zero.
func TestGovernedSorterSpillsEarly(t *testing.T) {
	dir := t.TempDir()
	g := fault.NewGovernor(memChunk, nil) // one chunk: pressure almost immediately
	s := NewExternalSorter(func(a, b table.Tuple) int {
		return table.Compare(a[0], b[0])
	}, 1<<20, dir) // tuple budget effectively infinite
	s.Govern(g)
	for i := 0; i < 5000; i++ {
		if err := s.Add(table.Tuple{table.Int(int64(i)), table.Str("xxxxxxxx")}); err != nil {
			t.Fatal(err)
		}
	}
	if s.EarlySpills() == 0 {
		t.Fatal("governed sorter never spilled early under pressure")
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	n := 0
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tup[0].I < prev {
			t.Fatalf("output out of order at %d", n)
		}
		prev = tup[0].I
		n++
	}
	if n != 5000 {
		t.Fatalf("sorted %d tuples, want 5000", n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if g.Used() != 0 {
		t.Fatalf("governor unbalanced after sort: %d", g.Used())
	}
	if !g.Pressured() {
		t.Fatal("governor must report pressure")
	}
}
