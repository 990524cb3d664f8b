package storage

import (
	"errors"
	"os"
	"path/filepath"
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

// TestScanAbortUnpinsPages: a scan that stops mid-file (injected read
// fault) leaves zero pinned frames once closed — the chaos harness's
// pinned-page invariant in miniature.
func TestScanAbortUnpinsPages(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ { // several pages
		if err := h.Append(table.Tuple{table.Int(int64(i)), table.Str("xxxxxxxx")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FinishWrites(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	installIO(t, &fault.IO{Plan: fault.NewPlan(3,
		fault.Rule{Op: fault.OpRead, Nth: 2, Kind: fault.KindErr})})
	pool := NewBufferPool(8)
	sc := h.NewScanner(pool)
	var scanErr error
	for {
		_, ok, err := sc.Next()
		if err != nil {
			scanErr = err
			break
		}
		if !ok {
			break
		}
	}
	sc.Close()
	if !fault.IsInjected(scanErr) {
		t.Fatalf("scan error %v, want injected read fault", scanErr)
	}
	if n := pool.Pinned(); n != 0 {
		t.Errorf("%d frames still pinned after aborted scan", n)
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
