package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// sameValue reports whether two values are the same cell, floats bit for
// bit.
func sameValue(a, b table.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case table.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case table.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// writeTuples stores rows through HeapFile.Append and reopens the file.
func writeTuples(t *testing.T, rows []table.Tuple) *HeapFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := h.Append(r); err != nil {
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

// scanTuples reads a heap file back through Scanner.Next, cloning the lent
// tuples.
func scanTuples(t *testing.T, h *HeapFile) []table.Tuple {
	t.Helper()
	sc := h.NewScanner(nil)
	defer sc.Close()
	var out []table.Tuple
	for {
		tup, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, tup.Clone())
	}
}

// TestCodecRoundTrip: tuples of every kind, a NULL column among them,
// written through the column-page writer come back cell for cell, bit for
// bit, and in order.
func TestCodecRoundTrip(t *testing.T) {
	var rows []table.Tuple
	for i := 0; i < 2000; i++ {
		rows = append(rows, sampleTuple(i))
	}
	got := scanTuples(t, writeTuples(t, rows))
	if len(got) != len(rows) {
		t.Fatalf("read %d rows, wrote %d", len(got), len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if !sameValue(got[i][c], rows[i][c]) {
				t.Fatalf("row %d column %d: %v, want %v", i, c, got[i][c], rows[i][c])
			}
		}
	}
}

// TestCodecEmptyTuple: zero-column rows still round-trip — a page of them
// holds only its row count.
func TestCodecEmptyTuple(t *testing.T) {
	rows := make([]table.Tuple, 70000) // more than one page's row count
	for i := range rows {
		rows[i] = table.Tuple{}
	}
	h := writeTuples(t, rows)
	got := scanTuples(t, h)
	if len(got) != len(rows) || h.NumPages() != 2 {
		t.Fatalf("read %d zero-column rows from %d pages, wrote %d", len(got), h.NumPages(), len(rows))
	}
	for i, r := range got {
		if len(r) != 0 {
			t.Fatalf("row %d has %d columns", i, len(r))
		}
	}
}

// encodePage lays rows, of the given column kinds, out as one page.
func encodePage(t *testing.T, kinds []table.Kind, rows []table.Tuple) []byte {
	t.Helper()
	var w pageWriter
	b := fuzzBatch(kinds, rows, 0)
	w.begin(b, nil)
	if k := w.fitBatch(b, nil, 0, b.N); k != b.N {
		t.Fatalf("%d of %d rows fit a page", k, b.N)
	}
	w.pend.AppendBatch(b, 0, b.N)
	w.encode()
	return w.pg.Bytes()
}

// decodePage parses a page and decodes all of it onto a batch of the
// given kinds.
func decodePage(buf []byte, kinds []table.Kind) (*table.ColBatch, error) {
	var l pageLayout
	if err := l.parse(buf); err != nil {
		return nil, err
	}
	b := &table.ColBatch{Cols: make([]table.ColVec, len(kinds))}
	for c, k := range kinds {
		b.Cols[c].Kind = k
	}
	return b, l.decode(buf, b, 0, l.rows, nil)
}

// TestCodecCorruptInput: a page whose directory, sizes or string offsets
// lie fails to decode with an error, and a short one is no page at all.
func TestCodecCorruptInput(t *testing.T) {
	kinds := []table.Kind{table.KindInt, table.KindString, table.KindFloat}
	rows := []table.Tuple{
		{table.Int(1), table.Str("abc"), table.Float(0.5)},
		{table.Int(2), table.Str("de"), table.Float(-1)},
	}
	good := encodePage(t, kinds, rows)
	if _, err := decodePage(good, kinds); err != nil {
		t.Fatal(err)
	}
	dir := pageHeaderSize
	strData := pageHeaderSize + dirEntrySize*3 + 8*2 // column 1's offsets
	for _, tc := range []struct {
		name string
		edit func(p []byte)
	}{
		{"unknown kind", func(p []byte) { p[dir] = 99 }},
		{"unknown flag", func(p []byte) { p[dir+1] = 0x80 }},
		{"minipage offset off its place", func(p []byte) { binary.LittleEndian.PutUint16(p[dir+2:], 17) }},
		{"too many rows for the int minipage", func(p []byte) { binary.LittleEndian.PutUint16(p[6:], 3) }},
		{"columns past the page", func(p []byte) { binary.LittleEndian.PutUint16(p[8:], 4000) }},
		{"end past the page", func(p []byte) { binary.LittleEndian.PutUint16(p[10:], PageSize) }},
		{"string offsets going back", func(p []byte) { binary.LittleEndian.PutUint16(p[strData+4:], 1) }},
		{"string offset past the bytes", func(p []byte) { binary.LittleEndian.PutUint16(p[strData+4:], 200) }},
		{"header bytes not zero", func(p []byte) { p[13] = 1 }},
	} {
		p := append([]byte(nil), good...)
		tc.edit(p)
		if _, err := decodePage(p, kinds); err == nil {
			t.Errorf("%s: decoded without an error", tc.name)
		}
	}
	if _, err := decodePage(good[:PageSize-1], kinds); !errors.Is(err, ErrPageFormat) {
		t.Errorf("a truncated page: err = %v, want ErrPageFormat", err)
	}
	if _, err := decodePage(good, []table.Kind{table.KindInt, table.KindString}); err == nil {
		t.Error("a page of 3 columns decoded onto 2")
	}
}

// TestQuickCodecRoundTrip: arbitrary int, string, float and bool cells
// survive a write and a scan bit for bit.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(i int64, s string, fl float64, b bool) bool {
		orig := table.Tuple{table.Int(i), table.Str(s), table.Float(fl), table.Bool(b)}
		got := scanTuples(t, writeTuples(t, []table.Tuple{orig, orig}))
		if len(got) != 2 {
			return false
		}
		for c := range orig {
			if !sameValue(got[1][c], orig[c]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPageInsertAndRead: a page takes rows until the next one does not
// fit, then the writer starts another; every page's rows read back in
// order, the pages are well filled, and a new page starts whenever a row's
// arity or a non-NULL cell's kind differs from the page's, a page's column
// kind being its first row's.
func TestPageInsertAndRead(t *testing.T) {
	var rows []table.Tuple
	for i := 0; i < 1000; i++ {
		rows = append(rows, sampleTuple(i))
	}
	h := writeTuples(t, rows)
	perPage := len(rows) / int(h.NumPages())
	if perPage < 100 {
		t.Fatalf("%d small tuples per 8 KiB page, want hundreds", perPage)
	}
	sc := h.NewScanner(nil)
	pages := 0
	for {
		p, ok, err := sc.NextRaw()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if used := int(binary.LittleEndian.Uint16(p[10:12])); used < PageSize*3/4 && int64(pages) < h.NumPages()-1 {
			t.Errorf("page %d holds %d of %d bytes", pages, used, PageSize)
		}
		pages++
	}
	sc.Close()
	if int64(pages) != h.NumPages() {
		t.Fatalf("NextRaw handed out %d pages of %d", pages, h.NumPages())
	}

	mixed := []table.Tuple{
		{table.Int(1), table.Null()},
		{table.Int(2), table.Str("x")}, // a NULL column takes no string: a new page
		{table.Int(3), table.Null()},
		{table.Int(4), table.Int(5)}, // another kind: a new page
		{table.Int(6)},               // another arity: a new page
	}
	h = writeTuples(t, mixed)
	if h.NumPages() != 4 {
		t.Fatalf("%d pages, want 4", h.NumPages())
	}
	got := scanTuples(t, h)
	for i := range mixed {
		if got[i].String() != mixed[i].String() {
			t.Fatalf("row %d reads %v, want %v", i, got[i], mixed[i])
		}
	}
}

// TestPageRejectsOversizeRecord: a row that cannot fit an empty page is a
// hard error, not a full page — after the rows before it are written out,
// through either writer.
func TestPageRejectsOversizeRecord(t *testing.T) {
	h, err := CreateHeapFile(filepath.Join(t.TempDir(), "big.heap"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Remove()
	if err := h.Append(table.Tuple{table.Str("small")}); err != nil {
		t.Fatal(err)
	}
	big := table.Tuple{table.Str(strings.Repeat("x", PageSize))}
	if err := h.Append(big); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversize tuple: err = %v", err)
	}
	b := table.NewColBatch(table.NewSchema(table.DataCol("s", table.KindString)))
	b.AppendRow(big)
	if err := h.AppendBatch(b, nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversize batch row: err = %v", err)
	}
	if h.NumPages() != 1 || h.NumTuples() != 1 {
		t.Errorf("%d pages, %d rows written; want the small row's page", h.NumPages(), h.NumTuples())
	}
}

// TestPageFormatErrors: a heap file whose page is not a column page of
// this format — an old slotted-format page, a zeroed one, one of a later
// version — fails its first read with ErrPageFormat, naming the file and
// the page.
func TestPageFormatErrors(t *testing.T) {
	slotted := make([]byte, PageSize) // one record "\x01\x01\x02": the slotted page of the tuple (1)
	binary.LittleEndian.PutUint16(slotted[0:], 1)
	binary.LittleEndian.PutUint16(slotted[2:], PageSize-3)
	binary.LittleEndian.PutUint16(slotted[4:], PageSize-3)
	binary.LittleEndian.PutUint16(slotted[6:], 3)
	copy(slotted[PageSize-3:], []byte{1, byte(table.KindInt), 2})
	later := append([]byte(nil), encodePage(t, []table.Kind{table.KindInt}, []table.Tuple{{table.Int(1)}})...)
	binary.LittleEndian.PutUint16(later[4:], pageVersion+1)
	for name, page := range map[string][]byte{"slotted": slotted, "zeroed": make([]byte, PageSize), "later version": later} {
		path := filepath.Join(t.TempDir(), "old.heap")
		good := encodePage(t, []table.Kind{table.KindInt}, []table.Tuple{{table.Int(1)}})
		if err := os.WriteFile(path, append(append([]byte(nil), good...), page...), 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := OpenHeapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := h.NewScanner(NewBufferPool(2))
		_, err = scanAll(sc)
		sc.Close()
		h.Close()
		if !errors.Is(err, ErrPageFormat) || !strings.Contains(err.Error(), path+" page 1") {
			t.Errorf("%s page: err = %v, want ErrPageFormat naming %s page 1", name, err, path)
		}
	}
}

// scanAll counts the rows of a scan, stopping at its first error.
func scanAll(sc *Scanner) (int, error) {
	n := 0
	for {
		_, ok, err := sc.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// FuzzColPage round-trips random column batches through heap files of
// column pages: rows of a seeded random schema — every kind, an all-NULL
// column among them, the fuzzer's string, int and float among their
// values, NULLs sprinkled in — laid out in fuzzer-chosen string layouts,
// are written reps times, alternately as the live rows of a selection
// vector and in a permuted row order, across as many pages as that takes;
// NextBlock of a random subset of the columns, in random-sized blocks,
// Gather of a random subset of the rows of random-sized windows, read in
// extents by a ring scan, and Next read back exactly the rows written. Each page, mutated or truncated,
// decodes to an error or to cells, never to a panic.
func FuzzColPage(f *testing.F) {
	f.Add(int64(1), "a\x00b", int64(-1), 0.5, uint16(0), uint64(0), uint8(1))
	f.Add(int64(2), "", int64(math.MinInt64), math.Copysign(0, -1), uint16(0b0110_1101_1001), uint64(0x5555), uint8(40))
	f.Add(int64(3), "\xff\x00", int64(math.MaxInt64), math.Inf(-1), uint16(0xffff), ^uint64(0), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, s string, iv int64, fv float64, layouts uint16, drop uint64, reps uint8) {
		if len(s) > 512 {
			s = s[:512]
		}
		rng := rand.New(rand.NewSource(seed))
		kinds, rows := fuzzRows(rng, []table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool, table.KindNull}, s, iv, fv)
		b := fuzzBatch(kinds, rows, layouts)
		dropRows(b, drop)
		perm := make([]int32, b.N)
		for i, p := range rng.Perm(b.N) {
			perm[i] = int32(p)
		}
		path := filepath.Join(t.TempDir(), "f.heap")
		h, err := CreateHeapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want []table.Tuple
		for r := 0; r < 1+int(reps)%64; r++ {
			order := perm
			if r%2 == 0 {
				order = nil
			}
			if err := h.AppendBatch(b, order); err != nil {
				t.Fatal(err)
			}
			for i := range len(perm) {
				switch {
				case order != nil:
					want = append(want, rows[perm[i]])
				case i < b.Rows():
					want = append(want, rows[b.RowID(i)])
				}
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		h, err = OpenHeapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()

		schema := table.NewSchema()
		for c, k := range kinds {
			schema.Cols = append(schema.Cols, table.DataCol(fmt.Sprint("c", c), k))
		}
		need := make([]bool, len(kinds))
		for c := range need {
			need[c] = rng.Intn(3) > 0
		}
		sc := h.NewScanner(nil)
		var blk table.ColBatch
		at := 0
		for {
			blk.Reset(schema)
			n, err := sc.NextBlock(&blk, 1+rng.Intn(300), need)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				for c := range kinds {
					if need[c] && !sameValue(blk.Cols[c].Value(i), want[at+i][c]) {
						t.Fatalf("row %d column %d: NextBlock reads %v, want %v", at+i, c, blk.Cols[c].Value(i), want[at+i][c])
					}
				}
			}
			at += n
		}
		sc.Close()
		if at != len(want) {
			t.Fatalf("NextBlock read %d rows, want %d", at, len(want))
		}
		sc, at = h.NewScanner(NewBufferPool(1)), 0 // a ring scan
		for {
			lo, hi, err := sc.Window(1 + rng.Intn(300))
			if err != nil {
				t.Fatal(err)
			}
			if lo == hi {
				break
			}
			var sel []int32
			for r := 0; r < hi-lo; r++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(r))
				}
			}
			blk.Reset(schema)
			if err := sc.Gather(&blk, lo, sel, need); err != nil {
				t.Fatal(err)
			}
			for i, r := range sel {
				for c := range kinds {
					if w := want[at+int(r)][c]; need[c] && !sameValue(blk.Cols[c].Value(i), w) {
						t.Fatalf("row %d column %d: Gather reads %v, want %v", at+int(r), c, blk.Cols[c].Value(i), w)
					}
				}
			}
			sc.Seek(hi)
			at += hi - lo
		}
		sc.Close()
		if at != len(want) {
			t.Fatalf("Window read %d rows, want %d", at, len(want))
		}
		sc = h.NewScanner(nil)
		for i := 0; ; i++ {
			tup, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(want) {
					t.Fatalf("Next read %d rows, want %d", i, len(want))
				}
				break
			}
			for c := range tup {
				if !sameValue(tup[c], want[i][c]) {
					t.Fatalf("row %d column %d: Next reads %v, want %v", i, c, tup[c], want[i][c])
				}
			}
		}
		sc.Close()

		var page Page
		for no := int64(0); no < h.NumPages(); no++ {
			if err := h.ReadPage(no, &page); err != nil {
				t.Fatal(err)
			}
			buf := append([]byte(nil), page.Bytes()...)
			if _, err := decodePage(buf[:rng.Intn(PageSize)], kinds); err == nil {
				t.Fatalf("page %d truncated decodes without an error", no)
			}
			torn := make([]byte, PageSize)
			copy(torn, buf[:rng.Intn(PageSize)])
			if _, err := decodePage(torn, kinds); !errors.Is(err, ErrPageFormat) {
				t.Fatalf("page %d torn: err = %v, want ErrPageFormat", no, err)
			}
			for m := 0; m < 8; m++ {
				at := rng.Intn(pageHeaderSize + dirEntrySize*len(kinds) + 64)
				if m%2 == 1 {
					at = rng.Intn(PageSize)
				}
				buf[at] ^= byte(1 + rng.Intn(255))
				decodePage(buf, kinds) // an error or cells; a panic fails the fuzzer
			}
		}
	})
}
