package engine

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/table"
)

// bandRel builds rows whose selections qualify whole runs of pages or
// none: band is (row/700)%3, so band = 1 holds on runs of 700 rows between
// runs of 1400 that fail; n is NULL on every row of blocks of 900, so those
// pages store it as a KindNull minipage; d is a date-like string.
func bandRel(rows int) *table.Relation {
	sch := table.NewSchema(
		table.DataCol("k", table.KindInt), table.DataCol("band", table.KindInt),
		table.DataCol("n", table.KindInt), table.DataCol("x", table.KindFloat),
		table.DataCol("d", table.KindString), table.DataCol("s", table.KindString),
	)
	rel := table.NewRelation(sch)
	for i := 0; i < rows; i++ {
		n := table.Int(int64(i % 11))
		if (i/900)%2 == 1 || i%13 == 0 {
			n = table.Null()
		}
		rel.MustAppend(table.Tuple{
			table.Int(int64(i)), table.Int(int64((i / 700) % 3)), n,
			table.Float(float64((i * 37) % 100)),
			table.Str(fmt.Sprintf("199%d-%02d-01", 3+i%5, 1+i%12)),
			table.Str(fmt.Sprintf("s-%d", i%7)),
		})
	}
	return rel
}

// referenceFilter keeps the rows of all that satisfy every predicate, under
// table.Compare.
func referenceFilter(all *table.Relation, preds []ColPred) []table.Tuple {
	var out []table.Tuple
	for _, row := range all.Rows {
		keep := true
		for _, p := range preds {
			keep = keep && p.Op.Holds(table.Compare(row[p.Col], p.Val))
		}
		if keep {
			out = append(out, row)
		}
	}
	return out
}

// checkScanBatches drains scan, whose need mask is need, and checks it
// against want cell for cell and in order: every batch is dense (no
// selection), every batch but the last is full, the needed columns hold
// want's cells and the others nothing.
func checkScanBatches(t *testing.T, label string, scan ColOperator, need []bool, want []table.Tuple) {
	t.Helper()
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	b := table.NewColBatch(scan.Schema())
	at := 0
	for {
		n, err := scan.NextColBatch(b)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n == 0 {
			break
		}
		if b.Sel != nil || n != b.N {
			t.Fatalf("%s: batch of %d live rows over %d with a selection, want a dense batch", label, n, b.N)
		}
		if at+n < len(want) && n != BatchSize {
			t.Fatalf("%s: a batch of %d rows before the last (%d of %d rows read)", label, n, at+n, len(want))
		}
		if at+n > len(want) {
			t.Fatalf("%s: %d rows and more, want %d", label, at+n, len(want))
		}
		for c := range b.Cols {
			v := &b.Cols[c]
			if need != nil && !need[c] {
				if cells := len(v.Ints) + len(v.Floats) + len(v.Strs) + len(v.Bytes) + len(v.Nulls); cells != 0 {
					t.Fatalf("%s: column %d is not needed but holds %d cells", label, c, cells)
				}
				continue
			}
			for i := 0; i < n; i++ {
				if got := v.Value(i); got != want[at+i][c] {
					t.Fatalf("%s: row %d column %d = %v, want %v", label, at+i, c, got, want[at+i][c])
				}
			}
		}
		at += n
	}
	if at != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, at, len(want))
	}
}

// scanPredCases are the predicate sets the scan equivalence tests run:
// whole runs of pages that qualify nothing, NULLs and KindNull minipages
// (a NULL n is below 5), flat strings on disk, two predicates on one
// column, and a set nothing satisfies.
var scanPredCases = [][]ColPred{
	{{Col: 1, Op: OpEq, Val: table.Int(1)}},
	{{Col: 2, Op: OpLt, Val: table.Int(5)}, {Col: 4, Op: OpGe, Val: table.Str("1995")}},
	{{Col: 3, Op: OpGt, Val: table.Float(50)}, {Col: 5, Op: OpNe, Val: table.Str("s-3")}},
	{{Col: 4, Op: OpGe, Val: table.Str("1994-01-01")}, {Col: 4, Op: OpLt, Val: table.Str("1995-01-01")}, {Col: 2, Op: OpEq, Val: table.Null()}},
	{{Col: 1, Op: OpEq, Val: table.Int(1)}, {Col: 1, Op: OpEq, Val: table.Int(2)}},
}

// TestColHeapScanPredsMatchReference: a heap scan evaluating predicates
// returns what a scan without them, then a reference filter, returns —
// cell for cell and in order — for every need mask: its batches straddle
// pages, skip pages where no row qualifies and pages whose predicate column
// is a KindNull minipage, and fill densely from more than one page.
func TestColHeapScanPredsMatchReference(t *testing.T) {
	rel := bandRel(12000)
	h := writeHeap(t, t.TempDir(), rel)
	if pages := h.NumPages(); pages < 8 {
		t.Fatalf("%d pages, want batches to straddle many", pages)
	}
	pool := storage.NewBufferPool(16)
	if nullPages := kindNullPages(t, h, rel.Schema.Len(), 2); nullPages == 0 {
		t.Fatal("no page stores column n as a KindNull minipage")
	}
	all := collect(t, NewColHeapScan(h, pool, rel.Schema))
	mustSameRelations(t, "unfiltered heap scan", all, rel)
	cols := rel.Schema.Len()
	for pi, preds := range scanPredCases {
		want := referenceFilter(all, preds)
		if pi < len(scanPredCases)-1 && len(want) <= BatchSize {
			t.Fatalf("case %d qualifies %d rows, want more than a batch", pi, len(want))
		}
		for mask := 0; mask <= 1<<cols; mask++ {
			var need []bool // mask 1<<cols: nil, every column
			if mask < 1<<cols {
				need = make([]bool, cols)
				for c := range need {
					need[c] = mask&(1<<c) != 0
				}
			}
			scan := NewColHeapScan(h, pool, rel.Schema)
			scan.Preds, scan.need = preds, need
			checkScanBatches(t, fmt.Sprintf("heap case %d need %0*b", pi, cols, mask), scan, need, want)
			if mask%9 == 0 {
				chunks := memScan(rel)
				chunks.Preds, chunks.need = preds, need
				checkScanBatches(t, fmt.Sprintf("chunks case %d need %0*b", pi, cols, mask), chunks, need, want)
			}
		}
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("%d frames pinned after the scans", n)
	}
}

// TestConcurrentChunkScansLeaveChunksAlone: two chunk scans with
// predicates, draining one chunk set at once, each return the reference
// rows and write nothing into the shared chunks — no selection, no cell —
// which the race detector checks as well.
func TestConcurrentChunkScansLeaveChunksAlone(t *testing.T) {
	rel := bandRel(5000)
	chunks := memScan(rel).Chunks
	before := make([]uint64, len(chunks))
	for i, c := range chunks {
		before[i] = chunkDigest(c)
	}
	preds := scanPredCases[:3]
	got := make([][]*table.Relation, len(preds))
	var wg sync.WaitGroup
	for g := range preds {
		got[g] = make([]*table.Relation, 2)
		for r := range got[g] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scan := &ColChunkScan{S: rel.Schema, Chunks: chunks, Preds: preds[g]}
				sink := NewRelationSink(rel.Schema)
				if err := StreamCtx(nil, scan, sink); err == nil {
					got[g][r] = sink.Rel
				}
			}()
		}
	}
	wg.Wait()
	for g := range preds {
		want := &table.Relation{Schema: rel.Schema, Rows: referenceFilter(rel, preds[g])}
		for r, rel := range got[g] {
			if rel == nil {
				t.Fatalf("case %d scan %d failed", g, r)
			}
			mustSameRelations(t, fmt.Sprintf("concurrent case %d scan %d", g, r), rel, want)
		}
	}
	for i, c := range chunks {
		if c.Sel != nil || chunkDigest(c) != before[i] {
			t.Fatalf("chunk %d changed under the scans (selection %v)", i, c.Sel)
		}
	}
}

// kindNullPages counts the pages of h whose column col, an int column of a
// cols-column file, is stored as a KindNull minipage: the ones that decode
// under a string column, as only an all-NULL minipage can.
func kindNullPages(t *testing.T, h *storage.HeapFile, cols, col int) int {
	t.Helper()
	as := make([]table.Column, cols)
	need := make([]bool, cols)
	for c := range as {
		as[c] = table.DataCol(fmt.Sprint("c", c), table.KindString)
	}
	need[col] = true
	b := table.NewColBatch(table.NewSchema(as...))
	sc := h.NewScanner(nil)
	defer sc.Close()
	n := 0
	for {
		lo, hi, err := sc.Window(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		if lo == hi {
			return n
		}
		b.Reset(b.Schema)
		if sc.Decode(b, lo, hi, need) == nil {
			n++
		}
		sc.Seek(hi)
	}
}

// chunkDigest hashes every cell of a chunk's rows and its row count.
func chunkDigest(c *table.ColBatch) uint64 {
	idx := make([]int, len(c.Cols))
	for i := range idx {
		idx[i] = i
	}
	h := uint64(c.N)
	for i, x := range c.HashInto(idx, nil) {
		h = bits.RotateLeft64(h, 7) ^ x ^ uint64(i)
	}
	return h
}
