package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/prob"
	"repro/internal/storage"
	"repro/internal/table"
)

// colTestRel builds a relation exercising every columnar layout: ints,
// floats, a string column whose cardinality is set by strCard, and the V/P
// lineage columns.
func colTestRel(rows, strCard int, seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	sch := table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("x", table.KindFloat),
		table.DataCol("s", table.KindString),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	for i := 0; i < rows; i++ {
		rel.MustAppend(table.Tuple{
			table.Int(int64(i % 97)),
			table.Float(rng.Float64() * 100),
			table.Str(fmt.Sprintf("s-%04d", rng.Intn(strCard))),
			table.VarValue(prob.Var(i + 1)), table.Float(0.5),
		})
	}
	return rel
}

// bytesScan scans a relation appending string cells as raw bytes
// (ColVec.AppendStrBytes), as the heap scan does: string columns arrive in
// the flat layout.
type bytesScan struct {
	Rel *table.Relation
	pos int
}

func (s *bytesScan) Schema() *table.Schema { return s.Rel.Schema }
func (s *bytesScan) Open() error           { s.pos = 0; return nil }
func (s *bytesScan) Close() error          { return nil }

// NextColBatch transposes up to BatchSize rows onto dst.
func (s *bytesScan) NextColBatch(dst *table.ColBatch) (int, error) {
	end := min(s.pos+BatchSize, len(s.Rel.Rows))
	dst.Reset(s.Rel.Schema)
	for _, row := range s.Rel.Rows[s.pos:end] {
		for c, v := range row {
			if v.Kind == table.KindString {
				dst.Cols[c].AppendStrBytes([]byte(v.S))
			} else {
				dst.Cols[c].AppendValue(dst.N, v)
			}
		}
		dst.N++
	}
	s.pos = end
	return dst.N, nil
}

// writeHeap persists rel as a heap file and reopens it read-only.
func writeHeap(t *testing.T, dir string, rel *table.Relation) *storage.HeapFile {
	t.Helper()
	path := filepath.Join(dir, "t.heap")
	h, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rel.Rows {
		if err := h.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := storage.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	return ro
}

func mustSameRelations(t *testing.T, label string, got, want *table.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if len(g) != len(w) {
			t.Fatalf("%s: row %d arity %d, want %d", label, i, len(g), len(w))
		}
		for c := range w {
			if g[c] != w[c] {
				t.Fatalf("%s: row %d col %d = %v, want %v (bit-identical required)", label, i, c, g[c], w[c])
			}
		}
	}
}

// TestColHeapScanRoundTrip: decoding a heap file straight into column
// vectors reproduces every stored tuple in order, with the string column in
// the flat layout at a low and a high cardinality, with and without
// dead-column pruning.
func TestColHeapScanRoundTrip(t *testing.T) {
	for _, strCard := range []int{16, 320} {
		rel := colTestRel(3*BatchSize+17, strCard, 5)
		h := writeHeap(t, t.TempDir(), rel)
		pool := storage.NewBufferPool(8)
		got := collect(t, NewColHeapScan(h, pool, rel.Schema))
		mustSameRelations(t, fmt.Sprintf("strCard=%d", strCard), got, rel)

		// Pruned scan: only k and P survive; the dead columns' vectors stay
		// empty but live columns decode identically.
		sc := NewColHeapScan(h, pool, rel.Schema)
		sc.need = []bool{true, false, false, false, true}
		if err := sc.Open(); err != nil {
			t.Fatal(err)
		}
		b := table.NewColBatch(rel.Schema)
		n, err := sc.NextColBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n != BatchSize {
			t.Fatalf("pruned scan first batch: %d rows, want %d", n, BatchSize)
		}
		for i := 0; i < n; i++ {
			if got := b.Cols[0].Value(i); got != rel.Rows[i][0] {
				t.Fatalf("pruned scan row %d k = %v, want %v", i, got, rel.Rows[i][0])
			}
			if got := b.Cols[4].Value(i); got != rel.Rows[i][4] {
				t.Fatalf("pruned scan row %d P = %v, want %v", i, got, rel.Rows[i][4])
			}
		}
		if len(b.Cols[2].Strs)+len(b.Cols[2].Bytes) != 0 {
			t.Fatal("pruned string column decoded cells anyway")
		}
		sc.Close()
	}
}

// TestColChunkScanPruned: under a projection that keeps k and P behind a
// filter on x, a chunk scan copies only k, x and P out of its chunks — the
// dead columns' vectors stay empty — and the pipeline's answer is the
// unpruned one.
func TestColChunkScanPruned(t *testing.T) {
	rel := colTestRel(2*BatchSize+5, 16, 9)
	pipeline := func() (*ColChunkScan, ColOperator) {
		scan := memScan(rel)
		f := &ColFilter{In: scan, Preds: []ColPred{{Col: 1, Op: OpLt, Val: table.Float(50)}}}
		p, err := NewColumnProject(f, []string{"k", "P(R)"})
		if err != nil {
			t.Fatal(err)
		}
		return scan, p
	}
	want := table.NewRelation(table.NewSchema(rel.Schema.Cols[0], rel.Schema.Cols[4]))
	for _, row := range rel.Rows {
		if row[1].F < 50 {
			want.MustAppend(table.Tuple{row[0], row[4]})
		}
	}
	scan, op := pipeline()
	mustSameRelations(t, "pruned pipeline", collect(t, op), want)
	if fmt.Sprint(scan.need) != "[true true false false true]" {
		t.Fatalf("chunk scan need = %v, want k, x and P", scan.need)
	}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	b := table.NewColBatch(rel.Schema)
	if n, err := scan.NextColBatch(b); err != nil || n != BatchSize {
		t.Fatalf("pruned chunk scan: %d rows, err %v; want %d", n, err, BatchSize)
	}
	for c, live := range scan.need {
		v := &b.Cols[c]
		if cells := len(v.Ints) + len(v.Floats) + len(v.Strs) + len(v.Bytes); live != (cells == BatchSize) || !live && cells != 0 {
			t.Fatalf("column %d (live %v) holds %d cells after a %d-row batch", c, live, cells, BatchSize)
		}
	}
}

// TestColHeapScanRejectsWrongKind: a stored field that is neither NULL nor
// of its schema column's kind fails the scan with an error naming the
// column and both kinds; it never enters a column vector.
func TestColHeapScanRejectsWrongKind(t *testing.T) {
	stored := table.NewRelation(table.NewSchema(table.DataCol("k", table.KindInt), table.DataCol("price", table.KindInt)))
	stored.MustAppend(table.Tuple{table.Int(1), table.Null()}) // NULL fits a float column
	stored.MustAppend(table.Tuple{table.Int(2), table.Int(3)})
	h := writeHeap(t, t.TempDir(), stored)
	declared := table.NewSchema(table.DataCol("k", table.KindInt), table.DataCol("price", table.KindFloat))
	sc := NewColHeapScan(h, storage.NewBufferPool(4), declared)
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	_, err := sc.NextColBatch(table.NewColBatch(declared))
	if err == nil || !strings.Contains(err.Error(), "column price is float, stored field is int") {
		t.Fatalf("scan of an int stored under a float column: err = %v", err)
	}
}

// TestColPipelineIdentity: a planner-shaped tree — filter → hash join →
// project — drained through StreamCtx over memory and disk scans returns
// the rows of a nested-loop reference, in its order (probe rows in scan
// order, their matches in build order), with bit-identical cells.
func TestColPipelineIdentity(t *testing.T) {
	rel := colTestRel(2000, 24, 9)
	h := writeHeap(t, t.TempDir(), rel)
	pool := storage.NewBufferPool(8)
	var want []table.Tuple
	for _, l := range rel.Rows {
		if l[0].I >= 60 {
			continue
		}
		for _, r := range rel.Rows {
			if r[0].I == l[0].I {
				want = append(want, table.Tuple{l[0], l[2], l[3], l[4]})
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("reference produced no rows")
	}
	sources := []struct {
		name string
		mk   func() ColOperator
	}{
		{"mem", func() ColOperator { return memScan(rel) }},
		{"heap", func() ColOperator { return NewColHeapScan(h, pool, rel.Schema) }},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			names := rel.Schema.Names()
			f := &ColFilter{In: src.mk(), Preds: []ColPred{{Col: 0, Op: OpLt, Val: table.Int(60)}}}
			p, err := NewColumnProject(hashJoin(t, f, src.mk(), []int{0}, []int{0}), []string{names[0], names[2], names[3], names[4]})
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, p)
			mustSameRelations(t, src.name, got, &table.Relation{Schema: p.Schema(), Rows: want})
		})
	}
}

// TestPruneColsLiveness: pruning marks exactly the projected columns plus
// the filter's predicate columns live at the scan, and the pruned pipeline
// still produces the right projected rows.
func TestPruneColsLiveness(t *testing.T) {
	rel := colTestRel(1200, 18, 33)
	h := writeHeap(t, t.TempDir(), rel)
	pool := storage.NewBufferPool(8)
	names := rel.Schema.Names()
	scan := NewColHeapScan(h, pool, rel.Schema)
	f := &ColFilter{In: scan, Preds: []ColPred{{Col: 1, Op: OpLt, Val: table.Float(50)}}}
	p, err := NewColumnProject(f, []string{names[2], names[4]})
	if err != nil {
		t.Fatal(err)
	}
	pruneCols(p, nil)
	// Live: s (projected), P (projected), x (predicate). Dead: k, V.
	wantNeed := []bool{false, true, true, false, true}
	if len(scan.need) != len(wantNeed) {
		t.Fatalf("need has %d entries, want %d", len(scan.need), len(wantNeed))
	}
	for i, w := range wantNeed {
		if scan.need[i] != w {
			t.Fatalf("need[%d] = %v, want %v (%s)", i, scan.need[i], w, names[i])
		}
	}
	// The drain prunes the same way: the pruned pipeline still produces the
	// projected rows.
	want := &table.Relation{Schema: p.Schema()}
	for _, row := range rel.Rows {
		if row[1].F < 50 {
			want.Rows = append(want.Rows, table.Tuple{row[2], row[4]})
		}
	}
	if want.Len() == 0 {
		t.Fatal("reference produced no rows")
	}
	mustSameRelations(t, "pruned", collect(t, p), want)
}

// TestColFilterAllocs pins the vectorized filter loop: narrowing the
// selection vector over typed columns must not allocate per batch once the
// batch storage is warm.
func TestColFilterAllocs(t *testing.T) {
	rel := colTestRel(8*BatchSize, 8, 41)
	f := &ColFilter{
		In: memScan(rel),
		Preds: []ColPred{
			{Col: 0, Op: OpLt, Val: table.Int(70)},
			{Col: 1, Op: OpGe, Val: table.Float(10)},
		},
	}
	b := table.NewColBatch(rel.Schema)
	drain := func() {
		if err := f.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			n, err := f.NextColBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			rows += n
		}
		if rows == 0 {
			t.Fatal("filter qualified no rows")
		}
		f.Close()
	}
	drain() // warm the batch storage and selection buffer
	avg := testing.AllocsPerRun(10, drain)
	if avg > 8 {
		t.Fatalf("vectorized filter allocated %.1f times per %d-batch drain, want ≤ 8", avg, 8)
	}
}

// TestHashIntoAllocs pins the vectorized hash-key loop: hashing every live
// row of a warm batch into a reused destination must not allocate at all.
func TestHashIntoAllocs(t *testing.T) {
	rel := colTestRel(BatchSize, 8, 43)
	b := table.NewColBatch(rel.Schema)
	for _, row := range rel.Rows[:BatchSize] {
		b.AppendRow(row)
	}
	dst := make([]uint64, BatchSize)
	idx := []int{0, 2}
	run := func() { dst = b.HashInto(idx, dst) }
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("HashInto allocated %.1f times per batch, want 0", avg)
	}
	// Spot-check against the row-side hash while we're here.
	for i := 0; i < BatchSize; i += 97 {
		if want := table.HashOn(rel.Rows[i], idx); dst[i] != want {
			t.Fatalf("row %d: hash %#x, want %#x", i, dst[i], want)
		}
	}
}

// TestJoinFailedOpenReleasesPins: a failed Open leaves the join fully
// closed, children included — callers do not Close a tree whose Open
// errored. The build side here is a heap scan whose declared schema has the
// wrong arity, so the build errors mid-page with a frame pinned; the join,
// governed or not, must have unpinned it by the time Open returns.
func TestJoinFailedOpenReleasesPins(t *testing.T) {
	rel := colTestRel(300, 8, 3)
	h := writeHeap(t, t.TempDir(), rel)
	bp := storage.NewBufferPool(8)
	narrow := table.NewSchema(rel.Schema.Cols[:4]...)
	for _, governed := range []bool{false, true} {
		t.Run(map[bool]string{false: "hash", true: "governed"}[governed], func(t *testing.T) {
			j := hashJoin(t, NewColHeapScan(h, bp, rel.Schema), NewColHeapScan(h, bp, narrow), []int{0}, []int{0})
			if governed {
				j.Mem = fault.NewGovernor(1<<30, nil)
			}
			if err := j.Open(); err == nil {
				t.Fatal("Open must fail on the build side's arity mismatch")
			}
			if n := bp.Pinned(); n != 0 {
				t.Fatalf("failed Open left %d frames pinned", n)
			}
		})
	}
}

// TestHashJoinBuildOrder pins the chunked build's order: the join emits
// exactly a nested-loop reference's rows in sequence — probe-major, then
// build-input order within a key — not just the same multiset. The build
// side has more than 3*BatchSize rows and passes through a ColFilter, so
// its batches carry a selection vector and fill the BatchSize-row chunks
// unevenly; its keys come in 50-row duplicate blocks that straddle chunk
// boundaries, as floats joined to the probe's ints (3.0 meets 3, 2.5
// meets nothing) and as NULL blocks (NULL meets NULL, as under Compare);
// its string payload is distinct per row, so the chunks hold it flat.
func TestHashJoinBuildOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	right := table.NewRelation(table.NewSchema(
		table.DataCol("k", table.KindFloat), table.DataCol("keep", table.KindInt),
		table.DataCol("tag", table.KindString)))
	for i := 0; i < 5000; i++ {
		block := i / 50
		k := table.Float(float64(block % 37))
		switch {
		case block%11 == 5:
			k = table.Null()
		case block%13 == 7:
			k = table.Float(float64(block%37) + 0.5)
		}
		right.MustAppend(table.Tuple{k, table.Int(int64(rng.Intn(3))), table.Str(fmt.Sprintf("r-%d", i))})
	}
	left := table.NewRelation(table.NewSchema(table.DataCol("k", table.KindInt), table.DataCol("l", table.KindString)))
	for i := 0; i < 300; i++ {
		k := table.Int(int64(rng.Intn(40)))
		if i%17 == 0 {
			k = table.Null()
		}
		left.MustAppend(table.Tuple{k, table.Str(fmt.Sprintf("l-%d", i))})
	}
	keep := []ColPred{{Col: 1, Op: OpNe, Val: table.Int(0)}}
	j := hashJoin(t, memScan(left), &ColFilter{In: &bytesScan{Rel: right}, Preds: keep}, []int{0}, []int{0})
	want := &table.Relation{Schema: j.Schema()}
	built := 0
	for _, r := range right.Rows {
		if r[1].I != 0 {
			built++
		}
	}
	for _, l := range left.Rows {
		for _, r := range right.Rows {
			if r[1].I != 0 && table.Compare(l[0], r[0]) == 0 {
				want.Rows = append(want.Rows, append(slices.Clone(l), r...))
			}
		}
	}
	if built <= 3*BatchSize {
		t.Fatalf("build side has %d rows, want more than %d", built, 3*BatchSize)
	}
	mustSameRelations(t, "chunked build", collect(t, j), want)
}

// TestColHashJoinBoundsOutputBatches: the columnar probe resumes inside a
// key's chain, so a fan-out join — one probe row matching 5 000 build
// rows, or every row of a full probe batch matching 30 — hands out batches
// of at most BatchSize rows whose concatenation is the join's output, in
// probe order. The grace merge resumes inside its equal-key block the same
// way: the one-row fan-out in grace mode obeys the same bound.
func TestColHashJoinBoundsOutputBatches(t *testing.T) {
	for _, tc := range []struct {
		name          string
		probe, fanout int
		grace         bool
	}{
		{"1x5000", 1, 5000, false},
		{"1024x30", 1024, 30, false},
		{"1x5000-grace", 1, 5000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			left := table.NewRelation(table.NewSchema(table.DataCol("k", table.KindInt), table.DataCol("l", table.KindString)))
			right := table.NewRelation(table.NewSchema(table.DataCol("k", table.KindInt), table.DataCol("r", table.KindInt)))
			for i := 0; i < tc.probe; i++ {
				left.MustAppend(table.Tuple{table.Int(int64(i)), table.Str(fmt.Sprintf("l-%d", i))})
				for m := 0; m < tc.fanout; m++ {
					right.MustAppend(table.Tuple{table.Int(int64(i)), table.Int(int64(i*tc.fanout + m))})
				}
			}
			cop := hashJoin(t, memScan(left), memScan(right), []int{0}, []int{0})
			if tc.grace {
				cop = graceJoin(t, left, right, []int{0}, []int{0})
			}
			want := &table.Relation{Schema: cop.Schema()}
			for _, l := range left.Rows {
				for _, r := range right.Rows[l[0].I*int64(tc.fanout):][:tc.fanout] {
					want.Rows = append(want.Rows, append(slices.Clone(l), r...))
				}
			}
			if err := cop.Open(); err != nil {
				t.Fatal(err)
			}
			defer cop.Close()
			if cop.GraceMode() != tc.grace {
				t.Fatalf("GraceMode = %v, want %v", cop.GraceMode(), tc.grace)
			}
			got := NewRelationSink(cop.Schema())
			b := table.NewColBatch(cop.Schema())
			for {
				n, err := cop.NextColBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				if n > BatchSize {
					t.Fatalf("output batch of %d rows exceeds BatchSize %d", n, BatchSize)
				}
				if err := got.AddBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			mustSameRelations(t, tc.name, got.Rel, want)
		})
	}
}
