package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/table"
)

func intsRel(name string, vals ...int64) *table.Relation {
	r := table.NewRelation(table.NewSchema(table.DataCol(name, table.KindInt)))
	for _, v := range vals {
		r.MustAppend(table.Tuple{table.Int(v)})
	}
	return r
}

// pairRel builds a two-int-column relation from (a,b) pairs.
func pairRel(aName, bName string, pairs ...[2]int64) *table.Relation {
	r := table.NewRelation(table.NewSchema(table.DataCol(aName, table.KindInt), table.DataCol(bName, table.KindInt)))
	for _, p := range pairs {
		r.MustAppend(table.Tuple{table.Int(p[0]), table.Int(p[1])})
	}
	return r
}

// drain opens a row operator, collects clones of its whole stream and
// closes it.
func drain(t *testing.T, op Operator) []table.Tuple {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var rows []table.Tuple
	var slab table.Slab
	if err := pumpRows(op, func(batch []table.Tuple) error {
		for _, r := range batch {
			rows = append(rows, slab.Clone(r))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// collect drains a columnar operator into a relation through StreamCtx.
func collect(t *testing.T, op ColOperator) *table.Relation {
	t.Helper()
	sink := NewRelationSink(op.Schema())
	if err := StreamCtx(nil, op, sink); err != nil {
		t.Fatal(err)
	}
	return sink.Rel
}

// count drains a row operator and returns only the row count.
func count(op Operator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	var n int64
	buf := make([]table.Tuple, BatchSize)
	for {
		k, err := op.NextBatch(buf)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return n, nil
		}
		n += int64(k)
	}
}

// countCols is count for a columnar operator.
func countCols(op ColOperator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	var n int64
	b := table.NewColBatch(op.Schema())
	for {
		k, err := op.NextColBatch(b)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return n, nil
		}
		n += int64(k)
	}
}

// hashJoin is NewColHashJoin for inputs known to be well formed.
func hashJoin(t *testing.T, l, r ColOperator, lk, rk []int) *ColHashJoin {
	t.Helper()
	j, err := NewColHashJoin(l, r, lk, rk)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestMemScanAndCount(t *testing.T) {
	rel := intsRel("a", 1, 2, 3)
	n, err := count(NewMemScan(rel))
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
	rows := drain(t, NewMemScan(rel))
	if len(rows) != 3 || rows[2][0].I != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFilter(t *testing.T) {
	rel := intsRel("a", 1, 2, 3, 4, 5)
	f := &ColFilter{In: &ColMemScan{Rel: rel}, Preds: []ColPred{{Col: 0, Op: OpGt, Val: table.Int(3)}}}
	rows := collect(t, f).Rows
	if len(rows) != 2 || rows[0][0].I != 4 || rows[1][0].I != 5 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestCmpOps is ColFilter's predicate table: for every CmpOp, the rows a
// column-vs-constant predicate keeps are exactly those whose cell c has
// op.Holds(table.Compare(c, constant)) — over NULL cells, int columns
// against float constants and float columns against int ones, the typed
// null-free fast paths, bool columns, and string columns in every layout:
// shared headers (in-memory scans), dictionary codes and flat bytes (heap
// scans, the second column above DictMaxCard distinct values). Each
// predicate runs on a fresh batch (no selection vector) and behind a first
// predicate that leaves every other row selected.
func TestCmpOps(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("odd", table.KindInt),
		table.DataCol("i", table.KindInt), table.DataCol("inn", table.KindInt),
		table.DataCol("f", table.KindFloat), table.DataCol("fnn", table.KindFloat),
		table.DataCol("sd", table.KindString), table.DataCol("sf", table.KindString),
		table.DataCol("b", table.KindBool),
	)
	rel := table.NewRelation(sch)
	rng := rand.New(rand.NewSource(13))
	maybeNull := func(v table.Value) table.Value {
		if rng.Intn(5) == 0 {
			return table.Null()
		}
		return v
	}
	for r := 0; r < BatchSize+300; r++ {
		k := int64(rng.Intn(7))
		rel.MustAppend(table.Tuple{
			table.Int(int64(r % 2)),
			maybeNull(table.Int(k)), table.Int(k),
			maybeNull(table.Float(float64(k) / 2)), table.Float(float64(k) / 2),
			maybeNull(table.Str(fmt.Sprintf("d%d", k))), table.Str(fmt.Sprintf("f%05d", rng.Intn(4*table.DictMaxCard))),
			table.Bool(k%2 == 0),
		})
	}
	h := writeHeap(t, t.TempDir(), rel)
	pool := storage.NewBufferPool(8)
	consts := map[string][]table.Value{
		"i":   {table.Int(3), table.Float(2.5), table.Float(3), table.Null()},
		"inn": {table.Int(3), table.Float(2.5)},
		"f":   {table.Float(1.5), table.Int(2), table.Null()},
		"fnn": {table.Float(1.5), table.Int(2)},
		"sd":  {table.Str("d3"), table.Str("zz")},
		"sf":  {table.Str("f00500"), table.Str("a")},
		"b":   {table.Bool(true), table.Bool(false)},
	}
	sources := map[string]func() ColOperator{
		"mem":  func() ColOperator { return &ColMemScan{Rel: rel} },
		"heap": func() ColOperator { return NewColHeapScan(h, pool, sch) },
	}
	everyOther := ColPred{Col: 0, Op: OpEq, Val: table.Int(1)}
	for src, scan := range sources {
		for col, cs := range consts {
			ci := sch.ColIndex(col)
			for _, c := range cs {
				for op := OpEq; op <= OpGe; op++ {
					p := ColPred{Col: ci, Op: op, Val: c}
					for _, withSel := range []bool{false, true} {
						preds := []ColPred{p}
						if withSel {
							preds = []ColPred{everyOther, p}
						}
						var want []table.Tuple
						for _, row := range rel.Rows {
							if (!withSel || row[0].I == 1) && op.Holds(table.Compare(row[ci], c)) {
								want = append(want, row)
							}
						}
						got := collect(t, &ColFilter{In: scan(), Preds: preds})
						label := fmt.Sprintf("%s %s %v %v sel=%v", src, col, op, c, withSel)
						mustSameRelations(t, label, got, &table.Relation{Schema: sch, Rows: want})
					}
				}
			}
		}
	}
}

// TestProjectColumnsAndExprs: a projection selects input columns by name,
// keeping their metadata, or by index under a relabelled output schema —
// the planner's occurrence rename — and an unknown name is an error.
func TestProjectColumnsAndExprs(t *testing.T) {
	rel := pairRel("a", "b", [2]int64{2, 3}, [2]int64{5, 7})
	p, err := NewColumnProject(&ColMemScan{Rel: rel}, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, p).Rows
	if len(rows) != 2 || rows[0][0].I != 3 || rows[1][0].I != 7 {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := NewColumnProject(&ColMemScan{Rel: rel}, []string{"zz"}); err == nil {
		t.Error("unknown column should error")
	}

	// Relabelling projection: swap the columns and rename them.
	out := table.NewSchema(table.DataCol("y", table.KindInt), table.DataCol("x", table.KindInt))
	pr, err := NewColProject(&ColMemScan{Rel: rel}, []int{1, 0}, out)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, pr)
	if got.Schema != out || got.Rows[0][0].I != 3 || got.Rows[0][1].I != 2 || got.Rows[1][0].I != 7 {
		t.Fatalf("relabelled rows = %v under %v", got.Rows, got.Schema)
	}
}

func TestHashJoinBasic(t *testing.T) {
	l := pairRel("k", "x", [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})
	r := pairRel("k", "y", [2]int64{2, 200}, [2]int64{2, 201}, [2]int64{4, 400})
	rows := collect(t, hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: r}, []int{0}, []int{0})).Rows
	if len(rows) != 2 {
		t.Fatalf("join rows = %v", rows)
	}
	for _, row := range rows {
		if row[0].I != 2 || row[2].I != 2 {
			t.Errorf("join keys should match: %v", row)
		}
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var lp, rp [][2]int64
	for i := 0; i < 200; i++ {
		lp = append(lp, [2]int64{int64(r.Intn(20)), int64(i)})
		rp = append(rp, [2]int64{int64(r.Intn(20)), int64(1000 + i)})
	}
	l := pairRel("k", "x", lp...)
	rr := pairRel("k", "y", rp...)

	hjRows := collect(t, hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: rr}, []int{0}, []int{0})).Rows

	mj, err := NewMergeJoin(
		NewSort(NewMemScan(l), SortSpec{Cols: []int{0}}),
		NewSort(NewMemScan(rr), SortSpec{Cols: []int{0}}),
		[]int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	mjRows := drain(t, mj)

	if len(hjRows) != len(mjRows) {
		t.Fatalf("hash join %d rows, merge join %d rows", len(hjRows), len(mjRows))
	}
	hc, mc := canonRows(hjRows), canonRows(mjRows)
	for i := range hc {
		if hc[i] != mc[i] {
			t.Fatalf("row %d differs: %s vs %s", i, hc[i], mc[i])
		}
	}
}

func TestMergeJoinDuplicateBlocks(t *testing.T) {
	// Both sides have runs of duplicate keys; output must be the full cross
	// product per key: 2*3 (k=1) + 1*2 (k=2) = 8.
	l := pairRel("k", "x", [2]int64{1, 1}, [2]int64{1, 2}, [2]int64{2, 3})
	r := pairRel("k", "y", [2]int64{1, 4}, [2]int64{1, 5}, [2]int64{1, 6}, [2]int64{2, 7}, [2]int64{2, 8})
	mj, err := NewMergeJoin(NewMemScan(l), NewMemScan(r), []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, mj)
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8: %v", len(rows), rows)
	}
}

// TestMergeJoinAsymmetricKeyLayouts joins sides whose key columns sit at
// different positions — left keys (0, 3), right keys (1, 0) — with the
// second left key indexing past the right tuple's width. Regression test:
// the right-block grouping loop used to index the buffered block key (a
// right tuple) with the LEFT key positions, which mismatched blocks when
// the layouts differed and panicked when a left index exceeded the right
// arity. Plan-lowered grace joins produce exactly these shapes.
func TestMergeJoinAsymmetricKeyLayouts(t *testing.T) {
	lSchema := table.NewSchema(
		table.DataCol("a", table.KindInt), table.DataCol("x", table.KindInt),
		table.DataCol("y", table.KindInt), table.DataCol("b", table.KindInt))
	l := table.NewRelation(lSchema)
	// Sorted on (a, b) = cols (0, 3); filler columns hold unrelated values.
	for _, row := range [][4]int64{{1, 90, 91, 1}, {1, 92, 93, 2}, {2, 94, 95, 1}} {
		l.MustAppend(table.Tuple{table.Int(row[0]), table.Int(row[1]), table.Int(row[2]), table.Int(row[3])})
	}
	rSchema := table.NewSchema(
		table.DataCol("b", table.KindInt), table.DataCol("a", table.KindInt),
		table.DataCol("z", table.KindInt))
	r := table.NewRelation(rSchema)
	// Sorted on (a, b) = cols (1, 0); duplicate keys exercise block buffering.
	for _, row := range [][3]int64{{1, 1, 70}, {1, 1, 71}, {2, 1, 72}, {1, 2, 73}, {9, 2, 74}} {
		r.MustAppend(table.Tuple{table.Int(row[0]), table.Int(row[1]), table.Int(row[2])})
	}
	mj, err := NewMergeJoin(NewMemScan(l), NewMemScan(r), []int{0, 3}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, mj)
	// Matches: l(1,_,_,1) x r{(1,1,70),(1,1,71)}, l(1,_,_,2) x r(2,1,72),
	// l(2,_,_,1) x r(1,2,73).
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4: %v", len(rows), rows)
	}
	for _, row := range rows {
		if row[0].I != row[5].I || row[3].I != row[4].I {
			t.Errorf("join keys should match across sides: %v", row)
		}
	}
}

func TestSortOperator(t *testing.T) {
	rel := pairRel("a", "b", [2]int64{3, 1}, [2]int64{1, 2}, [2]int64{2, 3}, [2]int64{1, 1})
	s := NewSort(NewMemScan(rel), SortSpec{Cols: []int{0, 1}})
	rows := drain(t, s)
	want := [][2]int64{{1, 1}, {1, 2}, {2, 3}, {3, 1}}
	for i, w := range want {
		if rows[i][0].I != w[0] || rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestSortSpilling(t *testing.T) {
	rel := table.NewRelation(table.NewSchema(table.DataCol("a", table.KindInt)))
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		rel.MustAppend(table.Tuple{table.Int(int64(r.Intn(1000)))})
	}
	s := NewSort(NewMemScan(rel), SortSpec{Cols: []int{0}})
	s.Budget = 256
	s.TmpDir = t.TempDir()
	rows := drain(t, s)
	if s.Spills() < 2 {
		t.Fatalf("expected spills, got %d", s.Spills())
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if len(rows) != 5000 {
		t.Fatalf("lost rows: %d", len(rows))
	}
}

func TestHeapScanThroughEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.heap")
	h, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := h.Append(table.Tuple{table.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FinishWrites(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sch := table.NewSchema(table.DataCol("a", table.KindInt))
	pool := storage.NewBufferPool(8)
	n, err := countCols(NewColHeapScan(h, pool, sch))
	if err != nil || n != 1000 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Filter on top of heap scan.
	f := &ColFilter{In: NewColHeapScan(h, pool, sch), Preds: []ColPred{{Col: 0, Op: OpLt, Val: table.Int(10)}}}
	if rows := collect(t, f).Rows; len(rows) != 10 {
		t.Fatalf("filtered rows = %d", len(rows))
	}
}

// TestQuickJoinCommutes: |L ⋈ R| is symmetric for hash joins.
func TestQuickJoinCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *table.Relation {
			rel := intsRel("k")
			n := r.Intn(30)
			for i := 0; i < n; i++ {
				rel.MustAppend(table.Tuple{table.Int(int64(r.Intn(8)))})
			}
			return rel
		}
		a, b := mk(), mk()
		n1, err := countCols(hashJoin(t, &ColMemScan{Rel: a}, &ColMemScan{Rel: b}, []int{0}, []int{0}))
		if err != nil {
			t.Fatal(err)
		}
		n2, err := countCols(hashJoin(t, &ColMemScan{Rel: b}, &ColMemScan{Rel: a}, []int{0}, []int{0}))
		if err != nil {
			t.Fatal(err)
		}
		return n1 == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortThenGroupPartitionsRows: sorting groups equal keys, so the
// maximal runs of equal keys in a sorted stream partition the rows — one
// run per distinct key, the sort+scan shape of every aggregation step.
func TestQuickSortThenGroupPartitionsRows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := intsRel("g")
		distinct := make(map[int64]int)
		for i, n := 0, r.Intn(100); i < n; i++ {
			v := int64(r.Intn(5))
			distinct[v]++
			rel.MustAppend(table.Tuple{table.Int(v)})
		}
		rows := drain(t, NewSort(NewMemScan(rel), SortSpec{Cols: []int{0}}))
		runs := 0
		for i := 0; i < len(rows); {
			j := i
			for j < len(rows) && rows[j][0].I == rows[i][0].I {
				j++
			}
			if distinct[rows[i][0].I] != j-i {
				return false
			}
			runs++
			i = j
		}
		return runs == len(distinct) && slices.IsSortedFunc(rows, func(a, b table.Tuple) int { return table.Compare(a[0], b[0]) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
