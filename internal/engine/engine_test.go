package engine

import (
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

func drain(t *testing.T, op Operator) []table.Tuple {
	t.Helper()
	rel, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rel.Rows
}

// count drains an operator and returns only the row count.
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
	f := NewFilter(NewMemScan(rel), Cmp{L: ColRef{Idx: 0, Name: "a"}, Op: OpGt, R: Const{table.Int(3)}})
	rows := drain(t, f)
	if len(rows) != 2 || rows[0][0].I != 4 || rows[1][0].I != 5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		want []int64
	}{
		{OpEq, []int64{3}},
		{OpNe, []int64{1, 2, 4, 5}},
		{OpLt, []int64{1, 2}},
		{OpLe, []int64{1, 2, 3}},
		{OpGt, []int64{4, 5}},
		{OpGe, []int64{3, 4, 5}},
	}
	for _, c := range cases {
		rel := intsRel("a", 1, 2, 3, 4, 5)
		f := NewFilter(NewMemScan(rel), Cmp{L: ColRef{Idx: 0}, Op: c.op, R: Const{table.Int(3)}})
		rows := drain(t, f)
		if len(rows) != len(c.want) {
			t.Errorf("op %v: got %d rows, want %d", c.op, len(rows), len(c.want))
			continue
		}
		for i, w := range c.want {
			if rows[i][0].I != w {
				t.Errorf("op %v row %d: got %d, want %d", c.op, i, rows[i][0].I, w)
			}
		}
	}
}

func TestProjectColumnsAndExprs(t *testing.T) {
	rel := pairRel("a", "b", [2]int64{2, 3}, [2]int64{5, 7})
	p, err := NewColumnProject(NewMemScan(rel), []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, p)
	if len(rows) != 2 || rows[0][0].I != 3 || rows[1][0].I != 7 {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := NewColumnProject(NewMemScan(rel), []string{"zz"}); err == nil {
		t.Error("unknown column should error")
	}

	// Computed projection: a*b.
	out := table.NewSchema(table.DataCol("ab", table.KindFloat))
	pe, err := NewProject(NewMemScan(rel), out, []Expr{Mul{L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	rows = drain(t, pe)
	if rows[0][0].F != 6 || rows[1][0].F != 35 {
		t.Fatalf("computed rows = %v", rows)
	}
}

func TestHashJoinBasic(t *testing.T) {
	l := pairRel("k", "x", [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})
	r := pairRel("k", "y", [2]int64{2, 200}, [2]int64{2, 201}, [2]int64{4, 400})
	j, err := NewHashJoin(NewMemScan(l), NewMemScan(r), []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, j)
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

	hj, err := NewHashJoin(NewMemScan(l), NewMemScan(rr), []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	hjRows := drain(t, hj)

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
	canon := func(rows []table.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		slices.Sort(out)
		return out
	}
	hc, mc := canon(hjRows), canon(mjRows)
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

func TestSortedGroupByMinAndProbOr(t *testing.T) {
	// Groups on col 0; min of col 1; prob-or of col 2.
	sch := table.NewSchema(
		table.DataCol("g", table.KindInt),
		table.DataCol("v", table.KindInt),
		table.DataCol("p", table.KindFloat))
	rel := table.NewRelation(sch)
	rel.MustAppend(table.Tuple{table.Int(1), table.Int(7), table.Float(0.1)})
	rel.MustAppend(table.Tuple{table.Int(1), table.Int(3), table.Float(0.2)})
	rel.MustAppend(table.Tuple{table.Int(2), table.Int(5), table.Float(0.5)})
	g := NewSortedGroupBy(NewMemScan(rel), []int{0}, []AggSpec{
		{Kind: AggMin, Col: 1, Out: table.DataCol("minv", table.KindInt)},
		{Kind: AggProbOr, Col: 2, Out: table.DataCol("p", table.KindFloat)},
	})
	rows := drain(t, g)
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(rows))
	}
	if rows[0][0].I != 1 || rows[0][1].I != 3 {
		t.Errorf("group 1 min = %v", rows[0])
	}
	want := 1 - 0.9*0.8
	if d := rows[0][2].F - want; d > 1e-12 || d < -1e-12 {
		t.Errorf("group 1 prob = %g, want %g", rows[0][2].F, want)
	}
	if rows[1][0].I != 2 || rows[1][2].F != 0.5 {
		t.Errorf("group 2 = %v", rows[1])
	}
}

func TestSortedGroupByEmptyInput(t *testing.T) {
	rel := intsRel("g")
	g := NewSortedGroupBy(NewMemScan(rel), []int{0}, []AggSpec{
		{Kind: AggMin, Col: 0, Out: table.DataCol("m", table.KindInt)},
	})
	rows := drain(t, g)
	if len(rows) != 0 {
		t.Fatalf("empty input should yield no groups, got %v", rows)
	}
}

func TestHashDistinct(t *testing.T) {
	rel := intsRel("a", 1, 2, 1, 3, 2, 1)
	rows := drain(t, NewHashDistinct(NewMemScan(rel)))
	if len(rows) != 3 {
		t.Fatalf("distinct rows = %v", rows)
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
	scan := NewHeapScan(h, pool, sch)
	n, err := count(scan)
	if err != nil || n != 1000 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Filter on top of heap scan.
	f := NewFilter(NewHeapScan(h, pool, sch), Cmp{L: ColRef{Idx: 0}, Op: OpLt, R: Const{table.Int(10)}})
	rows := drain(t, f)
	if len(rows) != 10 {
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
		j1, err := NewHashJoin(NewMemScan(a), NewMemScan(b), []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		j2, err := NewHashJoin(NewMemScan(b), NewMemScan(a), []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		n1, err := count(j1)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := count(j2)
		if err != nil {
			t.Fatal(err)
		}
		return n1 == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortThenGroupPartitionsRows: grouping partitions the input, so
// there is one group per distinct key and its minimum is the key itself.
func TestQuickSortThenGroupPartitionsRows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := intsRel("g")
		distinct := make(map[int64]bool)
		for i, n := 0, r.Intn(100); i < n; i++ {
			v := int64(r.Intn(5))
			distinct[v] = true
			rel.MustAppend(table.Tuple{table.Int(v)})
		}
		g := GroupSorted(NewMemScan(rel), []int{0}, []AggSpec{
			{Kind: AggMin, Col: 0, Out: table.DataCol("m", table.KindInt)},
		})
		rows, err := Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows.Rows {
			if row[1].I != row[0].I {
				return false
			}
		}
		return rows.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
