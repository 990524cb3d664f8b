package engine

import (
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/table"
)

func canonRows(rows []table.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// TestHashJoinGraceFallback: a governed hash join that cannot afford its
// build side degrades to sort-merge, produces the same multiset of rows,
// leaves no spill files behind, and balances the governor back to zero.
func TestHashJoinGraceFallback(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var lp, rp [][2]int64
	for i := 0; i < 400; i++ {
		lp = append(lp, [2]int64{int64(r.Intn(30)), int64(i)})
		rp = append(rp, [2]int64{int64(r.Intn(30)), int64(10000 + i)})
	}
	l := pairRel("k", "x", lp...)
	rr := pairRel("k", "y", rp...)

	plain := hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: rr}, []int{0}, []int{0})
	want := canonRows(collect(t, plain).Rows)

	dir := t.TempDir()
	g := fault.NewGovernor(32<<10, nil) // below one chunk: first build reservation is denied
	gj := hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: rr}, []int{0}, []int{0})
	gj.Mem = g
	gj.SortBudget = 64 // force the grace sorts to spill
	gj.TmpDir = dir
	got := canonRows(collect(t, gj).Rows)

	if !gj.GraceMode() {
		t.Fatal("governed join under pressure must enter grace mode")
	}
	if len(got) != len(want) {
		t.Fatalf("grace join %d rows, hash join %d rows", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("grace join leaked spill files: %v", entries)
	}
	if g.Used() != 0 {
		t.Errorf("governor unbalanced after grace join: %d", g.Used())
	}
	if !g.Pressured() {
		t.Error("governor must record the denial that triggered grace mode")
	}
}

// TestHashJoinGovernedNoPressure: with an ample budget the governed join
// stays on the hash path, produces identical rows in identical order, and
// releases everything it reserved.
func TestHashJoinGovernedNoPressure(t *testing.T) {
	l := pairRel("k", "x", [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})
	rr := pairRel("k", "y", [2]int64{2, 200}, [2]int64{2, 201}, [2]int64{4, 400})

	want := collect(t, hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: rr}, []int{0}, []int{0})).Rows

	g := fault.NewGovernor(1<<30, nil)
	gj := hashJoin(t, &ColMemScan{Rel: l}, &ColMemScan{Rel: rr}, []int{0}, []int{0})
	gj.Mem = g
	got := collect(t, gj).Rows

	if gj.GraceMode() {
		t.Fatal("ample budget must not trigger grace mode")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
		}
	}
	if g.Used() != 0 {
		t.Errorf("governor unbalanced: %d", g.Used())
	}
	if g.HighWater() == 0 {
		t.Error("governed build must have charged the governor")
	}
}
