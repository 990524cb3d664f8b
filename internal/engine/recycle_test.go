package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/freelist"
	"repro/internal/table"
)

// failAfter passes its input's first n batches through and then fails
// with err() — a fault injected into a build side mid-stream.
type failAfter struct {
	ColOperator
	n   int
	err func() error
}

func (f *failAfter) NextColBatch(dst *table.ColBatch) (int, error) {
	if f.n == 0 {
		return 0, f.err()
	}
	f.n--
	return f.ColOperator.NextColBatch(dst)
}

func first[T any](s []T) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// buildBacking lists the first element of every backing array a build
// holds, as a comparable pointer.
func buildBacking(h *hashBuild) []any {
	var out []any
	add := func(p any) {
		if p != nil {
			out = append(out, p)
		}
	}
	for _, c := range h.chunks {
		for k := range c.Cols {
			v := &c.Cols[k]
			for _, p := range []any{first(v.Ints), first(v.Floats), first(v.Strs), first(v.Bytes), first(v.Offs), first(v.Nulls)} {
				add(p)
			}
		}
	}
	for _, s := range h.hashes {
		add(first(s))
	}
	add(first(h.heads))
	add(first(h.next))
	return out
}

// takeIdle takes every idle buffer a build draws off the free list and
// returns their backing arrays, failing on one listed twice: a buffer
// given back twice would be drawn by two builds. What it takes stays
// taken, so a build drawn next allocates fresh.
func takeIdle(t *testing.T) map[any]bool {
	t.Helper()
	seen := make(map[any]bool)
	add := func(p any) {
		if p == nil {
			return
		}
		if seen[p] {
			t.Fatalf("a backing array is on the free list twice")
		}
		seen[p] = true
	}
	var ls freelist.Lease
	kinds := table.NewSchema(table.DataCol("i", table.KindInt), table.DataCol("f", table.KindFloat),
		table.DataCol("s", table.KindString), table.DataCol("b", table.KindBool))
	for {
		b := table.NewColBatch(kinds)
		b.Draw(&ls, 0)
		if b.MemSize() == 0 {
			break
		}
		for k := range b.Cols {
			v := &b.Cols[k]
			for _, p := range []any{first(v.Ints), first(v.Floats), first(v.Strs), first(v.Bytes), first(v.Offs), first(v.Nulls)} {
				add(p)
			}
		}
	}
	for {
		s, ok := freelist.Uint64s.Largest(&ls)
		if !ok {
			break
		}
		add(first(s))
	}
	for {
		s, ok := freelist.Int32s.Largest(&ls)
		if !ok {
			break
		}
		add(first(s))
	}
	return seen
}

// TestJoinBuildBuffersOneOwner: a hash join's build buffers come off the
// free list and go back to it exactly once, whichever way the join lets go
// of them — closed twice, re-opened, a failed Open (an injected fault and
// a context cancelled mid-build) — so no array is ever idle twice and two
// live builds never share one; a governed build bypasses the free list.
func TestJoinBuildBuffersOneOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	left, right := randRel(rng, 500, 700), randRel(rng, 3*BatchSize+100, 700)
	keys := []int{0}
	newJoin := func(r ColOperator) *ColHashJoin { return hashJoin(t, memScan(left), r, keys, keys) }

	// Closed twice: every array the build held is idle, once.
	j := newJoin(memScan(right))
	want := collect(t, j) // opened and closed by StreamCtx
	takeIdle(t)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	held := buildBacking(j.built)
	if len(held) == 0 {
		t.Fatal("the build holds no buffers")
	}
	j.Close()
	j.Close()
	idle := takeIdle(t)
	for _, p := range held {
		if !idle[p] {
			t.Fatal("a closed join's build array is not back on the free list")
		}
	}
	if len(idle) != len(held) {
		t.Fatalf("%d arrays idle after the join closed, want the build's %d", len(idle), len(held))
	}

	// Re-opened: the first build goes back before the second draws, and
	// both are idle once the join closes.
	j = newJoin(memScan(right))
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	held = buildBacking(j.built)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	held = append(held, buildBacking(j.built)...)
	j.Close()
	idle = takeIdle(t)
	for _, p := range held {
		if !idle[p] {
			t.Fatal("a re-opened join's build array is not back on the free list")
		}
	}

	// Two live builds draw disjoint arrays, none of them still idle.
	a, b := newJoin(memScan(right)), newJoin(memScan(right))
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := a.Open(); err != nil { // draws what it just gave back
		t.Fatal(err)
	}
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	owner := make(map[any]string)
	for name, j := range map[string]*ColHashJoin{"a": a, "b": b} {
		for _, p := range buildBacking(j.built) {
			if o, dup := owner[p]; dup {
				t.Fatalf("builds %s and %s share a backing array", o, name)
			}
			owner[p] = name
		}
	}
	for p := range takeIdle(t) {
		if o, ok := owner[p]; ok {
			t.Fatalf("build %s holds an array that is still on the free list", o)
		}
	}
	if got := collect(t, a); got.Len() != want.Len() {
		t.Fatalf("a recycled build joined %d rows, want %d", got.Len(), want.Len())
	}
	b.Close()

	// A failed Open gives back every chunk drawn so far: two 1024-row
	// batches of two null-free int columns, four arrays.
	ctx, cancel := context.WithCancel(context.Background())
	for name, fail := range map[string]func() error{
		"injected":  func() error { return &fault.Injected{Op: fault.OpRead, Kind: fault.KindErr, Path: "build"} },
		"cancelled": func() error { cancel(); return ctx.Err() },
	} {
		takeIdle(t)
		j := newJoin(&failAfter{ColOperator: memScan(right), n: 2, err: fail})
		if err := j.Open(); err == nil {
			t.Fatalf("%s: Open succeeded with its build side failing", name)
		}
		if j.built != nil {
			t.Fatalf("%s: a failed Open kept its build", name)
		}
		j.Close()
		if got := takeIdle(t); len(got) != 4 {
			t.Fatalf("%s: %d arrays idle after a failed Open, want the partial build's 4", name, len(got))
		}
	}

	// Governed: neither drawn nor given back.
	before := freelist.Read()
	g := newJoin(memScan(right))
	g.Mem = fault.NewGovernor(1<<30, nil)
	collect(t, g)
	if after := freelist.Read(); after != before {
		t.Errorf("a governed build moved the free list's figures: %+v → %+v", before, after)
	}
}
