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

// batchBacking lists the first element of every backing array a batch's
// vectors hold, as a comparable pointer.
func batchBacking(b *table.ColBatch) []any {
	var out []any
	for k := range b.Cols {
		v := &b.Cols[k]
		for _, p := range []any{first(v.Ints), first(v.Floats), first(v.Strs), first(v.Bytes), first(v.Offs), first(v.Nulls)} {
			if p != nil {
				out = append(out, p)
			}
		}
	}
	return out
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
		out = append(out, batchBacking(c)...)
	}
	for _, s := range h.hashes {
		add(first(s))
	}
	add(first(h.heads))
	add(first(h.next))
	return out
}

// joinBacking is what an opened hash join holds: its build's arrays, its
// probe batch's and its probe hashes.
func joinBacking(j *ColHashJoin) []any {
	out := append(buildBacking(j.built), batchBacking(j.in)...)
	if p := first(j.hashes); p != nil {
		out = append(out, p)
	}
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

// TestJoinBuildBuffersOneOwner: a hash join's build buffers, its probe
// batch and its probe hashes come off the free list and go back to it
// exactly once, whichever way the join lets go of them — closed twice,
// re-opened, a failed Open (an injected fault and a context cancelled
// mid-build) — so no array is ever idle twice and two live joins never
// share one; a governed build bypasses the free list, and its join draws
// the probe side's pull batch and hashes alone.
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
	held := joinBacking(j)
	if len(held) == 0 {
		t.Fatal("the join holds no buffers")
	}
	j.Close()
	j.Close()
	idle := takeIdle(t)
	for _, p := range held {
		if !idle[p] {
			t.Fatal("a closed join's array is not back on the free list")
		}
	}
	if len(idle) != len(held) {
		t.Fatalf("%d arrays idle after the join closed, want the join's %d", len(idle), len(held))
	}

	// Re-opened: the first build goes back before the second draws, and
	// both are idle once the join closes.
	j = newJoin(memScan(right))
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	held = joinBacking(j)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	held = append(held, joinBacking(j)...)
	j.Close()
	idle = takeIdle(t)
	for _, p := range held {
		if !idle[p] {
			t.Fatal("a re-opened join's array is not back on the free list")
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
		for _, p := range joinBacking(j) {
			if o, dup := owner[p]; dup {
				t.Fatalf("joins %s and %s share a backing array", o, name)
			}
			owner[p] = name
		}
	}
	for p := range takeIdle(t) {
		if o, ok := owner[p]; ok {
			t.Fatalf("join %s holds an array that is still on the free list", o)
		}
	}
	if got := collect(t, a); got.Len() != want.Len() {
		t.Fatalf("a recycled build joined %d rows, want %d", got.Len(), want.Len())
	}
	b.Close()

	// A failed Open gives back every chunk drawn so far — two 1024-row
	// batches of two null-free int columns, four arrays — and the build's
	// pull batch, two more; it draws no probe batch.
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
		if got := takeIdle(t); len(got) != 6 {
			t.Fatalf("%s: %d arrays idle after a failed Open, want the partial build's 4 and its pull batch's 2", name, len(got))
		}
	}

	// Governed: the build neither draws what another join left idle nor
	// gives its own arrays back; the probe side's buffers still go back.
	takeIdle(t)
	p := newJoin(memScan(right))
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	pooled := make(map[any]bool)
	for _, a := range joinBacking(p) {
		pooled[a] = true
	}
	p.Close()
	g := newJoin(memScan(right))
	g.Mem = fault.NewGovernor(1<<30, nil)
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	gb := buildBacking(g.built)
	probe := joinBacking(g)[len(gb):]
	g.Close()
	idle = takeIdle(t)
	for _, a := range gb {
		if pooled[a] {
			t.Fatal("a governed build drew an array off the free list")
		}
		if idle[a] {
			t.Fatal("a governed build gave an array back to the free list")
		}
	}
	for _, a := range probe {
		if !idle[a] {
			t.Fatal("a governed join's probe array is not back on the free list")
		}
	}
}

// TestPullBatchesOneOwner: a projection moves its input's vectors into its
// consumer's batch instead of sharing them, and copies a column it names
// twice, so every backing array the drain, the projection and the join pull
// through has one holder: after drains, a re-Open and a Close, no array is
// idle twice, and the rows stay the reference's.
func TestPullBatchesOneOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	left, right := randRel(rng, 2*BatchSize+300, 400), randRel(rng, BatchSize+7, 400)
	j := hashJoin(t, memScan(left), memScan(right), []int{0}, []int{0})
	p, err := NewColProject(j, []int{1, 0, 1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := collect(t, p)
	if want.Len() == 0 {
		t.Fatal("the join matched no rows")
	}
	for _, row := range want.Rows {
		if row[0] != row[2] {
			t.Fatalf("a column projected twice differs from itself: %v", row)
		}
	}
	takeIdle(t)
	b := drawPull(p.Schema())
	drain := func() {
		got := NewRelationSink(p.Schema())
		for {
			n, err := p.NextColBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got.AddBatch(b)
		}
		mustSameRelations(t, "re-drained", got.Rel, want)
	}
	for range 2 { // the second Open re-opens the open projection
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		drain()
	}
	p.Close()
	p.Close()
	recyclePull(b)
	takeIdle(t) // fails on an array idle twice
	mustSameRelations(t, "after recycling", collect(t, p), want)
}
