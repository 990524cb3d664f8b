package conf

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/freelist"
)

func first[T any](s []T) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// takeAll takes every idle buffer off l and adds its backing array.
func takeAll[T any](l *freelist.List[[]T], add func(any)) int {
	var ls freelist.Lease
	n := 0
	for {
		s, ok := l.Largest(&ls)
		if !ok {
			return n
		}
		add(first(s))
		n++
	}
}

// takeIdle takes every idle buffer lineage collection draws off the free
// list and returns their backing arrays and how many buffers each list
// held, failing on an array listed twice: a buffer given back twice would
// be drawn by two collections. What it takes stays taken.
func takeIdle(t *testing.T) (map[any]bool, map[string]int) {
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
	n := map[string]int{
		"values": takeAll(valueLists, add), "tuples": takeAll(tupleLists, add),
		"clauses": takeAll(clauseLists, add), "dnfs": takeAll(dnfLists, add),
		"dnf pointers": takeAll(dnfPtrLists, add), "vars": takeAll(varLists, add),
		"groups": takeAll(groupLists, add), "entries": takeAll(entryLists, add),
		"int32s": takeAll(freelist.Int32s, add), "uint64s": takeAll(freelist.Uint64s, add),
		"marginals": takeAll(freelist.Float64s, add),
	}
	return seen, n
}

// lineageBacking lists the backing arrays a lineage points into, but for
// its assignment's, which prob keeps to itself.
func lineageBacking(l *Lineage) []any {
	var out []any
	for _, p := range []any{first(l.bufs.keys), first(l.bufs.arena), first(l.bufs.headers), first(l.bufs.dnfs), first(l.Keys), first(l.DNFs)} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// TestLineageBuffersOneOwner: lineage collection draws its tables off the
// free list and gives them back exactly once — its scratch when it
// finishes, what the lineage points into at Release (twice is harmless),
// everything when the collection fails — so a live lineage never shares
// an array with the free list or another lineage, and stays what the
// reference collects while the next collection reuses the first's scratch.
func TestLineageBuffersOneOwner(t *testing.T) {
	rel := lineageCases[1].build(rand.New(rand.NewSource(8)))
	takeIdle(t)
	a, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	held := lineageBacking(a)
	if len(held) != 6 {
		t.Fatalf("the lineage points into %d arrays, want 6", len(held))
	}
	// The scratch came back at finish; a second collection draws it while
	// the first lineage is live.
	b, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[any]string)
	for name, l := range map[string]*Lineage{"a": a, "b": b} {
		for _, p := range lineageBacking(l) {
			if o, dup := owner[p]; dup {
				t.Fatalf("lineages %s and %s share a backing array", o, name)
			}
			owner[p] = name
		}
	}
	idle, n := takeIdle(t)
	if n["groups"] != 1 || n["entries"] != 1 || n["uint64s"] != 1 {
		t.Fatalf("idle after two collections: %v; want the second's group and clause tables and hashes back", n)
	}
	for p := range idle {
		if o, ok := owner[p]; ok {
			t.Fatalf("lineage %s points into an array that is on the free list", o)
		}
	}
	mustMatchRef(t, rel, a)
	mustMatchRef(t, rel, b)
	b.Release()

	// Released, twice: every array the lineage pointed into is idle, once,
	// and so is its assignment's marginal array.
	a.Release()
	a.Release()
	if a.Keys != nil || a.DNFs != nil || a.Assign.Len() != 0 {
		t.Fatal("a released lineage still holds its answers")
	}
	idle, n = takeIdle(t)
	for _, p := range held {
		if !idle[p] {
			t.Fatal("a released lineage's array is not back on the free list")
		}
	}
	if n["marginals"] != 2 {
		t.Fatalf("%d marginal arrays idle after two lineages were released, want 2", n["marginals"])
	}

	// A collection cancelled mid-stream gives back everything it drew.
	ctx, cancel := context.WithCancel(context.Background())
	src := NewSource(rel.Schema, func(sink engine.Sink) error {
		return FromRelation(rel).push(ctx, &cancelAfter{Sink: sink, n: 1, cancel: cancel})
	})
	if _, err := CollectLineageFrom(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, n = takeIdle(t); n["groups"] != 1 || n["entries"] != 1 || n["values"] != 1 || n["vars"] != 1 || n["marginals"] != 1 {
		t.Fatalf("idle after a cancelled collection: %v; want its tables back", n)
	}
}
