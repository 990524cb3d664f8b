package dtree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clauseset"
)

// conditionRef is the sort-based cofactor split of the ordered setting:
// partition on the top level, then Normalize both cofactors.
func conditionRef(cls [][]int32) (pos, neg [][]int32, posTrue bool) {
	level := cls[0][0]
	for _, c := range cls {
		switch {
		case c[0] != level:
			pos = append(pos, c)
			neg = append(neg, c)
		case len(c) == 1:
			posTrue = true
		default:
			pos = append(pos, c[1:])
		}
	}
	if posTrue {
		pos = nil
	} else {
		pos = clauseset.Normalize(pos)
	}
	return pos, clauseset.Normalize(neg), posTrue
}

// TestConditionMatchesNormalize: the ordered setting's linear cofactor split
// returns, on random canonical clause sets, exactly the canonical cofactors
// the sort-based split returns — same clauses, same order, same posTrue.
func TestConditionMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	same := func(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }
	var b Builder
	for trial := 0; trial < 2000; trial++ {
		b.memo.Reset()
		levels := 2 + rng.Intn(10)
		var cls [][]int32
		for n := 1 + rng.Intn(12); len(cls) < n; {
			var c []int32
			for w := 1 + rng.Intn(4); len(c) < w; {
				c = append(c, int32(rng.Intn(levels)))
			}
			slices.Sort(c)
			cls = append(cls, slices.Compact(c))
		}
		cls = clauseset.Normalize(cls)
		wantPos, wantNeg, wantTrue := conditionRef(slices.Clone(cls))
		pos, neg, posTrue := b.condition(cls)
		if posTrue != wantTrue || !same(pos, wantPos) || !same(neg, wantNeg) {
			t.Fatalf("trial %d: condition(%v) = %v, %v, %v; want %v, %v, %v",
				trial, cls, pos, neg, posTrue, wantPos, wantNeg, wantTrue)
		}
	}
}
