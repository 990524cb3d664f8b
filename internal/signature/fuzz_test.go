package signature

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzSchedule checks the §V scheduler on signatures decoded from
// fuzzer-mutated bytes (decodeSig): the final signature has the 1scan
// property, every step is a 1scan star, the schedule runs Prop. V.10's
// #scans(α) passes, a star's representative is the root of its final
// 1scanTree, and that tree's preorder lists each table of the final
// signature once. The seed corpus is committed under testdata/fuzz.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSig(data)
		steps, final := Schedule(s)
		if !OneScan(final) {
			t.Fatalf("%s: final %s lacks the 1scan property", s, final)
		}
		for _, g := range steps {
			if _, star := g.(Star); !star || !OneScan(g) {
				t.Fatalf("%s: step %s is not a 1scan star", s, g)
			}
		}
		if len(steps)+1 != NumScans(s) {
			t.Fatalf("%s: %d steps, #scans = %d", s, len(steps), NumScans(s))
		}
		tree, err := BuildScanTree(final)
		if err != nil {
			t.Fatal(err)
		}
		if _, star := s.(Star); star && (tree.Table == "" || Rep(s) != tree.Table) {
			t.Fatalf("%s: Rep = %q, final tree root %q", s, Rep(s), tree.Table)
		}
		pre, tables := slices.Sorted(slices.Values(tree.Preorder())), slices.Sorted(slices.Values(Tables(final)))
		if !slices.Equal(pre, tables) || len(slices.Compact(pre)) != len(tables) {
			t.Fatalf("%s: preorder %v of %s, tables %v", s, tree.Preorder(), final, Tables(final))
		}
	})
}

// decodeSig builds a signature over distinct tables T1, T2, … with
// NewStar and NewConcat: each byte picks a node — a table (b%4 == 0), a
// starred table (1), a concatenation of 2 + (b>>2)%2 subsignatures (2) or
// a starred one (3) — and a node at depth 4, or past the last byte, is a
// table.
func decodeSig(data []byte) Sig {
	n := 0
	var gen func(depth int) Sig
	gen = func(depth int) Sig {
		var b byte
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		if depth == 4 || b%4 < 2 {
			n++
			t := Table(fmt.Sprintf("T%d", n))
			if b%4 == 1 {
				return NewStar(t)
			}
			return t
		}
		parts := make([]Sig, 2+int(b>>2)%2)
		for i := range parts {
			parts[i] = gen(depth + 1)
		}
		if b%4 == 3 {
			return NewStar(NewConcat(parts...))
		}
		return NewConcat(parts...)
	}
	return gen(0)
}
