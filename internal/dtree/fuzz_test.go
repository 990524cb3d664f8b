package dtree_test

import (
	"testing"

	"repro/internal/difftest"
)

// FuzzCompile feeds fuzzer-mutated byte strings through difftest.DecodeDNF
// (≤ 12 variables, so the possible-worlds oracle applies) and runs the
// decomposing setting's differential battery (difftest.CheckDecomposing):
// Shannon oracle and d-tree — full and starved budgets — against
// prob.ProbByWorlds. Any decomposition-rule bug that produces a wrong exact
// value, a non-certifying interval or a nondeterministic result is a crash.
// internal/obdd's target runs the ordered setting over the same decoder and
// corpus.
func FuzzCompile(f *testing.F) {
	for _, seed := range [][]byte{
		{0x11, 1, 2, 0, 3, 4},                   // two disjoint clauses: independent-OR
		{0x42, 1, 2, 0, 1, 3, 0, 1, 4},          // shared x1 in every clause: independent-AND
		{0x07, 1, 3, 0, 1, 4, 0, 2, 4, 0, 5, 6}, // the package-doc worked example: all three rules
		{0x99, 1, 0, 1, 2, 0, 2, 3, 0, 3, 1},    // chained overlaps: Shannon splits
		{0xff, 12, 24, 36, 0, 1},                // bytes that collapse to the same variable mod 12
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, a, ok := difftest.DecodeDNF(data)
		if !ok {
			return
		}
		if err := difftest.CheckDecomposing(d, a); err != nil {
			t.Fatal(err)
		}
	})
}
