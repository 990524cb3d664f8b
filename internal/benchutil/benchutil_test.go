package benchutil

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/signature"
	"repro/internal/tpch"
)

// starAll stars every table and inner node of s: the signature a query gets
// when functional dependencies are not used to remove stars, e.g.
// (Cust(Ord Item*)*)* becomes (Cust*(Ord*Item*)*)*.
func starAll(s signature.Sig) signature.Sig {
	switch x := s.(type) {
	case signature.Table:
		return signature.NewStar(x)
	case signature.Star:
		return signature.NewStar(starAll(x.Inner))
	case signature.Concat:
		parts := make([]signature.Sig, len(x))
		for i, c := range x {
			parts[i] = starAll(c)
		}
		return signature.NewConcat(parts...)
	default:
		return s
	}
}

// TestFig13Harness runs Fig. 13's experiment on a small instance: for
// queries 2, 7, 11 and B3 the confidence operator over the materialized
// answer needs exactly one scan with the FD-refined signature (§VII.3), and
// never more than with every node starred.
func TestFig13Harness(t *testing.T) {
	catalog := tpch.Generate(tpch.Config{SF: 0.002, Seed: 99}).Catalog()
	queries := tpch.Catalog()
	for _, name := range []string{"2", "7", "11", "B3"} {
		e := queries[name]
		refined, err := signature.WithFDs(e.Q, tpch.FDsFor(e))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		answer, err := plan.Answer(catalog, e.Q)
		if err != nil {
			t.Fatalf("%s answer: %v", name, err)
		}
		answers := answer.Len()
		starred := *answer
		_, noFDs, err := conf.ComputeStats(&starred, starAll(refined), conf.Options{})
		if err != nil {
			t.Fatalf("%s all-starred operator: %v", name, err)
		}
		out, withFDs, err := conf.ComputeStats(answer, refined, conf.Options{})
		if err != nil {
			t.Fatalf("%s FD operator: %v", name, err)
		}
		if withFDs.Scans > noFDs.Scans {
			t.Errorf("%s: FD scans %d > all-starred scans %d", name, withFDs.Scans, noFDs.Scans)
		}
		if withFDs.Scans != 1 {
			t.Errorf("%s: expected 1 scan with FDs, got %d", name, withFDs.Scans)
		}
		if out.Len() > answers {
			t.Errorf("%s: distinct %d > answers %d", name, out.Len(), answers)
		}
	}
}
