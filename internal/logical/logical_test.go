package logical

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/table"
)

func q2() *query.Query {
	return &query.Query{
		Name: "q",
		Head: []string{"cname"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname"),
			query.Rel("Ord", "okey", "ckey", "odate"),
		},
		Sels: []query.Selection{
			{Rel: "Ord", Attr: "odate", Op: engine.OpLt, Val: table.Str("1996-01-01")},
		},
	}
}

func TestLeafKeep(t *testing.T) {
	q := q2()
	if got := LeafKeep(q, q.Rels[0]); strings.Join(got, ",") != "ckey,cname" {
		t.Errorf("LeafKeep(Cust) = %v", got)
	}
	// Ord keeps only the join attribute; odate is neither head nor shared.
	if got := LeafKeep(q, q.Rels[1]); strings.Join(got, ",") != "ckey" {
		t.Errorf("LeafKeep(Ord) = %v", got)
	}
}

func TestJoinKeep(t *testing.T) {
	q := q2()
	need := JoinKeep(q, map[string]bool{"Cust": true, "Ord": true})
	if !need["cname"] || need["odate"] || need["okey"] {
		t.Errorf("JoinKeep = %v", need)
	}
}

func TestAnswerTreeShapeAndRendering(t *testing.T) {
	q := q2()
	root := AnswerTree(q, q.Rels)
	p := &Plan{Style: "lazy", Root: root}
	out := p.String()
	for _, want := range []string{
		"style: lazy",
		"⋈[ckey]",
		"σ[Ord.odate<1996-01-01]",
		"scan Cust(ckey,cname)",
		"scan Ord(okey,ckey,odate)",
		"π[cname]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
	rels := p.Relations()
	if len(rels) != 2 || rels[0].Name != "Cust" || rels[1].Name != "Ord" {
		t.Errorf("Relations() = %v", rels)
	}
	// Rendering is deterministic.
	if again := (&Plan{Style: "lazy", Root: AnswerTree(q2(), q2().Rels)}).String(); again != out {
		t.Error("rendering not deterministic")
	}
}

func TestConfLabels(t *testing.T) {
	leaf := Leaf(q2(), q2().Rels[0], LeafKeep(q2(), q2().Rels[0]))
	if got := (&Conf{Input: leaf, Alg: AlgLadder, Final: true}).Label(); got != "conf[obdd→dtree→mc]" {
		t.Errorf("label = %q", got)
	}
	if got := (&Conf{Input: leaf, Alg: AlgDTree, Final: true}).Label(); got != "conf[dtree]" {
		t.Errorf("label = %q", got)
	}
	if got := (&Conf{Input: leaf, Alg: AlgIndProject, Keep: []string{"a", "b"}}).Label(); got != "π^ind[a,b]" {
		t.Errorf("label = %q", got)
	}
}
