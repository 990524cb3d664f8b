package signature

import (
	"fmt"
	"slices"
	"strings"
)

// ScanTree is the 1scanTree of §V.C: one node per variable column of the
// operator's input, derived from a signature with the 1scan property by
// replacing each inner node of the hierarchical representation with one of
// its children that is a bare (unstarred) table. A relational product of
// unconnected subexpressions (R*S*, which Def. V.8 classifies as 1scan
// although no table is one-to-one with the outer grouping) has no such
// child: its root is virtual (Table == ""), its children are the
// components' trees, and its probability is the product of theirs — folding
// one component into another instead would double-count shared partitions.
type ScanTree struct {
	Table    string
	Children []*ScanTree
}

// BuildScanTree constructs the 1scanTree of a 1scan signature. It fails on
// signatures without the 1scan property — those must first be reduced by
// the aggregation steps of Schedule.
func BuildScanTree(s Sig) (*ScanTree, error) {
	if !OneScan(s) {
		return nil, fmt.Errorf("signature: %s lacks the 1scan property (#scans=%d)", s, NumScans(s))
	}
	return scanTree(s), nil
}

// scanTree is BuildScanTree's recursion: a table is a leaf, a star (which
// only expresses multiplicity) is its inner tree, and a concatenation is
// rooted at its first bare table — or at a virtual root when it has none —
// with every other component's tree as a child.
func scanTree(s Sig) *ScanTree {
	switch x := s.(type) {
	case Table:
		return &ScanTree{Table: string(x)}
	case Star:
		return scanTree(x.Inner)
	case Concat:
		root := &ScanTree{}
		i := slices.IndexFunc(x, func(c Sig) bool { _, bare := c.(Table); return bare })
		if i >= 0 {
			root.Table = string(x[i].(Table))
		}
		for j, c := range x {
			if j != i {
				root.Children = append(root.Children, scanTree(c))
			}
		}
		return root
	}
	return nil
}

// Preorder lists the table names of the tree in preorder, skipping a
// virtual root — the order of the variable columns in the operator's
// required sort order (§V.C: "the sort order ... is given by the columns
// that hold input data followed by the variable columns corresponding to
// the table names in any preorder traversal of the 1scanTree").
func (t *ScanTree) Preorder() []string {
	var out []string
	var walk func(n *ScanTree)
	walk = func(n *ScanTree) {
		if n.Table != "" {
			out = append(out, n.Table)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	return out
}

// String serializes the tree as Root(child, child(...)), matching the
// paper's R1(R2(R3), R4(R5)) notation of Ex. V.12; a virtual root renders
// as its bare child list, (R, S).
func (t *ScanTree) String() string {
	if len(t.Children) == 0 {
		return t.Table
	}
	parts := make([]string, len(t.Children))
	for i, c := range t.Children {
		parts[i] = c.String()
	}
	return t.Table + "(" + strings.Join(parts, ", ") + ")"
}

// Schedule is the multi-scan plan of §V.C for the confidence operator [s]:
// it rewrites s until it has the 1scan property, emitting one aggregation
// step per starred subexpression that lacks a bare table (Def. V.8) — the
// step aggregates the star's first component, itself a 1scan star, into
// its representative, the root of its 1scanTree. Returns the steps,
// innermost first, and the final 1scan signature; the operator runs one
// sort+scan per step and one over final, len(steps)+1 == NumScans(s) in
// all (Prop. V.10). This reproduces Ex. V.11: (Cust*(Ord*Item*)*)* yields
// steps [Ord*], [Cust*] and final (Cust(Ord Item*)*)*.
func Schedule(s Sig) (steps []Sig, final Sig) {
	var fix func(Sig) Sig
	fix = func(s Sig) Sig {
		switch x := s.(type) {
		case Star:
			inner := fix(x.Inner)
			if !hasBareTable(inner) {
				// Every component is a star (concatenations flatten):
				// aggregate the first one into its representative.
				gamma := inner
				if c, ok := inner.(Concat); ok {
					gamma = c[0]
				}
				steps = append(steps, gamma)
				inner = Collapse(inner, gamma)
			}
			return NewStar(inner)
		case Concat:
			parts := make([]Sig, len(x))
			for i, c := range x {
				parts[i] = fix(c)
			}
			return NewConcat(parts...)
		default:
			return s
		}
	}
	final = fix(s)
	return steps, final
}

// Rep returns the representative table that the eager operator [s] leaves
// behind (§V.B): a table is its own, a star's is the root of its final
// 1scanTree once its schedule has run, and a concatenation's — whose
// components are collapsed one by one and folded leftwards — is its first
// component's. It is a pure function of the signature, so the planner
// computes eager schedules at build time with it.
func Rep(s Sig) string {
	switch x := s.(type) {
	case Table:
		return string(x)
	case Star:
		_, final := Schedule(x)
		return scanTree(final).Table
	case Concat:
		if len(x) > 0 {
			return Rep(x[0])
		}
	}
	return ""
}

// Collapse replaces the first subexpression of s structurally equal to
// gamma with the table Rep(gamma) — the signature update performed on the
// ancestors of an applied operator ("we replace in its signature each αi
// by the leftmost table name in αi", §V.B), and by Schedule after each
// aggregation step. s is returned unchanged when gamma does not occur.
func Collapse(s, gamma Sig) Sig {
	return replace(s, gamma, Table(Rep(gamma)))
}

func replace(s, target, repl Sig) Sig {
	if Equal(s, target) {
		return repl
	}
	switch x := s.(type) {
	case Star:
		return NewStar(replace(x.Inner, target, repl))
	case Concat:
		parts := slices.Clone(x)
		for i, c := range x {
			if parts[i] = replace(c, target, repl); !Equal(parts[i], c) {
				break
			}
		}
		return NewConcat(parts...)
	default:
		return s
	}
}
