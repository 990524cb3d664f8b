// Package engine is the relational query executor: Volcano-style operators
// (scan, filter, project, hash/merge join, external sort, group-by,
// distinct) over the table data model. It plays the role of the PostgreSQL
// executor that SPROUT extends — the confidence operator in internal/conf
// consumes the sorted tuple streams produced here.
//
// There are two execution tiers with one pull protocol each. The row tier
// (Operator, op.go/batch.go) moves []table.Tuple batches of BatchSize through
// reused buffers with cancellation checks at batch boundaries; it is the
// reference tier and the only one that sorts and groups.
// Operators that never reuse tuple storage advertise it through
// StableTuples, which lets consumers skip defensive clones; the rest clone
// through table.Slab, and the few per-tuple algorithms (merge join, sorted
// group-by) read through a Cursor. The columnar tier (ColOperator,
// colexec.go/coljoin.go) moves table.ColBatch column vectors through the
// same scan/filter/project/hash-join shapes; Columnarize lowers a row plan
// to it whenever every operator has a columnar form, and dead-column pruning
// keeps heap scans from decoding columns nothing reads. The columnar tier is
// an execution strategy, not a semantics change: it emits the same tuples in
// the same order as the row path, with bit-identical hashes and confidences.
//
// The hash joins of both tiers are one family (gracejoin.go): one build loop
// fed by a per-tier batch source and one memory-governed Open path that
// degrades to a sort-merge grace join under pressure. Every operator streams
// and runs on the calling goroutine; the worker pool's parallel stages sit
// above the engine, in the confidence operator and the lineage tiers. All
// tuple-keyed equality state (build sides, duplicate elimination) lives in
// the hash-keyed containers of internal/table (TupleMap/TupleSet) — FNV
// hashes with Compare-based collision chains, so equal keys never allocate.
package engine

import (
	"fmt"

	"repro/internal/table"
)

// CmpOp is a comparison operator for predicates.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in SQL syntax.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Holds evaluates c op 0 where c is a Compare result.
func (o CmpOp) Holds(c int) bool {
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// Expr is a scalar expression over a tuple.
type Expr interface {
	Eval(t table.Tuple) table.Value
	String() string
}

// ColRef references an input column by index.
type ColRef struct {
	Idx  int
	Name string
}

// Eval returns the referenced column.
func (c ColRef) Eval(t table.Tuple) table.Value { return t[c.Idx] }

// String renders the reference.
func (c ColRef) String() string { return fmt.Sprintf("%s@%d", c.Name, c.Idx) }

// Const is a literal value.
type Const struct{ V table.Value }

// Eval returns the constant.
func (c Const) Eval(table.Tuple) table.Value { return c.V }

// String renders the literal.
func (c Const) String() string { return c.V.String() }

// Mul multiplies two numeric expressions (used by the propagation step of
// the confidence operator: P1·P2, Fig. 5 JαβK case).
type Mul struct{ L, R Expr }

// Eval computes the product as a float.
func (m Mul) Eval(t table.Tuple) table.Value {
	l, r := m.L.Eval(t), m.R.Eval(t)
	return table.Float(numeric(l) * numeric(r))
}

// String renders the product.
func (m Mul) String() string { return "(" + m.L.String() + "*" + m.R.String() + ")" }

func numeric(v table.Value) float64 {
	switch v.Kind {
	case table.KindInt, table.KindBool:
		return float64(v.I)
	case table.KindFloat:
		return v.F
	default:
		return 0
	}
}

// Pred is a Boolean predicate over a tuple.
type Pred interface {
	Holds(t table.Tuple) bool
	String() string
}

// Cmp compares two expressions.
type Cmp struct {
	L, R Expr
	Op   CmpOp
}

// Holds evaluates the comparison.
func (c Cmp) Holds(t table.Tuple) bool {
	return c.Op.Holds(table.Compare(c.L.Eval(t), c.R.Eval(t)))
}

// String renders the comparison.
func (c Cmp) String() string { return c.L.String() + c.Op.String() + c.R.String() }

// And conjoins predicates; an empty And is true.
type And []Pred

// Holds evaluates the conjunction.
func (a And) Holds(t table.Tuple) bool {
	for _, p := range a {
		if !p.Holds(t) {
			return false
		}
	}
	return true
}

// String renders the conjunction.
func (a And) String() string {
	if len(a) == 0 {
		return "true"
	}
	s := a[0].String()
	for _, p := range a[1:] {
		s += " AND " + p.String()
	}
	return s
}
