// Package engine is the relational query executor under the confidence
// operators: vectorized scan, project and hash-join operators over
// table.ColBatch column vectors, in the MonetDB/X100 tradition. It plays the
// role of the PostgreSQL executor that SPROUT extends — the confidence
// operator in internal/conf consumes the answer streams produced here.
//
// The planner builds ColOperator trees directly (colexec.go, coljoin.go):
// per-column typed vectors with a selection vector move BatchSize rows per
// call, projections re-expose column headers with zero copies, and
// dead-column pruning keeps heap scans from decoding columns nothing reads.
// Selections belong to the scans: a ColChunkScan or ColHeapScan evaluates
// its ColPreds with the typed kernels of pred.go and hands on dense batches
// of the qualifying rows alone — the heap scan decoding the predicate
// columns first and the rest at those rows only (late materialization).
// StreamCtx drains a tree into a Sink, the one hand-off format into the
// confidence phase.
//
// The hash join (coljoin.go, gracejoin.go) is memory-governed: under
// pressure it degrades to a grace join, which sorts both inputs on their
// join keys in governed external sorts and merges the sorted streams into
// the same column batches (join.go). Every operator streams and runs on the
// calling goroutine; the worker pool's parallel stages sit above the engine,
// in the confidence operator and the lineage tiers. The join's build side
// stays columnar: BatchSize-row column chunks chained by FNV hash
// (hashBuild, gracejoin.go), probed with Compare-semantics cell equality
// (ColVec.CompareCell), so equal keys never allocate.
package engine

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
