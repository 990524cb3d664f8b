// Package table defines the tuple-level data model shared by the whole
// system: typed values, tuples, schemas that know which columns carry
// Boolean random variables and probabilities (the V- and P-columns of the
// paper's tuple-independent tables, §II.A), and materialized relations.
// The columnar side of the model (colbatch.go) carries the same tuples as
// per-column typed vectors — ColBatch/ColVec with a selection vector, a
// null bitmap, and header/flat string layouts — for the engine's
// vectorized execution tier; a base table is stored as such chunks
// (ColStore).
package table

import (
	"fmt"
	"strconv"

	"repro/internal/prob"
)

// Kind enumerates the value types supported by the engine. The paper's data
// columns are standard SQL types; variables are integers and probabilities
// floats ("variables ... can be represented as integers", §V).
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of a kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a tagged union holding one field of a tuple. The zero Value is
// NULL. Values are small and copied by value throughout the engine.
type Value struct {
	S    string
	I    int64
	F    float64
	Kind Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str wraps a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool wraps a bool.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// VarValue wraps a random variable as an integer value (how SPROUT stores
// V-columns).
func VarValue(v prob.Var) Value { return Int(int64(v)) }

// AsVar interprets an integer value as a random variable.
func (v Value) AsVar() prob.Var { return prob.Var(v.I) }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsBool reports the truth of a bool value.
func (v Value) AsBool() bool { return v.Kind == KindBool && v.I != 0 }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare orders two values: NULL sorts first, then by kind, then by value.
// Cross-kind numeric comparison (int vs float) compares numerically, which
// the expression evaluator relies on for predicates like price < 100.5.
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == KindNull && b.Kind == KindNull:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(a.Kind) && isNumeric(b.Kind) && a.Kind != b.Kind {
		af, bf := a.numeric(), b.numeric()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindInt, KindBool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case KindFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		default:
			return 0
		}
	case KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

func (v Value) numeric() float64 {
	if v.Kind == KindInt {
		return float64(v.I)
	}
	return v.F
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }
