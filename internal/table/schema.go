package table

import (
	"fmt"
	"strings"

	"repro/internal/prob"
)

// Role classifies a column of a probabilistic relation. Data columns hold
// ordinary values; Var and Prob columns hold the Boolean random variable and
// its marginal probability for the tuple contributed by one source table
// (the V and P columns of §II.A, propagated through joins per §II.C).
type Role uint8

// Column roles.
const (
	RoleData Role = iota
	RoleVar
	RoleProb
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleData:
		return "data"
	case RoleVar:
		return "var"
	case RoleProb:
		return "prob"
	default:
		return "?"
	}
}

// Column describes one attribute of a relation. For Var/Prob columns, Source
// names the base table whose tuple the variable/probability belongs to; the
// display name is derived as V(Source) / P(Source), matching the paper.
type Column struct {
	Name   string
	Source string // base table for Var/Prob columns; "" for data columns
	Kind   Kind
	Role   Role
}

// DataCol builds a data column.
func DataCol(name string, kind Kind) Column {
	return Column{Name: name, Kind: kind, Role: RoleData}
}

// VarCol builds the variable column of a source table.
func VarCol(source string) Column {
	return Column{Name: "V(" + source + ")", Source: source, Kind: KindInt, Role: RoleVar}
}

// ProbCol builds the probability column of a source table.
func ProbCol(source string) Column {
	return Column{Name: "P(" + source + ")", Source: source, Kind: KindFloat, Role: RoleProb}
}

// Schema is an ordered list of columns. Schemas are immutable by convention:
// operators derive new schemas rather than mutating existing ones.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the index of the column with the given name, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex that panics on unknown columns — used when the
// planner has already validated names.
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("table: schema %v has no column %q", s.Names(), name))
	}
	return i
}

// VarIndex returns the index of V(source), or -1.
func (s *Schema) VarIndex(source string) int {
	for i, c := range s.Cols {
		if c.Role == RoleVar && c.Source == source {
			return i
		}
	}
	return -1
}

// ProbIndex returns the index of P(source), or -1.
func (s *Schema) ProbIndex(source string) int {
	for i, c := range s.Cols {
		if c.Role == RoleProb && c.Source == source {
			return i
		}
	}
	return -1
}

// DataIndexes returns the indexes of all data columns, in schema order.
func (s *Schema) DataIndexes() []int {
	var out []int
	for i, c := range s.Cols {
		if c.Role == RoleData {
			out = append(out, i)
		}
	}
	return out
}

// Sources returns the distinct base tables that contribute Var columns, in
// schema order.
func (s *Schema) Sources() []string {
	var out []string
	for _, c := range s.Cols {
		if c.Role == RoleVar {
			out = append(out, c.Source)
		}
	}
	return out
}

// Names returns all column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Project returns a new schema with the columns at the given indexes.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Cols[j]
	}
	return &Schema{Cols: cols}
}

// Concat returns the schema of a join result: the columns of s followed by
// the columns of t. Duplicate data-column names are allowed transiently; the
// planner projects them away (the paper assumes join attributes share names,
// so a join keeps one copy — handled at plan compilation).
func (s *Schema) Concat(t *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(t.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, t.Cols...)
	return &Schema{Cols: cols}
}

// String renders the schema as (name:kind, ...).
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + ":" + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row: a flat slice of values aligned with a schema.
type Tuple []Value

// Clone copies a tuple; operators that buffer tuples across Next calls must
// clone because upstream operators reuse slot storage.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Project extracts the values at the given indexes into a fresh tuple.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// CompareOn orders two tuples by the columns at the given indexes.
func CompareOn(a, b Tuple, idx []int) int {
	for _, i := range idx {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// EqualOn reports whether two tuples agree on the columns at the indexes.
func EqualOn(a, b Tuple, idx []int) bool { return CompareOn(a, b, idx) == 0 }

// String renders a tuple.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is an in-memory table: a schema plus rows. It doubles as the
// materialized intermediate format of the executor.
type Relation struct {
	Schema *Schema
	Rows   []Tuple
}

// NewRelation builds an empty relation over a schema.
func NewRelation(s *Schema) *Relation { return &Relation{Schema: s} }

// Append adds a row after arity-checking it against the schema.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("table: arity mismatch: tuple has %d values, schema %d columns", len(t), r.Schema.Len())
	}
	r.Rows = append(r.Rows, t)
	return nil
}

// MustAppend is Append for fixtures; panics on arity mismatch.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// ProbTable is a base tuple-independent probabilistic table: a relation of
// schema (A, V, P) with the functional dependency A → V P (§II.A). Data
// columns come first, then V(Name), P(Name).
type ProbTable struct {
	Name string
	Rel  *Relation
}

// NewProbTable creates a tuple-independent table with the given data
// columns; the V and P columns are appended automatically.
func NewProbTable(name string, dataCols ...Column) *ProbTable {
	cols := make([]Column, 0, len(dataCols)+2)
	cols = append(cols, dataCols...)
	cols = append(cols, VarCol(name), ProbCol(name))
	return &ProbTable{Name: name, Rel: NewRelation(NewSchema(cols...))}
}

// AddRow appends a data tuple with its random variable and probability.
func (p *ProbTable) AddRow(v prob.Var, pr float64, data ...Value) error {
	if !(pr > 0 && pr <= 1) {
		return fmt.Errorf("table: probability %g outside (0,1] for table %s", pr, p.Name)
	}
	t := make(Tuple, 0, len(data)+2)
	t = append(t, data...)
	t = append(t, VarValue(v), Float(pr))
	return p.Rel.Append(t)
}

// MustAddRow is AddRow for fixtures.
func (p *ProbTable) MustAddRow(v prob.Var, pr float64, data ...Value) {
	if err := p.AddRow(v, pr, data...); err != nil {
		panic(err)
	}
}

// Assignment collects the variable→probability mapping of the table's rows.
func (p *ProbTable) Assignment(into *prob.Assignment) error {
	vi := p.Rel.Schema.VarIndex(p.Name)
	pi := p.Rel.Schema.ProbIndex(p.Name)
	for _, row := range p.Rel.Rows {
		v := row[vi].AsVar()
		if !v.Valid() {
			continue
		}
		if err := into.Set(v, row[pi].F); err != nil {
			return err
		}
	}
	return nil
}
