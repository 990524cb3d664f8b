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

// String renders a tuple.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a materialized result: a schema plus rows — the format of
// answers at the API edge (engine.RelationSink, conf.Source.Relation) and
// of test fixtures. Base tables are ColStores and the engine moves
// ColBatches; no operator reads a Relation.
type Relation struct {
	Schema *Schema
	Rows   []Tuple
}

// NewRelation builds an empty relation over a schema.
func NewRelation(s *Schema) *Relation { return &Relation{Schema: s} }

// Check reports whether t fits the schema: one value per column, each NULL
// or of its column's declared kind. Every row that enters the engine from
// outside passes it (ColStore.Append, Relation.Append), so a column vector
// holds one kind and the sort keys order like CompareOn.
func (s *Schema) Check(t Tuple) error {
	if len(t) != s.Len() {
		return fmt.Errorf("table: arity mismatch: tuple has %d values, schema %d columns", len(t), s.Len())
	}
	for i, v := range t {
		if v.Kind != KindNull && v.Kind != s.Cols[i].Kind {
			return fmt.Errorf("table: column %s is %s, got %s value %v", s.Cols[i].Name, s.Cols[i].Kind, v.Kind, v)
		}
	}
	return nil
}

// Append adds a row after checking it against the schema (Schema.Check).
func (r *Relation) Append(t Tuple) error {
	if err := r.Schema.Check(t); err != nil {
		return err
	}
	r.Rows = append(r.Rows, t)
	return nil
}

// MustAppend is Append for fixtures; panics on a row that does not fit.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// ColStore is a base table's storage: its rows as column chunks of at most
// BatchSize rows, in insertion order. It is what an in-memory scan reads
// (engine.ColChunkScan, the scan that also serves sort+scan placements) and
// what ANALYZE walks, so a base table is never held, or transposed, as rows.
// Rows are not appended while a scan reads the chunks.
type ColStore struct {
	Schema *Schema
	Chunks []*ColBatch
}

// NewColStore builds an empty store over a schema.
func NewColStore(s *Schema) *ColStore { return &ColStore{Schema: s} }

// Append checks a row against the schema (Schema.Check) and appends its
// cells to the last chunk, starting a new chunk when that one is full.
func (s *ColStore) Append(t Tuple) error {
	if err := s.Schema.Check(t); err != nil {
		return err
	}
	k := len(s.Chunks)
	if k == 0 || s.Chunks[k-1].N == BatchSize {
		s.Chunks = append(s.Chunks, NewColBatch(s.Schema))
		k++
	}
	s.Chunks[k-1].AppendRow(t)
	return nil
}

// Len returns the number of rows.
func (s *ColStore) Len() int {
	n := 0
	for _, c := range s.Chunks {
		n += c.Rows()
	}
	return n
}

// Check reports whether every chunk has the schema's shape: one column
// vector per column, each of its column's declared kind. Rows appended
// through Append fit by construction; Check is for chunks a caller put in
// place itself, and costs O(columns) per chunk.
func (s *ColStore) Check() error {
	for i, c := range s.Chunks {
		if len(c.Cols) != s.Schema.Len() {
			return fmt.Errorf("table: chunk %d has %d columns, schema %d", i, len(c.Cols), s.Schema.Len())
		}
		for j := range c.Cols {
			if col := s.Schema.Cols[j]; c.Cols[j].Kind != col.Kind {
				return fmt.Errorf("table: column %s is %s, chunk %d holds %s", col.Name, col.Kind, i, c.Cols[j].Kind)
			}
		}
	}
	return nil
}

// ProbTable is a base tuple-independent probabilistic table: a relation of
// schema (A, V, P) with the functional dependency A → V P (§II.A), stored
// as column chunks. Data columns come first, then V(Name), P(Name). A
// disk-resident table (plan.DiskBinding) keeps its rows in a heap file and
// an empty store that carries only the schema.
type ProbTable struct {
	Name string
	Rel  *ColStore
}

// NewProbTable creates a tuple-independent table with the given data
// columns; the V and P columns are appended automatically.
func NewProbTable(name string, dataCols ...Column) *ProbTable {
	cols := make([]Column, 0, len(dataCols)+2)
	cols = append(cols, dataCols...)
	cols = append(cols, VarCol(name), ProbCol(name))
	return &ProbTable{Name: name, Rel: NewColStore(NewSchema(cols...))}
}

// AddRow appends a data tuple with its random variable and probability.
func (p *ProbTable) AddRow(v prob.Var, pr float64, data ...Value) error {
	if !(pr > 0 && pr <= 1) {
		return fmt.Errorf("table: probability %g outside (0,1] for table %s", pr, p.Name)
	}
	var buf [16]Value // the row is only read: no allocation for ≤ 14 data columns
	t := append(append(buf[:0], data...), VarValue(v), Float(pr))
	if err := p.Rel.Append(t); err != nil {
		return fmt.Errorf("%w (table %s)", err, p.Name)
	}
	return nil
}

// MustAddRow is AddRow for fixtures.
func (p *ProbTable) MustAddRow(v prob.Var, pr float64, data ...Value) {
	if err := p.AddRow(v, pr, data...); err != nil {
		panic(err)
	}
}

// Assignment collects the variable→probability mapping of the table's rows,
// reading the V and P vectors (a NULL variable is 0 there, and skipped).
func (p *ProbTable) Assignment(into *prob.Assignment) error {
	vi := p.Rel.Schema.VarIndex(p.Name)
	pi := p.Rel.Schema.ProbIndex(p.Name)
	for _, c := range p.Rel.Chunks {
		for i := 0; i < c.Rows(); i++ {
			row := c.RowID(i)
			v := prob.Var(c.Cols[vi].Ints[row])
			if !v.Valid() {
				continue
			}
			if err := into.Set(v, c.Cols[pi].Floats[row]); err != nil {
				return err
			}
		}
	}
	return nil
}
