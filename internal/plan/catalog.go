// Package plan builds and runs query plans for confidence computation on
// tuple-independent probabilistic databases. It implements the plan space
// of paper §V.B — lazy plans (confidence computed once, at the top), eager
// plans (probability-computation operators pushed to every table and join,
// Fig. 7a), hybrid plans (operators pushed past selected joins, Fig. 7b) —
// plus the MystiQ-style safe plans of Dalvi/Suciu (Fig. 2) as the
// state-of-the-art baseline the paper compares against, and three plan
// styles beyond the paper, the lineage tiers (tier.go): the OBDD plan
// (obdd.go), which compiles each answer's lineage into a reduced ordered
// BDD, and the d-tree plan (dtree.go), which decomposes it order-free —
// both exact under a budget, certified [lo, hi] bounds beyond it — and the
// Monte Carlo plan (mc.go), which estimates confidences with an (ε, δ)
// sampler.
//
// On queries without a hierarchical signature — #P-hard in general — every
// exact style falls through the ladder of those tiers instead of
// rejecting: hierarchical sort+scan → OBDD-exact under budget →
// d-tree-exact under budget → Monte Carlo. Spec.RequireExact restores the
// paper's strict rejection.
//
// All styles lower from one shared logical plan IR (internal/logical),
// built once by Prepare and executed by the lowering in lower.go, MystiQ's
// probability-mode plans included. On top sits the cost-based
// adaptive planner (cost.go): the Auto style analyzes the catalog
// (internal/stats, cached), prices every applicable style's IR, and
// dispatches the cheapest; Explain (explain.go) renders the IR and the
// decision without running the query.
package plan

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/table"
)

// Catalog maps base table names to tuple-independent tables. It is the
// "database" side of the planner; the sprout facade wraps it. Alongside the
// tables it caches the ANALYZE statistics the cost-based planner consumes.
type Catalog struct {
	tables map[string]*table.ProbTable
	disk   map[string]*DiskBinding

	statsMu sync.Mutex
	stats   map[string]*stats.TableStats
}

// DiskBinding marks a registered table as disk-resident: scans and ANALYZE
// read its heap file through the shared buffer pool instead of the table's
// column chunks (its Rel then is an empty store carrying only the schema).
// Rows caches the file's tuple count so cardinality estimation needs no I/O.
type DiskBinding struct {
	File *storage.HeapFile
	Pool *storage.BufferPool
	Rows int
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*table.ProbTable)} }

// Add registers a base table after checking each of its chunks against its
// schema (table.ColStore.Check): a table whose chunks a caller put in place
// enters the engine here, and the column vectors hold one kind per column.
func (c *Catalog) Add(t *table.ProbTable) error {
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("plan: table %s already registered", t.Name)
	}
	if err := t.Rel.Check(); err != nil {
		return fmt.Errorf("plan: table %s: %w", t.Name, err)
	}
	c.tables[t.Name] = t
	c.statsMu.Lock()
	c.stats = nil // new table invalidates the cached ANALYZE snapshot
	c.statsMu.Unlock()
	return nil
}

// Analyze computes (or returns the cached) catalog statistics: one ANALYZE
// pass per base table. Concurrent Analyze/TableStats calls are safe with
// each other (the cache is mutex-guarded); like every other catalog read,
// they must not race with Add — the catalog is frozen while an engine
// serves it, and Add (setup time) invalidates any cached snapshot.
func (c *Catalog) Analyze() map[string]*stats.TableStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.stats == nil {
		c.stats = make(map[string]*stats.TableStats, len(c.tables))
		for name, t := range c.tables {
			if db := c.disk[name]; db != nil {
				ts, err := stats.AnalyzeHeapFile(db.File.Path(), name, t.Rel.Schema, db.Pool)
				if err == nil {
					c.stats[name] = ts
				}
				continue
			}
			c.stats[name] = stats.Analyze(t)
		}
	}
	return c.stats
}

// TableStats returns the cached statistics of a base table, or nil when the
// catalog has not been analyzed (estimators then fall back to the default
// selectivity constants).
func (c *Catalog) TableStats(name string) *stats.TableStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.stats == nil {
		return nil
	}
	return c.stats[name]
}

// BindDisk marks a registered table as disk-resident. The table must already
// be registered (its Rel supplying the schema); binding invalidates any cached
// ANALYZE snapshot, like Add.
func (c *Catalog) BindDisk(name string, b *DiskBinding) error {
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("plan: cannot bind disk storage for unknown table %s", name)
	}
	if c.disk == nil {
		c.disk = make(map[string]*DiskBinding)
	}
	c.disk[name] = b
	c.statsMu.Lock()
	c.stats = nil
	c.statsMu.Unlock()
	return nil
}

// Disk returns the disk binding of a table, or nil for in-memory tables.
func (c *Catalog) Disk(name string) *DiskBinding {
	return c.disk[name]
}

// SetStats installs a precomputed ANALYZE snapshot — e.g. the sidecar
// statistics persisted next to heap files — so the first cost-based query
// skips the ANALYZE pass over the data.
func (c *Catalog) SetStats(s map[string]*stats.TableStats) {
	c.statsMu.Lock()
	c.stats = s
	c.statsMu.Unlock()
}

// MustAdd is Add for fixtures.
func (c *Catalog) MustAdd(t *table.ProbTable) {
	if err := c.Add(t); err != nil {
		panic(err)
	}
}

// Table returns a registered base table.
func (c *Catalog) Table(name string) (*table.ProbTable, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// Names lists the registered table names in sorted order.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Rows returns the cardinality of a base table (0 for unknown tables). For
// disk-bound tables the count comes from the binding — the table's store is
// empty.
func (c *Catalog) Rows(name string) int {
	if db := c.disk[name]; db != nil {
		return db.Rows
	}
	if t, ok := c.tables[name]; ok {
		return t.Rel.Len()
	}
	return 0
}

// Base returns the stored table behind a relation occurrence.
func (c *Catalog) Base(ref query.RelRef) (*table.ProbTable, error) {
	base, ok := c.tables[ref.Base]
	if !ok {
		return nil, fmt.Errorf("plan: unknown base table %q", ref.Base)
	}
	return base, nil
}

// renaming returns the occurrence renaming of a base schema bs — its
// output schema, and for each output column the base column it is — for
// the zero-copy projection that relabels a leaf's scan: data columns
// positionally renamed to the occurrence's attribute names, V/P columns
// renamed to the occurrence name. Renaming is what makes the paper's alias
// trick for self-joins work (two copies of Nation with attributes
// n1key/n2key, §VI on TPC-H query 7).
func renaming(ref query.RelRef, bs *table.Schema) ([]int, *table.Schema, error) {
	dataIdx := bs.DataIndexes()
	if len(ref.Attrs) != len(dataIdx) {
		return nil, nil, fmt.Errorf("plan: occurrence %s has %d attributes but base %s has %d data columns",
			ref.Name, len(ref.Attrs), ref.Base, len(dataIdx))
	}
	cols := make([]table.Column, 0, len(dataIdx)+2)
	for i, j := range dataIdx {
		cols = append(cols, table.DataCol(ref.Attrs[i], bs.Cols[j].Kind))
	}
	cols = append(cols, table.VarCol(ref.Name), table.ProbCol(ref.Name))
	idx := append(slices.Clone(dataIdx), bs.VarIndex(ref.Base), bs.ProbIndex(ref.Base))
	return idx, table.NewSchema(cols...), nil
}
