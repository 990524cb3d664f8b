package tpch

import (
	"fmt"
	"path/filepath"

	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/table"
)

// WriteHeapFiles persists every generated table as a heap file of column
// pages under dir (one <Table>.heap per table), exercising the
// secondary-storage layer on the write path, and drops a stats.json sidecar
// next to them so loaders skip the first-query ANALYZE. cmd/sprout-gen is a
// thin wrapper around this; OpenDiskCatalog opens what it writes.
func (d *Data) WriteHeapFiles(dir string) error {
	for _, tb := range d.Tables() {
		path := filepath.Join(dir, tb.Name+".heap")
		h, err := storage.CreateHeapFile(path)
		if err != nil {
			return err
		}
		for _, c := range tb.Rel.Chunks {
			if err := h.AppendBatch(c, nil); err != nil {
				h.Close()
				return fmt.Errorf("tpch: writing %s: %w", tb.Name, err)
			}
		}
		if err := h.Close(); err != nil {
			return err
		}
	}
	// Analyze the still-in-memory tables (cheaper than rescanning the files
	// just written) and persist the snapshot alongside them.
	return stats.SaveSidecar(dir, d.Sidecar())
}

// Sidecar builds the statistics sidecar of a generated instance from its
// in-memory tables' chunks.
func (d *Data) Sidecar() *stats.Sidecar {
	sc := &stats.Sidecar{Tables: make(map[string]*stats.TableStats), MaxVar: d.NumVars}
	for _, tb := range d.Tables() {
		sc.Tables[tb.Name] = stats.Analyze(tb)
	}
	return sc
}

// OpenDiskCatalog builds a planner catalog whose tables stay on disk: each
// heap file is opened (not loaded) and bound to the catalog through the
// shared buffer pool, so scans page in tuples on demand and queries run
// through the storage layer end to end. The second return value is the
// instance's world-variable count. When the directory carries a stats.json
// sidecar (WriteHeapFiles writes one), its ANALYZE snapshot and variable
// ceiling are installed directly; otherwise each heap file is analyzed with
// one scan through the pool. The caller owns the returned closer, which
// releases every opened heap file.
func OpenDiskCatalog(dir string, poolPages int) (*plan.Catalog, int, func() error, error) {
	ref := Generate(Config{SF: 0.0001, Seed: 0}) // schema donor only
	pool := storage.NewBufferPool(poolPages)
	c := plan.NewCatalog()

	sc, scErr := stats.LoadSidecar(dir)
	var files []*storage.HeapFile
	closeAll := func() error {
		var first error
		for _, h := range files {
			if err := h.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	numVars := 0
	statsMap := make(map[string]*stats.TableStats)
	for _, refTable := range ref.Tables() {
		h, err := storage.OpenHeapFile(filepath.Join(dir, refTable.Name+".heap"))
		if err != nil {
			closeAll()
			return nil, 0, nil, err
		}
		files = append(files, h)
		schema := refTable.Rel.Schema
		c.MustAdd(&table.ProbTable{Name: refTable.Name, Rel: table.NewColStore(schema)})
		var ts *stats.TableStats
		if scErr == nil {
			ts = sc.Tables[refTable.Name]
		}
		if ts == nil {
			ts, err = stats.AnalyzeHeapFile(h.Path(), refTable.Name, schema, pool)
			if err != nil {
				closeAll()
				return nil, 0, nil, fmt.Errorf("tpch: analyzing %s: %w", refTable.Name, err)
			}
		}
		statsMap[refTable.Name] = ts
		if ts.MaxVar > numVars {
			numVars = ts.MaxVar
		}
		if err := c.BindDisk(refTable.Name, &plan.DiskBinding{File: h, Pool: pool, Rows: ts.Rows}); err != nil {
			closeAll()
			return nil, 0, nil, err
		}
	}
	if scErr == nil && sc.MaxVar > numVars {
		numVars = sc.MaxVar
	}
	c.SetStats(statsMap)
	return c, numVars, closeAll, nil
}
