package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// dataset is one built database: the catalog the workload queries, the
// generated tables it came from (the checker's in-memory reference, dropped
// before timing on disk05) and, for disk05, the heap-file directory.
type dataset struct {
	name  string
	cat   *plan.Catalog
	data  *tpch.Data
	dir   string // heap files; "" for mem02
	close func() error
}

// pool returns the buffer pool every disk-bound table shares, nil for mem02.
func (d *dataset) pool() *storage.BufferPool {
	if db := d.cat.Disk("Item"); db != nil {
		return db.Pool
	}
	return nil
}

// setupPhases times the set-up calls of one build, from nothing to the
// first runnable query.
type setupPhases struct {
	generate, writeHeap, openCatalog, analyzeMem float64
}

func (p setupPhases) total() float64 {
	return p.generate + p.writeHeap + p.openCatalog + p.analyzeMem
}

// buildDataset builds the named dataset from the seed. Heap files go under
// dir, which must not exist yet.
func buildDataset(name string, seed int64, scale float64, dir string) (*dataset, setupPhases, error) {
	var ph setupPhases
	ds := &dataset{name: name, close: func() error { return nil }}
	switch name {
	case disk05:
		t0 := time.Now()
		ds.data = tpch.Generate(tpch.Config{SF: disk05SF * scale, Seed: seed})
		ph.generate = time.Since(t0).Seconds()

		t0 = time.Now()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, ph, err
		}
		if err := ds.data.WriteHeapFiles(dir); err != nil {
			return nil, ph, err
		}
		ph.writeHeap = time.Since(t0).Seconds()

		t0 = time.Now()
		cat, _, closer, err := tpch.OpenDiskCatalog(dir, poolPages)
		if err != nil {
			return nil, ph, err
		}
		ph.openCatalog = time.Since(t0).Seconds()
		ds.cat, ds.dir, ds.close = cat, dir, closer
	case mem02:
		t0 := time.Now()
		ds.data = tpch.Generate(tpch.Config{SF: mem02SF * scale, Seed: seed})
		ph.generate = time.Since(t0).Seconds()

		t0 = time.Now()
		ds.cat = ds.data.Catalog()
		ds.cat.Analyze()
		ph.analyzeMem = time.Since(t0).Seconds()
	default:
		return nil, ph, fmt.Errorf("unknown dataset %q", name)
	}
	return ds, ph, nil
}

// setUp builds the dataset `builds` times, each from nothing, and keeps the
// last. Earlier builds are closed, deleted and collected (untimed) so each
// build starts from the same state.
func setUp(name string, seed int64, scale float64, tmp string, builds int) (*dataset, []setupPhases, error) {
	var all []setupPhases
	for i := 0; ; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("heap-%d", i))
		ds, ph, err := buildDataset(name, seed, scale, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", name, err)
		}
		all = append(all, ph)
		if i == builds-1 {
			return ds, all, nil
		}
		if err := ds.close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		ds = nil
		runtime.GC()
	}
}

// analyzeHeapFiles times ANALYZE over every heap file of a disk dataset —
// what OpenDiskCatalog pays when the stats.json sidecar is missing.
func analyzeHeapFiles(ds *dataset) (float64, error) {
	pool := storage.NewBufferPool(poolPages)
	t0 := time.Now()
	for _, name := range ds.cat.Names() {
		tb, _ := ds.cat.Table(name)
		path := filepath.Join(ds.dir, name+".heap")
		if _, err := stats.AnalyzeHeapFile(path, name, tb.Rel.Schema, pool); err != nil {
			return 0, fmt.Errorf("analyzing %s: %w", path, err)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// analyzeInMemory times ANALYZE over the generated tables as Go heap.
func analyzeInMemory(d *tpch.Data) float64 {
	cat := d.Catalog()
	t0 := time.Now()
	cat.Analyze()
	return time.Since(t0).Seconds()
}
