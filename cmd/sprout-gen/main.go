// Command sprout-gen generates probabilistic TPC-H data and writes every
// table to a page-structured heap file on disk, with the ANALYZE sidecar
// next to them (tpch.Data.WriteHeapFiles), exercising the secondary-storage
// layer end to end. tpch.OpenDiskCatalog opens the directory as a catalog
// whose tables stay on disk.
//
// Usage:
//
//	sprout-gen [-sf 0.01] [-seed 1] [-out ./tpch-data]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "./tpch-data", "output directory")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	t0 := time.Now()
	d := tpch.Generate(tpch.Config{SF: *sf, Seed: *seed})
	fmt.Printf("generated SF=%g in %.1fs\n", *sf, time.Since(t0).Seconds())
	if err := d.WriteHeapFiles(*out); err != nil {
		fail(err)
	}

	// Report what was written: page counts from the heap files, tuple
	// counts from the sidecar's row counts.
	sc, err := stats.LoadSidecar(*out)
	if err != nil {
		fail(err)
	}
	var totalPages, totalTuples int64
	for _, tb := range d.Tables() {
		path := filepath.Join(*out, tb.Name+".heap")
		h, err := storage.OpenHeapFile(path)
		if err != nil {
			fail(err)
		}
		pages, tuples := h.NumPages(), int64(sc.Tables[tb.Name].Rows)
		if err := h.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("%-8s %9d tuples %7d pages  %s\n", tb.Name, tuples, pages, path)
		totalPages += pages
		totalTuples += tuples
	}
	fmt.Printf("total: %d tuples, %d pages (%.1f MiB)\n",
		totalTuples, totalPages, float64(totalPages)*storage.PageSize/(1<<20))
	fmt.Printf("stats sidecar: %s\n", filepath.Join(*out, stats.SidecarFile))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sprout-gen:", err)
	os.Exit(1)
}
