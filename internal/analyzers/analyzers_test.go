package analyzers_test

import (
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analyzertest"
)

// Each analyzer has a fixture package under testdata/src exercising the
// violation, the clean shape, and the //sproutvet:allow escape hatch.
// Path-scoped analyzers (detrand, fnvkey) have their fixtures placed at the
// real import paths they watch; the shared clause-set store is watched by
// both, through one fixture whose violating line trips either.

func TestBatchAlias(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.BatchAlias, "batchalias")
}

func TestDetRand(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.DetRand, "repro/internal/prob")
	analyzertest.Run(t, "testdata", analyzers.DetRand, "repro/internal/clauseset")
}

func TestMapIter(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.MapIter, "mapiter")
}

func TestPoolReset(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.PoolReset, "poolreset")
}

func TestSortSlice(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.SortSlice, "sortslice")
}

func TestFnvKey(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.FnvKey, "repro/internal/engine")
	analyzertest.Run(t, "testdata", analyzers.FnvKey, "repro/internal/clauseset")
}

func TestIOHook(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.IOHook, "repro/internal/storage")
}

// TestScopedAnalyzersStayQuietElsewhere pins the package scoping: the
// scopecheck fixture commits detrand, fnvkey and iohook violations but
// lives outside every watch list, so none of them may fire there.
func TestScopedAnalyzersStayQuietElsewhere(t *testing.T) {
	analyzertest.Run(t, "testdata", analyzers.DetRand, "scopecheck")
	analyzertest.Run(t, "testdata", analyzers.FnvKey, "scopecheck")
	analyzertest.Run(t, "testdata", analyzers.IOHook, "scopecheck")
}
