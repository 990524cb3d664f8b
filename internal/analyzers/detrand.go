package analyzers

import (
	"go/ast"
)

// DetRand guards the bit-identical-confidences invariant from PR 3: every
// number the deterministic packages produce must be a pure function of the
// query, the catalog, and the explicitly threaded seed — never of wall-clock
// time, the process id, or the global math/rand state (which is seeded
// per-process and shared across goroutines). Samplers construct their own
// rand.New(rand.NewSource(seed)) streams keyed by tuple index, so those two
// constructors stay allowed.
//
// plan and benchutil are linted too: their timing sites (Stats wall-times,
// benchmark clocks) are nondeterministic on purpose and carry
// //sproutvet:allow detrand directives saying so.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbids global math/rand functions, time.Now/Since, and os.Getpid in the deterministic " +
		"packages; confidences must be bit-identical across runs, worker counts, and batch sizes",
	Run: runDetRand,
}

// detRandPkgs are the packages whose outputs are pinned bit-identical by
// TestWorkerCountBitIdentical and the batch-size identity tests.
var detRandPkgs = []string{
	"repro/internal/prob",
	"repro/internal/clauseset",
	"repro/internal/obdd",
	"repro/internal/dtree",
	"repro/internal/conf",
	"repro/internal/engine",
	"repro/internal/signature",
	"repro/internal/stats",
	"repro/internal/plan",
	"repro/internal/benchutil",
}

// detRandAllowed are math/rand package functions that build deterministic
// generators rather than consuming the global one.
var detRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDetRand(p *Pass) {
	if !pkgIn(p, detRandPkgs...) {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			// Tests may time themselves; the determinism contract binds
			// shipped code. Seeded test RNGs pass the check anyway.
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(p.TypesInfo, call)
			switch pkg {
			case "math/rand", "math/rand/v2":
				if !detRandAllowed[name] {
					p.Reportf(call.Pos(), "global %s.%s draws from shared per-process state; build a seeded stream with rand.New(rand.NewSource(seed)) so confidences stay bit-identical across runs", pkg, name)
				}
			case "time":
				if name == "Now" || name == "Since" {
					p.Reportf(call.Pos(), "time.%s is nondeterministic; deterministic packages must not branch on wall-clock time (timing belongs in plan Stats or benchutil, behind an allow directive)", name)
				}
			case "os":
				if name == "Getpid" {
					p.Reportf(call.Pos(), "os.Getpid varies per process; derive identifiers from threaded seeds or counters instead")
				}
			}
			return true
		})
	}
}
