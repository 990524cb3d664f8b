// Package analyzers is sproutvet: a suite of repo-specific static checks
// that turn the engine's runtime-tested invariants into compile-time
// guarantees. Each analyzer encodes one invariant and names the PR whose
// bug class it guards against:
//
//   - batchalias — tuples from Operator.NextBatch (and, one at a time, from
//     engine.Cursor.Next) live in reused buffers and must be slab-cloned
//     before they outlive the batch, unless the source op promises
//     StableTuples (PR 5's materialization rule, held in one place by
//     engine.RelationSink); likewise the column storage of a ColBatch
//     refilled by NextColBatch or handed, borrowed, to a sink's AddBatch.
//   - detrand — the deterministic packages (prob, clauseset, obdd, dtree,
//     conf, engine, signature, stats, plan) must not consume global
//     math/rand state, wall-clock time, or the pid: confidences are pinned
//     bit-identical across worker counts and batch sizes (PR 3).
//   - mapiter — slices built by ranging over maps must be canonicalized
//     before they escape; map iteration order is randomized (the
//     nondeterminism behind PR 3's clause-order canonicalization fix).
//   - poolreset — values recycled through sync.Pool whose type has a Reset
//     method must be Reset before reuse; pooled OBDD/d-tree builders carry
//     the previous compilation's memo and arena state (PR 5/6). The one
//     place builders are pooled today is conf's per-answer driver
//     (compileLineage), whose tier callbacks Reset first.
//   - sortslice — sort.Slice/sort.Strings et al. are banned in favor of the
//     allocation-free slices.Sort* generics (PR 5's repo-wide conversion).
//   - fnvkey — the engine/clauseset/obdd/dtree/conf/prob/table hot paths
//     must not key maps by rendered strings; hash with prob.FNV*/table.HashOn
//     into integer keys (the regression class PR 5's containers removed).
//
// False positives are silenced at the site with
//
//	//sproutvet:allow <analyzer> <reason>
//
// either at the end of the offending line or on its own line directly
// above. The reason is mandatory: the analyzers reject directives with an
// empty reason (and directives naming unknown analyzers), so every escape
// hatch documents why the invariant does not apply.
//
// The suite runs through cmd/sproutvet, which speaks the `go vet -vettool`
// protocol; see that command's documentation for wiring. The meta-test in
// this package keeps the real tree lint-clean by construction.
package analyzers
