// Package obs is SPROUT's observability layer: a low-overhead metrics
// registry, per-query execution traces, and an HTTP exposition handler.
//
// The three pieces are independent and individually opt-in:
//
//   - Registry holds named counters, gauges and fixed-bucket latency
//     histograms. A counter is one atomic, so an increment is a single
//     atomic add; a nil *Registry (and every metric handed out by one)
//     is a valid no-op, so instrumented code never branches on "metrics
//     enabled".
//
//   - Trace is a per-query span tree collected during plan lowering and
//     execution: per-operator row/batch counts, lineage statistics,
//     OBDD/d-tree compilation detail and Monte Carlo sampler detail.
//     Attributes are either structural (deterministic for a given query
//     and database, identical across worker counts and batch sizes) or
//     loose (timings, scheduling-dependent counts); Trace.Fingerprint
//     renders only the structural part, which tests pin bit-identical
//     across worker counts.
//
//   - Handler serves a Registry as expvar-style JSON under /metrics,
//     plus /debug/pprof and a /healthz endpoint, for profiling a live
//     run (see sproutq -listen).
//
// The package deliberately imports nothing from the rest of the engine,
// so every layer (engine, conf, obdd, dtree, prob, plan) may depend on
// it.
package obs
