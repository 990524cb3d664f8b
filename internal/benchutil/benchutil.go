// Package benchutil holds UnsafeQuery, the one query the benchmark suite
// (bench/, a module of its own) and the root engine tests share that is not
// a TPC-H catalog entry. It lives in a package of its own because bench/
// compiles against this import path; its home is internal/tpch, and the
// package goes away once the benchmark moves its import there.
package benchutil

import "repro/internal/query"

// UnsafeQuery returns π{odate}(Cust ⋈ Ord ⋈ Item) — the Introduction's
// query shape on the real TPC-H schema, where Item has no ckey column. Its
// effective join attributes ckey (Cust, Ord) and okey (Ord, Item) meet in
// Ord with incomparable relation sets, so without the okey → ckey key
// dependency no hierarchical signature exists and exact confidence
// computation is off the table (#P-hard, §II). Run against an empty FD set
// it is the workload of the lineage tiers: one lineage DNF per order date,
// compiled by the OBDD or d-tree tier or estimated by Monte Carlo.
func UnsafeQuery() *query.Query {
	return &query.Query{
		Name: "mc-unsafe",
		Head: []string{"odate"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname", "nkey", "cacctbal", "mkt"),
			query.Rel("Ord", "okey", "ckey", "odate", "oprice", "opri"),
			query.Rel("Item", "okey", "pkey", "skey", "qty", "price", "discount", "sdate", "smode", "rflag"),
		},
	}
}
