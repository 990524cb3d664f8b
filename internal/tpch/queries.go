package tpch

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/table"
)

// Entry is one catalog query: a conjunctive subquery of a TPC-H query (with
// aggregations and inequality joins dropped, per §VI) plus metadata for the
// case study.
type Entry struct {
	Name string
	Q    *query.Query
	// Boolean marks the Boolean variants (B-prefixed in the paper's
	// figures).
	Boolean bool
	// Note documents how the conjunctive subquery was derived from the
	// original TPC-H query.
	Note string
	// Unsupported marks queries outside the framework entirely (Q13's
	// outer join); Q stays nil for them.
	Unsupported string
	// ExtraFDs supplies key dependencies under the query's renamed
	// attributes (needed when aliases rename key columns, e.g. Q7's two
	// Nation copies).
	ExtraFDs []fd.FD
}

// FDsFor returns the TPC-H keys plus the entry's alias-renamed keys.
func FDsFor(e *Entry) *fd.Set {
	s := FDs()
	for _, f := range e.ExtraFDs {
		s.Add(f)
	}
	return s
}

func sel(rel, attr string, op engine.CmpOp, v table.Value) query.Selection {
	return query.Selection{Rel: rel, Attr: attr, Op: op, Val: v}
}

// relItem returns the Item relation reference with all attributes.
func relItem() query.RelRef {
	return query.Rel("Item", "okey", "pkey", "skey", "qty", "price", "discount", "sdate", "smode", "rflag")
}

func relOrd() query.RelRef  { return query.Rel("Ord", "okey", "ckey", "odate", "oprice", "opri") }
func relCust() query.RelRef { return query.Rel("Cust", "ckey", "cname", "nkey", "cacctbal", "mkt") }
func relSupp() query.RelRef { return query.Rel("Supp", "skey", "sname", "nkey", "sacctbal") }
func relPart() query.RelRef {
	return query.Rel("Part", "pkey", "pname", "brand", "container", "psize", "rprice")
}
func relPsupp() query.RelRef  { return query.Rel("Psupp", "pkey", "skey", "scost", "aqty") }
func relNation() query.RelRef { return query.Rel("Nation", "nkey", "nname", "rkey") }
func relRegion() query.RelRef { return query.Rel("Region", "rkey", "rname") }

// Catalog returns the full query catalog, keyed by the names used in the
// paper's figures ("3", "B17", ...). Boolean variants share the relations
// and selections of their non-Boolean counterpart with an empty head.
func Catalog() map[string]*Entry {
	m := make(map[string]*Entry)
	add := func(e *Entry) {
		if _, dup := m[e.Name]; dup {
			panic("tpch: duplicate catalog entry " + e.Name)
		}
		if e.Q != nil {
			e.Q.Name = e.Name
			if err := e.Q.Validate(); err != nil {
				panic(fmt.Sprintf("tpch: catalog entry %s invalid: %v", e.Name, err))
			}
		}
		m[e.Name] = e
	}
	boolean := func(name string, base *Entry, note string) {
		q := base.Q.Clone()
		q.Head = nil
		add(&Entry{Name: name, Q: q, Boolean: true, Note: note})
	}

	// Q1: pricing summary report — single-table selection on Item.
	q1 := &Entry{Name: "1", Q: &query.Query{
		Head: []string{"rflag", "smode"},
		Rels: []query.RelRef{relItem()},
		Sels: []query.Selection{sel("Item", "sdate", engine.OpLe, table.Str("1998-09-02"))},
	}, Note: "aggregations dropped; grouping attributes as head"}
	add(q1)
	boolean("B1", q1, "Boolean variant of 1")

	// Q2: minimum-cost supplier — 5-way join; hierarchical only under the
	// TPC-H keys (§VI: "for the queries 2, 11, and 18 we use the existing
	// TPC-H keys to derive hierarchical FD-reducts").
	q2 := &Entry{Name: "2", Q: &query.Query{
		Head: []string{"sacctbal", "sname", "nname", "pkey", "pname"},
		Rels: []query.RelRef{relPart(), relPsupp(), relSupp(), relNation(), relRegion()},
		Sels: []query.Selection{
			sel("Part", "psize", engine.OpEq, table.Int(15)),
			sel("Region", "rname", engine.OpEq, table.Str("EUROPE")),
		},
	}, Note: "min-cost subquery dropped; needs keys for the FD-reduct"}
	add(q2)

	// Q3: shipping priority — same joins as 18 but okey in the head, which
	// drops the safe-plan join-order restriction (§VII).
	q3 := &Entry{Name: "3", Q: &query.Query{
		Head: []string{"okey", "odate", "opri"},
		Rels: []query.RelRef{relCust(), relOrd(), itemNoCkey()},
		Sels: []query.Selection{
			sel("Cust", "mkt", engine.OpEq, table.Str("BUILDING")),
			sel("Ord", "odate", engine.OpLt, table.Str("1995-03-15")),
			sel("Item", "sdate", engine.OpGt, table.Str("1995-03-15")),
		},
	}, Note: "revenue aggregation dropped"}
	add(q3)
	boolean("B3", q3, "Boolean variant of 3")

	// Q4: order priority checking — EXISTS with the receipt/commit
	// inequality dropped leaves Ord ⋈ Item.
	q4 := &Entry{Name: "4", Q: &query.Query{
		Head: []string{"opri"},
		Rels: []query.RelRef{relOrd(), relItem()},
		Sels: []query.Selection{
			sel("Ord", "odate", engine.OpGe, table.Str("1993-07-01")),
			sel("Ord", "odate", engine.OpLt, table.Str("1993-10-01")),
		},
	}, Note: "inequality join receiptdate>commitdate dropped"}
	add(q4)
	boolean("B4", q4, "Boolean variant of 4")

	// Q5: local supplier volume — Item joins Ord, Supp on different
	// non-key, non-head attributes: no hierarchical FD-reduct (§VI).
	add(&Entry{Name: "5", Q: &query.Query{
		Head: []string{"nname"},
		Rels: []query.RelRef{relCust(), relOrd(), relItem(), relSupp(), relNation(), relRegion()},
		Sels: []query.Selection{
			sel("Region", "rname", engine.OpEq, table.Str("ASIA")),
			sel("Ord", "odate", engine.OpGe, table.Str("1994-01-01")),
			sel("Ord", "odate", engine.OpLt, table.Str("1995-01-01")),
		},
	}, Note: "intractable: Item joins Ord (okey) and Supp (skey) with incomparable relation sets"})

	// Q6: forecasting revenue change — single-table; Boolean only in the
	// figures.
	b6 := &query.Query{
		Rels: []query.RelRef{relItem()},
		Sels: []query.Selection{
			sel("Item", "sdate", engine.OpGe, table.Str("1994-01-01")),
			sel("Item", "sdate", engine.OpLt, table.Str("1995-01-01")),
			sel("Item", "discount", engine.OpGe, table.Float(0.05)),
			sel("Item", "discount", engine.OpLe, table.Float(0.07)),
			sel("Item", "qty", engine.OpLt, table.Int(24)),
		},
	}
	add(&Entry{Name: "B6", Q: b6, Boolean: true, Note: "revenue aggregation dropped"})

	// Q7: volume shipping — six tables with two copies of Nation (the
	// self-join is harmless because the two copies select disjoint tuples,
	// §IV/§VI). With skey in the head, the FD-reduct yields exactly the
	// paper's signature Nation1 Supp (Nation2(Cust(Ord Item*)*)*)*.
	q7 := &Entry{Name: "7", Q: &query.Query{
		Head: []string{"skey", "sdate"},
		Rels: []query.RelRef{
			query.Alias("Nation1", "Nation", "n1key", "n1name", "r1key"),
			query.Rel("Supp", "skey", "sname", "n1key", "sacctbal"),
			relItem(), relOrd(),
			query.Rel("Cust", "ckey", "cname", "n2key", "cacctbal", "mkt"),
			query.Alias("Nation2", "Nation", "n2key", "n2name", "r2key"),
		},
		Sels: []query.Selection{
			sel("Nation1", "n1name", engine.OpEq, table.Str("FRANCE")),
			sel("Nation2", "n2name", engine.OpEq, table.Str("GERMANY")),
			sel("Item", "sdate", engine.OpGe, table.Str("1995-01-01")),
			sel("Item", "sdate", engine.OpLe, table.Str("1996-12-31")),
		},
	}, Note: "two Nation copies with mutually exclusive selections",
		ExtraFDs: []fd.FD{
			{Rel: "Supp", LHS: []string{"skey"}, RHS: []string{"sname", "n1key", "sacctbal"}},
			{Rel: "Nation1", LHS: []string{"n1key"}, RHS: []string{"n1name", "r1key"}},
			{Rel: "Nation2", LHS: []string{"n2key"}, RHS: []string{"n2name", "r2key"}},
			{Rel: "Cust", LHS: []string{"ckey"}, RHS: []string{"cname", "n2key", "cacctbal", "mkt"}},
		}}
	add(q7)

	// Q8: national market share — Item joins Part, Supp, Ord on three
	// pairwise-incomparable attributes: intractable (§VI).
	add(&Entry{Name: "8", Q: &query.Query{
		Head: []string{"odate"},
		Rels: []query.RelRef{relPart(), relSupp(), relItem(), relOrd(), relCust(), relNation(), relRegion()},
		Sels: []query.Selection{
			sel("Region", "rname", engine.OpEq, table.Str("AMERICA")),
			sel("Part", "container", engine.OpEq, table.Str("MED BOX")),
		},
	}, Note: "intractable: Item joins Part/Supp/Ord on incomparable attributes"})

	// Q9: product type profit — same obstruction as Q8 (§VI).
	add(&Entry{Name: "9", Q: &query.Query{
		Head: []string{"nname", "odate"},
		Rels: []query.RelRef{relPart(), relSupp(), relItem(), relPsupp(), relOrd(), relNation()},
		Sels: []query.Selection{sel("Part", "brand", engine.OpEq, table.Str("Brand#12"))},
	}, Note: "intractable: Item joins Part/Supp/Psupp/Ord on incomparable attributes"})

	// Q10: returned item reporting.
	q10 := &Entry{Name: "10", Q: &query.Query{
		Head: []string{"ckey", "cname", "cacctbal", "nname", "mkt"},
		Rels: []query.RelRef{relCust(), relOrd(), itemNoCkey(), relNation()},
		Sels: []query.Selection{
			sel("Ord", "odate", engine.OpGe, table.Str("1993-10-01")),
			sel("Ord", "odate", engine.OpLt, table.Str("1994-01-01")),
			sel("Item", "rflag", engine.OpEq, table.Str("R")),
		},
	}, Note: "revenue aggregation dropped; ckey in head keeps it hierarchical"}
	add(q10)
	boolean("B10", q10, "Boolean variant of 10")

	// Q11: important stock identification — needs keys (§VI).
	q11 := &Entry{Name: "11", Q: &query.Query{
		Head: []string{"pkey"},
		Rels: []query.RelRef{relPsupp(), relSupp(), relNation()},
		Sels: []query.Selection{sel("Nation", "nname", engine.OpEq, table.Str("GERMANY"))},
	}, Note: "value aggregation dropped; needs keys for the FD-reduct"}
	add(q11)
	boolean("B11", q11, "Boolean variant of 11")

	// Q12: shipping modes and order priority.
	q12 := &Entry{Name: "12", Q: &query.Query{
		Head: []string{"smode"},
		Rels: []query.RelRef{relOrd(), relItem()},
		Sels: []query.Selection{
			sel("Item", "smode", engine.OpEq, table.Str("MAIL")),
			sel("Item", "sdate", engine.OpGe, table.Str("1994-01-01")),
			sel("Item", "sdate", engine.OpLt, table.Str("1995-01-01")),
		},
	}, Note: "receipt/commit inequalities dropped"}
	add(q12)
	boolean("B12", q12, "Boolean variant of 12")

	// Q13: customer distribution — left outer join, outside the framework
	// (§VI).
	add(&Entry{Name: "13", Unsupported: "left outer join on customer and orders (§VI)"})

	// Q14: promotion effect — Boolean variant in the figures.
	q14 := &query.Query{
		Rels: []query.RelRef{relItem(), relPart()},
		Sels: []query.Selection{
			sel("Item", "sdate", engine.OpGe, table.Str("1995-09-01")),
			sel("Item", "sdate", engine.OpLt, table.Str("1995-10-01")),
		},
	}
	add(&Entry{Name: "B14", Q: q14, Boolean: true, Note: "promo-revenue aggregation dropped"})

	// Q15: top supplier.
	q15 := &Entry{Name: "15", Q: &query.Query{
		Head: []string{"skey", "sname", "sacctbal"},
		Rels: []query.RelRef{relSupp(), relItem()},
		Sels: []query.Selection{
			sel("Item", "sdate", engine.OpGe, table.Str("1996-01-01")),
			sel("Item", "sdate", engine.OpLt, table.Str("1996-04-01")),
		},
	}, Note: "revenue view aggregation dropped"}
	add(q15)
	boolean("B15", q15, "Boolean variant of 15")

	// Q16: parts/supplier relationship.
	q16 := &Entry{Name: "16", Q: &query.Query{
		Head: []string{"brand", "container", "psize"},
		Rels: []query.RelRef{relPsupp(), relPart()},
		Sels: []query.Selection{
			sel("Part", "brand", engine.OpNe, table.Str("Brand#45")),
			sel("Part", "psize", engine.OpEq, table.Int(49)),
		},
	}, Note: "supplier-count aggregation and NOT IN dropped"}
	add(q16)
	boolean("B16", q16, "Boolean variant of 16")

	// Q17: small-quantity-order revenue — Boolean in the figures. "B17 is
	// a join of Item and a rather small subset of Part on the key pkey"
	// (§VII).
	q17 := &query.Query{
		Rels: []query.RelRef{relItem(), relPart()},
		Sels: []query.Selection{
			sel("Part", "brand", engine.OpEq, table.Str("Brand#23")),
			sel("Part", "container", engine.OpEq, table.Str("MED BOX")),
		},
	}
	add(&Entry{Name: "B17", Q: q17, Boolean: true, Note: "avg-quantity subquery dropped"})

	// Q18: large volume customer — "very similar to our query from the
	// Introduction" (§VII): Cust ⋈ Ord ⋈ Item on ckey and okey with a very
	// selective condition on Cust; hierarchical only under okey → ckey.
	q18 := &Entry{Name: "18", Q: &query.Query{
		Head: []string{"cname", "odate", "oprice"},
		Rels: []query.RelRef{relCust(), relOrd(), itemNoCkey()},
		Sels: []query.Selection{sel("Cust", "cname", engine.OpEq, table.Str("Customer#000000001"))},
	}, Note: "sum(qty) HAVING dropped; keys okey/ckey removed from head; needs the FD okey→ckey"}
	add(q18)
	boolean("B18", q18, "Boolean variant of 18")

	// Q19: discounted revenue — a disjunction of three mutually exclusive
	// hierarchical conjunctions (§VI); the catalog carries the first
	// conjunct, the harness may evaluate all three and combine.
	q19 := &query.Query{
		Rels: []query.RelRef{relItem(), relPart()},
		Sels: []query.Selection{
			sel("Part", "brand", engine.OpEq, table.Str("Brand#12")),
			sel("Part", "container", engine.OpEq, table.Str("SM CASE")),
			sel("Item", "qty", engine.OpGe, table.Int(1)),
			sel("Item", "qty", engine.OpLe, table.Int(11)),
			sel("Item", "smode", engine.OpEq, table.Str("AIR")),
		},
	}
	add(&Entry{Name: "B19", Q: q19, Boolean: true, Note: "first of three mutually exclusive conjunctions"})

	// Q20: potential part promotion — Supp ⋈ Nation ⋈ Psupp; hierarchical
	// only under skey → nkey.
	q20 := &Entry{Name: "20", Q: &query.Query{
		Head: []string{"sname"},
		Rels: []query.RelRef{relSupp(), relNation(), relPsupp()},
		Sels: []query.Selection{sel("Nation", "nname", engine.OpEq, table.Str("CANADA"))},
	}, Note: "nested availability subqueries dropped; needs keys"}
	add(q20)

	// Q21: suppliers who kept orders waiting — Supp ⋈ Item ⋈ Nation (the
	// EXISTS/NOT EXISTS copies of Item are dropped with their inequality
	// joins); hierarchical under skey → nkey with skey kept in the head.
	q21 := &Entry{Name: "21", Q: &query.Query{
		Head: []string{"skey", "sname"},
		Rels: []query.RelRef{relSupp(), relItem(), relNation()},
		Sels: []query.Selection{sel("Nation", "nname", engine.OpEq, table.Str("SAUDI ARABIA"))},
	}, Note: "waiting-order EXISTS subqueries dropped"}
	add(q21)

	// Q22: global sales opportunity — removing its aggregations and
	// inequality subqueries leaves a simple selection on Cust (§VI).
	add(&Entry{Name: "22", Q: &query.Query{
		Head: []string{"ckey", "cacctbal"},
		Rels: []query.RelRef{relCust()},
		Sels: []query.Selection{sel("Cust", "cacctbal", engine.OpGt, table.Float(0))},
	}, Note: "reduces to a simple selection (§VI)"})

	return m
}

// itemNoCkey returns Item as used by queries joining it only through okey —
// real TPC-H lineitem has no custkey column (§I: "the table Item has no
// ckey attribute (as it is the case in real TPC-H)").
func itemNoCkey() query.RelRef { return relItem() }

// sigmaOrEmpty is a tiny helper so callers can pass nil FDs.
func sigmaOrEmpty(s *fd.Set) *fd.Set {
	if s == nil {
		return fd.NewSet()
	}
	return s
}
