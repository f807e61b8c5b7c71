package tpch

import (
	"fmt"

	"x100/internal/algebra"
	"x100/internal/dateutil"
	"x100/internal/expr"
	"x100/internal/vector"
)

// Query builds the plan for TPC-H query q (1..22), hand-translated to X100
// algebra as the paper did ("we also hand-translated all TPC-H queries to
// X100 algebra", Section 5). Subqueries are decorrelated into joins,
// semi/anti joins and stacked aggregations. sf parameterizes the queries
// whose constants scale with the database (Q11).
func Query(q int, sf float64) (algebra.Node, error) {
	switch q {
	case 1:
		return Q1(), nil
	case 2:
		return Q2(), nil
	case 3:
		return Q3(), nil
	case 4:
		return Q4(), nil
	case 5:
		return Q5(), nil
	case 6:
		return Q6(), nil
	case 7:
		return Q7(), nil
	case 8:
		return Q8(), nil
	case 9:
		return Q9(), nil
	case 10:
		return Q10(), nil
	case 11:
		return Q11(sf), nil
	case 12:
		return Q12(), nil
	case 13:
		return Q13(), nil
	case 14:
		return Q14(), nil
	case 15:
		return Q15(), nil
	case 16:
		return Q16(), nil
	case 17:
		return Q17(), nil
	case 18:
		return Q18(), nil
	case 19:
		return Q19(), nil
	case 20:
		return Q20(), nil
	case 21:
		return Q21(), nil
	case 22:
		return Q22(), nil
	default:
		return nil, fmt.Errorf("tpch: no query %d", q)
	}
}

// NumQueries is the number of TPC-H queries.
const NumQueries = 22

func c(name string) *expr.Col                    { return expr.C(name) }
func f(v float64) *expr.Const                    { return expr.Float(v) }
func i32(v int32) *expr.Const                    { return expr.Int32Const(v) }
func d(s string) *expr.Const                     { return expr.DateConst(dateutil.MustParse(s)) }
func str(s string) *expr.Const                   { return expr.Str(s) }
func ne(a string, e expr.Expr) algebra.NamedExpr { return algebra.NE(a, e) }

// fetch is the positional foreign-key join of the paper's TPC-H plans
// (Section 4.1.2): each input row fetches cols of the referenced table at
// the row id its join-index column rowCol holds. Joined with a Select on
// the fetched columns it replaces a hash join whose build side is a Scan
// of the referenced table.
func fetch(in algebra.Node, table, rowCol string, cols ...string) *algebra.Fetch1Join {
	return algebra.NewFetch1Join(in, table, c(rowCol), cols...)
}

// revenue is the ubiquitous l_extendedprice * (1 - l_discount).
func revenue() expr.Expr {
	return expr.MulE(expr.SubE(f(1), c("l_discount")), c("l_extendedprice"))
}

// Q1 — Pricing Summary Report. The paper's flagship microbenchmark
// (Figure 9): a 98% selection on shipdate, direct aggregation on the
// returnflag/linestatus enum codes, and Fetch1Joins against the enum
// mapping tables to rehydrate the flags.
func Q1() algebra.Node {
	sel := algebra.NewSelect(
		algebra.NewScan("lineitem",
			"l_returnflag#", "l_linestatus#", "l_quantity", "l_extendedprice",
			"l_discount", "l_tax", "l_shipdate"),
		expr.LEE(c("l_shipdate"), d("1998-09-02")),
	)
	discPrice := revenue()
	charge := expr.MulE(expr.AddE(f(1), c("l_tax")), revenue())
	aggr := algebra.NewAggr(sel,
		[]algebra.NamedExpr{ne("rf", c("l_returnflag#")), ne("ls", c("l_linestatus#"))},
		[]algebra.AggExpr{
			algebra.Sum("sum_qty", c("l_quantity")),
			algebra.Sum("sum_base_price", c("l_extendedprice")),
			algebra.Sum("sum_disc_price", discPrice),
			algebra.Sum("sum_charge", charge),
			algebra.Avg("avg_qty", c("l_quantity")),
			algebra.Avg("avg_price", c("l_extendedprice")),
			algebra.Avg("avg_disc", c("l_discount")),
			algebra.Count("count_order"),
		},
	)
	f1 := algebra.NewFetch1Join(aggr, "l_returnflag#dict",
		expr.CastE(vector.Int32, c("rf")), "value").Renamed("l_returnflag")
	f2 := algebra.NewFetch1Join(f1, "l_linestatus#dict",
		expr.CastE(vector.Int32, c("ls")), "value").Renamed("l_linestatus")
	proj := algebra.NewProject(f2,
		ne("l_returnflag", c("l_returnflag")),
		ne("l_linestatus", c("l_linestatus")),
		ne("sum_qty", c("sum_qty")),
		ne("sum_base_price", c("sum_base_price")),
		ne("sum_disc_price", c("sum_disc_price")),
		ne("sum_charge", c("sum_charge")),
		ne("avg_qty", c("avg_qty")),
		ne("avg_price", c("avg_price")),
		ne("avg_disc", c("avg_disc")),
		ne("count_order", c("count_order")),
	)
	return algebra.NewOrder(proj, algebra.Asc(c("l_returnflag")), algebra.Asc(c("l_linestatus")))
}

// euSuppliers joins supplier with nation and region filtered to one region,
// keeping the supplier columns listed plus n_name.
func regionSuppliers(region string, suppCols ...string) algebra.Node {
	r := algebra.NewSelect(algebra.NewScan("region", "r_regionkey", "r_name"),
		expr.EQE(c("r_name"), str(region)))
	n := algebra.NewJoin(
		algebra.NewScan("nation", "n_nationkey", "n_name", "n_regionkey"),
		r, algebra.EquiCond{L: "n_regionkey", R: "r_regionkey"})
	s := algebra.NewJoin(
		algebra.NewScan("supplier", suppCols...),
		n, algebra.EquiCond{L: "s_nationkey", R: "n_nationkey"})
	return s
}

// Q2 — Minimum Cost Supplier.
func Q2() algebra.Node {
	eu := regionSuppliers("EUROPE",
		"s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment")
	euPS := algebra.NewJoin(
		algebra.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost"),
		eu, algebra.EquiCond{L: "ps_suppkey", R: "s_suppkey"})
	minPS := algebra.NewAggr(euPS,
		[]algebra.NamedExpr{ne("mp_partkey", c("ps_partkey"))},
		[]algebra.AggExpr{algebra.Min("min_cost", c("ps_supplycost"))})
	parts := algebra.NewSelect(
		algebra.NewScan("part", "p_partkey", "p_name", "p_mfgr", "p_size", "p_type"),
		expr.AndE(
			expr.EQE(c("p_size"), i32(15)),
			expr.LikeE(c("p_type"), "%BRASS"),
		))
	j1 := algebra.NewJoin(euPS, parts, algebra.EquiCond{L: "ps_partkey", R: "p_partkey"})
	j2 := algebra.NewJoin(j1, minPS,
		algebra.EquiCond{L: "ps_partkey", R: "mp_partkey"},
		algebra.EquiCond{L: "ps_supplycost", R: "min_cost"})
	proj := algebra.NewProject(j2,
		ne("s_acctbal", c("s_acctbal")), ne("s_name", c("s_name")),
		ne("n_name", c("n_name")), ne("p_partkey", c("p_partkey")),
		ne("p_mfgr", c("p_mfgr")), ne("s_address", c("s_address")),
		ne("s_phone", c("s_phone")), ne("s_comment", c("s_comment")))
	return algebra.NewTopN(proj, 100,
		algebra.Desc(c("s_acctbal")), algebra.Asc(c("n_name")),
		algebra.Asc(c("s_name")), algebra.Asc(c("p_partkey")))
}

// Q3 — Shipping Priority.
func Q3() algebra.Node {
	li := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderkey", "l_orderrow", "l_extendedprice", "l_discount", "l_shipdate"),
		expr.GTE(c("l_shipdate"), d("1995-03-15")))
	ord := algebra.NewSelect(fetch(li, "orders", "l_orderrow", "o_custrow", "o_orderdate", "o_shippriority"),
		expr.LTE(c("o_orderdate"), d("1995-03-15")))
	cust := algebra.NewSelect(fetch(ord, "customer", "o_custrow", "c_mktsegment"),
		expr.EQE(c("c_mktsegment"), str("BUILDING")))
	aggr := algebra.NewAggr(cust,
		[]algebra.NamedExpr{
			ne("l_orderkey", c("l_orderkey")),
			ne("o_orderdate", c("o_orderdate")),
			ne("o_shippriority", c("o_shippriority")),
		},
		[]algebra.AggExpr{algebra.Sum("revenue", revenue())})
	return algebra.NewTopN(aggr, 10, algebra.Desc(c("revenue")), algebra.Asc(c("o_orderdate")))
}

// Q4 — Order Priority Checking (EXISTS -> semi join).
func Q4() algebra.Node {
	ord := algebra.NewSelect(
		algebra.NewScan("orders", "o_orderkey", "o_orderdate", "o_orderpriority"),
		expr.AndE(
			expr.GEE(c("o_orderdate"), d("1993-07-01")),
			expr.LTE(c("o_orderdate"), d("1993-10-01")),
		))
	late := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderkey", "l_commitdate", "l_receiptdate"),
		expr.LTE(c("l_commitdate"), c("l_receiptdate")))
	semi := algebra.NewJoinKind(algebra.Semi, ord, late,
		algebra.EquiCond{L: "o_orderkey", R: "l_orderkey"})
	aggr := algebra.NewAggr(semi,
		[]algebra.NamedExpr{ne("o_orderpriority", c("o_orderpriority"))},
		[]algebra.AggExpr{algebra.Count("order_count")})
	return algebra.NewOrder(aggr, algebra.Asc(c("o_orderpriority")))
}

// Q5 — Local Supplier Volume.
func Q5() algebra.Node {
	li := algebra.NewScan("lineitem", "l_orderrow", "l_supprow", "l_extendedprice", "l_discount")
	ord := algebra.NewSelect(fetch(li, "orders", "l_orderrow", "o_custrow", "o_orderdate"),
		expr.AndE(
			expr.GEE(c("o_orderdate"), d("1994-01-01")),
			expr.LTE(c("o_orderdate"), d("1995-01-01")),
		))
	cs := fetch(fetch(ord, "customer", "o_custrow", "c_nationkey"),
		"supplier", "l_supprow", "s_nationkey", "s_nationrow")
	local := algebra.NewSelect(cs, expr.EQE(c("c_nationkey"), c("s_nationkey")))
	nr := fetch(fetch(local, "nation", "s_nationrow", "n_name", "n_regionrow"), "region", "n_regionrow", "r_name")
	asia := algebra.NewSelect(nr, expr.EQE(c("r_name"), str("ASIA")))
	aggr := algebra.NewAggr(asia,
		[]algebra.NamedExpr{ne("n_name", c("n_name"))},
		[]algebra.AggExpr{algebra.Sum("revenue", revenue())})
	return algebra.NewOrder(aggr, algebra.Desc(c("revenue")))
}

// Q6 — Forecasting Revenue Change: the pure scan/select/scalar-aggregate
// query, the cleanest probe of selection + aggregation primitives.
func Q6() algebra.Node {
	sel := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_shipdate", "l_discount", "l_quantity", "l_extendedprice"),
		expr.AndE(
			expr.GEE(c("l_shipdate"), d("1994-01-01")),
			expr.LEE(c("l_shipdate"), d("1994-12-31")),
			expr.GEE(c("l_discount"), f(0.05)),
			expr.LEE(c("l_discount"), f(0.07)),
			expr.LTE(c("l_quantity"), f(24)),
		))
	return algebra.NewAggr(sel, nil,
		[]algebra.AggExpr{algebra.Sum("revenue", expr.MulE(c("l_extendedprice"), c("l_discount")))})
}

// Q7 — Volume Shipping (nation pair France/Germany).
func Q7() algebra.Node {
	li := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderrow", "l_supprow", "l_shipdate", "l_extendedprice", "l_discount"),
		expr.AndE(
			expr.GEE(c("l_shipdate"), d("1995-01-01")),
			expr.LEE(c("l_shipdate"), d("1996-12-31")),
		))
	sn := fetch(fetch(li, "supplier", "l_supprow", "s_nationrow"), "nation", "s_nationrow", "n_name").
		Renamed("supp_nation")
	// Implied by the pair predicate below; it runs before the orders fetch.
	supp := algebra.NewSelect(sn, expr.InE(c("supp_nation"), str("FRANCE"), str("GERMANY")))
	oc := fetch(fetch(supp, "orders", "l_orderrow", "o_custrow"), "customer", "o_custrow", "c_nationrow")
	cn := fetch(oc, "nation", "c_nationrow", "n_name").Renamed("cust_nation")
	filt := algebra.NewSelect(cn, expr.OrE(
		expr.AndE(expr.EQE(c("supp_nation"), str("FRANCE")), expr.EQE(c("cust_nation"), str("GERMANY"))),
		expr.AndE(expr.EQE(c("supp_nation"), str("GERMANY")), expr.EQE(c("cust_nation"), str("FRANCE"))),
	))
	proj := algebra.NewProject(filt,
		ne("supp_nation", c("supp_nation")),
		ne("cust_nation", c("cust_nation")),
		ne("l_year", expr.YearE(c("l_shipdate"))),
		ne("volume", revenue()))
	aggr := algebra.NewAggr(proj,
		[]algebra.NamedExpr{
			ne("supp_nation", c("supp_nation")),
			ne("cust_nation", c("cust_nation")),
			ne("l_year", c("l_year")),
		},
		[]algebra.AggExpr{algebra.Sum("revenue", c("volume"))})
	return algebra.NewOrder(aggr,
		algebra.Asc(c("supp_nation")), algebra.Asc(c("cust_nation")), algebra.Asc(c("l_year")))
}

// Q8 — National Market Share.
func Q8() algebra.Node {
	parts := algebra.NewSelect(algebra.NewScan("part", "p_partkey", "p_type"),
		expr.EQE(c("p_type"), str("ECONOMY ANODIZED STEEL")))
	li := algebra.NewScan("lineitem", "l_orderrow", "l_partkey", "l_supprow", "l_extendedprice", "l_discount")
	pj := algebra.NewJoin(li, parts, algebra.EquiCond{L: "l_partkey", R: "p_partkey"})
	ord := algebra.NewSelect(fetch(pj, "orders", "l_orderrow", "o_custrow", "o_orderdate"),
		expr.AndE(
			expr.GEE(c("o_orderdate"), d("1995-01-01")),
			expr.LEE(c("o_orderdate"), d("1996-12-31")),
		))
	// Customer nation must lie in AMERICA.
	cn := fetch(fetch(ord, "customer", "o_custrow", "c_nationrow"), "nation", "c_nationrow", "n_regionrow")
	america := algebra.NewSelect(fetch(cn, "region", "n_regionrow", "r_name"),
		expr.EQE(c("r_name"), str("AMERICA")))
	sn := fetch(fetch(america, "supplier", "l_supprow", "s_nationrow"), "nation", "s_nationrow", "n_name").
		Renamed("supp_nation")
	proj := algebra.NewProject(sn,
		ne("o_year", expr.YearE(c("o_orderdate"))),
		ne("volume", revenue()),
		ne("brazil_volume", expr.CaseE(
			expr.EQE(c("supp_nation"), str("BRAZIL")), revenue(), f(0))))
	aggr := algebra.NewAggr(proj,
		[]algebra.NamedExpr{ne("o_year", c("o_year"))},
		[]algebra.AggExpr{
			algebra.Sum("sum_brazil", c("brazil_volume")),
			algebra.Sum("sum_volume", c("volume")),
		})
	share := algebra.NewProject(aggr,
		ne("o_year", c("o_year")),
		ne("mkt_share", expr.DivE(c("sum_brazil"), c("sum_volume"))))
	return algebra.NewOrder(share, algebra.Asc(c("o_year")))
}

// Q9 — Product Type Profit Measure.
func Q9() algebra.Node {
	parts := algebra.NewSelect(algebra.NewScan("part", "p_partkey", "p_name"),
		expr.LikeE(c("p_name"), "%green%"))
	li := algebra.NewScan("lineitem",
		"l_orderrow", "l_partkey", "l_suppkey", "l_supprow", "l_quantity", "l_extendedprice", "l_discount")
	pj := algebra.NewJoin(li, parts, algebra.EquiCond{L: "l_partkey", R: "p_partkey"})
	nj := fetch(fetch(pj, "supplier", "l_supprow", "s_nationrow"), "nation", "s_nationrow", "n_name")
	psj := algebra.NewJoin(nj,
		algebra.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost"),
		algebra.EquiCond{L: "l_partkey", R: "ps_partkey"},
		algebra.EquiCond{L: "l_suppkey", R: "ps_suppkey"})
	proj := algebra.NewProject(fetch(psj, "orders", "l_orderrow", "o_orderdate"),
		ne("nation", c("n_name")),
		ne("o_year", expr.YearE(c("o_orderdate"))),
		ne("amount", expr.SubE(revenue(),
			expr.MulE(c("ps_supplycost"), c("l_quantity")))))
	aggr := algebra.NewAggr(proj,
		[]algebra.NamedExpr{ne("nation", c("nation")), ne("o_year", c("o_year"))},
		[]algebra.AggExpr{algebra.Sum("sum_profit", c("amount"))})
	return algebra.NewOrder(aggr, algebra.Asc(c("nation")), algebra.Desc(c("o_year")))
}

// Q10 — Returned Item Reporting. The customer columns it groups by are all
// functions of the customer row, so it groups by o_custrow and fetches them
// once per group.
func Q10() algebra.Node {
	li := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderrow", "l_returnflag", "l_extendedprice", "l_discount"),
		expr.EQE(c("l_returnflag"), str("R")))
	ord := algebra.NewSelect(fetch(li, "orders", "l_orderrow", "o_custrow", "o_orderdate"),
		expr.AndE(
			expr.GEE(c("o_orderdate"), d("1993-10-01")),
			expr.LTE(c("o_orderdate"), d("1994-01-01")),
		))
	aggr := algebra.NewAggr(ord,
		[]algebra.NamedExpr{ne("o_custrow", c("o_custrow"))},
		[]algebra.AggExpr{algebra.Sum("revenue", revenue())})
	cust := fetch(aggr, "customer", "o_custrow",
		"c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment", "c_nationrow")
	proj := algebra.NewProject(fetch(cust, "nation", "c_nationrow", "n_name"),
		ne("c_custkey", c("c_custkey")), ne("c_name", c("c_name")),
		ne("c_acctbal", c("c_acctbal")), ne("c_phone", c("c_phone")),
		ne("n_name", c("n_name")), ne("c_address", c("c_address")),
		ne("c_comment", c("c_comment")), ne("revenue", c("revenue")))
	return algebra.NewTopN(proj, 20, algebra.Desc(c("revenue")), algebra.Asc(c("c_custkey")))
}

// Q11 — Important Stock Identification (scalar subquery -> CartProd).
func Q11(sf float64) algebra.Node {
	base := func() algebra.Node {
		nj := algebra.NewJoin(
			algebra.NewScan("supplier", "s_suppkey", "s_nationkey"),
			algebra.NewSelect(algebra.NewScan("nation", "n_nationkey", "n_name"),
				expr.EQE(c("n_name"), str("GERMANY"))),
			algebra.EquiCond{L: "s_nationkey", R: "n_nationkey"})
		return algebra.NewJoin(
			algebra.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"),
			nj, algebra.EquiCond{L: "ps_suppkey", R: "s_suppkey"})
	}
	value := expr.MulE(c("ps_supplycost"), expr.CastE(vector.Float64, c("ps_availqty")))
	grouped := algebra.NewAggr(base(),
		[]algebra.NamedExpr{ne("ps_partkey", c("ps_partkey"))},
		[]algebra.AggExpr{algebra.Sum("value", value)})
	total := algebra.NewProject(
		algebra.NewAggr(base(), nil, []algebra.AggExpr{algebra.Sum("total", value)}),
		ne("threshold", expr.MulE(c("total"), f(0.0001/sf))))
	joined := algebra.NewJoin(grouped, total) // cross product with one row
	filt := algebra.NewSelect(joined, expr.GTE(c("value"), c("threshold")))
	proj := algebra.NewProject(filt, ne("ps_partkey", c("ps_partkey")), ne("value", c("value")))
	return algebra.NewOrder(proj, algebra.Desc(c("value")), algebra.Asc(c("ps_partkey")))
}

// Q12 — Shipping Modes and Order Priority.
func Q12() algebra.Node {
	li := algebra.NewSelect(
		algebra.NewScan("lineitem",
			"l_orderrow", "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate"),
		expr.AndE(
			expr.InE(c("l_shipmode"), str("MAIL"), str("SHIP")),
			expr.LTE(c("l_commitdate"), c("l_receiptdate")),
			expr.LTE(c("l_shipdate"), c("l_commitdate")),
			expr.GEE(c("l_receiptdate"), d("1994-01-01")),
			expr.LTE(c("l_receiptdate"), d("1994-12-31")),
		))
	proj := algebra.NewProject(fetch(li, "orders", "l_orderrow", "o_orderpriority"),
		ne("l_shipmode", c("l_shipmode")),
		ne("high", expr.CaseE(
			expr.InE(c("o_orderpriority"), str("1-URGENT"), str("2-HIGH")),
			expr.Int(1), expr.Int(0))),
		ne("low", expr.CaseE(
			expr.InE(c("o_orderpriority"), str("1-URGENT"), str("2-HIGH")),
			expr.Int(0), expr.Int(1))))
	aggr := algebra.NewAggr(proj,
		[]algebra.NamedExpr{ne("l_shipmode", c("l_shipmode"))},
		[]algebra.AggExpr{
			algebra.Sum("high_line_count", c("high")),
			algebra.Sum("low_line_count", c("low")),
		})
	return algebra.NewOrder(aggr, algebra.Asc(c("l_shipmode")))
}

// Q13 — Customer Distribution (left outer join, double aggregation).
func Q13() algebra.Node {
	ord := algebra.NewSelect(
		algebra.NewScan("orders", "o_orderkey", "o_custkey", "o_comment"),
		expr.NotLikeE(c("o_comment"), "%special%requests%"))
	lo := algebra.NewJoinKind(algebra.LeftOuter,
		algebra.NewScan("customer", "c_custkey"),
		ord, algebra.EquiCond{L: "c_custkey", R: "o_custkey"})
	perCust := algebra.NewAggr(lo,
		[]algebra.NamedExpr{ne("c_custkey", c("c_custkey"))},
		[]algebra.AggExpr{algebra.Sum("c_count", expr.CaseE(
			expr.NEE(c("o_orderkey"), i32(0)), expr.Int(1), expr.Int(0)))})
	dist := algebra.NewAggr(perCust,
		[]algebra.NamedExpr{ne("c_count", c("c_count"))},
		[]algebra.AggExpr{algebra.Count("custdist")})
	return algebra.NewOrder(dist, algebra.Desc(c("custdist")), algebra.Desc(c("c_count")))
}

// Q14 — Promotion Effect.
func Q14() algebra.Node {
	li := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_partrow", "l_shipdate", "l_extendedprice", "l_discount"),
		expr.AndE(
			expr.GEE(c("l_shipdate"), d("1995-09-01")),
			expr.LTE(c("l_shipdate"), d("1995-09-30")),
		))
	proj := algebra.NewProject(fetch(li, "part", "l_partrow", "p_type"),
		ne("rev", revenue()),
		ne("promo_rev", expr.CaseE(expr.LikeE(c("p_type"), "PROMO%"), revenue(), f(0))))
	aggr := algebra.NewAggr(proj, nil, []algebra.AggExpr{
		algebra.Sum("sum_promo", c("promo_rev")),
		algebra.Sum("sum_rev", c("rev")),
	})
	return algebra.NewProject(aggr,
		ne("promo_revenue", expr.DivE(expr.MulE(f(100), c("sum_promo")), c("sum_rev"))))
}

// Q15 — Top Supplier (view + max -> join on equality of aggregates).
func Q15() algebra.Node {
	rev := func() algebra.Node {
		li := algebra.NewSelect(
			algebra.NewScan("lineitem", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"),
			expr.AndE(
				expr.GEE(c("l_shipdate"), d("1996-01-01")),
				expr.LTE(c("l_shipdate"), d("1996-03-31")),
			))
		return algebra.NewAggr(li,
			[]algebra.NamedExpr{ne("supplier_no", c("l_suppkey"))},
			[]algebra.AggExpr{algebra.Sum("total_revenue", revenue())})
	}
	mx := algebra.NewAggr(rev(), nil,
		[]algebra.AggExpr{algebra.Max("max_rev", c("total_revenue"))})
	best := algebra.NewJoin(rev(), mx, algebra.EquiCond{L: "total_revenue", R: "max_rev"})
	sj := algebra.NewJoin(best,
		algebra.NewScan("supplier", "s_suppkey", "s_name", "s_address", "s_phone"),
		algebra.EquiCond{L: "supplier_no", R: "s_suppkey"})
	proj := algebra.NewProject(sj,
		ne("s_suppkey", c("s_suppkey")), ne("s_name", c("s_name")),
		ne("s_address", c("s_address")), ne("s_phone", c("s_phone")),
		ne("total_revenue", c("total_revenue")))
	return algebra.NewOrder(proj, algebra.Asc(c("s_suppkey")))
}

// Q16 — Parts/Supplier Relationship (NOT EXISTS -> anti join; COUNT
// DISTINCT -> duplicate-eliminating aggregation then count).
func Q16() algebra.Node {
	parts := algebra.NewSelect(
		algebra.NewScan("part", "p_partkey", "p_brand", "p_type", "p_size"),
		expr.AndE(
			expr.NEE(c("p_brand"), str("Brand#45")),
			expr.NotLikeE(c("p_type"), "MEDIUM POLISHED%"),
			expr.InE(c("p_size"), i32(49), i32(14), i32(23), i32(45), i32(19), i32(3), i32(36), i32(9)),
		))
	ps := algebra.NewJoin(
		algebra.NewScan("partsupp", "ps_partkey", "ps_suppkey"),
		parts, algebra.EquiCond{L: "ps_partkey", R: "p_partkey"})
	bad := algebra.NewSelect(
		algebra.NewScan("supplier", "s_suppkey", "s_comment"),
		expr.LikeE(c("s_comment"), "%Customer%Complaints%"))
	anti := algebra.NewJoinKind(algebra.Anti, ps, bad,
		algebra.EquiCond{L: "ps_suppkey", R: "s_suppkey"})
	distinct := algebra.NewAggr(anti,
		[]algebra.NamedExpr{
			ne("p_brand", c("p_brand")), ne("p_type", c("p_type")),
			ne("p_size", c("p_size")), ne("ps_suppkey", c("ps_suppkey")),
		}, nil)
	counts := algebra.NewAggr(distinct,
		[]algebra.NamedExpr{
			ne("p_brand", c("p_brand")), ne("p_type", c("p_type")), ne("p_size", c("p_size")),
		},
		[]algebra.AggExpr{algebra.Count("supplier_cnt")})
	return algebra.NewOrder(counts,
		algebra.Desc(c("supplier_cnt")), algebra.Asc(c("p_brand")),
		algebra.Asc(c("p_type")), algebra.Asc(c("p_size")))
}

// Q17 — Small-Quantity-Order Revenue (correlated avg -> group + join).
func Q17() algebra.Node {
	parts := algebra.NewSelect(
		algebra.NewScan("part", "p_partkey", "p_brand", "p_container"),
		expr.AndE(
			expr.EQE(c("p_brand"), str("Brand#23")),
			expr.EQE(c("p_container"), str("MED BOX")),
		))
	base := algebra.NewJoin(
		algebra.NewScan("lineitem", "l_partkey", "l_quantity", "l_extendedprice"),
		parts, algebra.EquiCond{L: "l_partkey", R: "p_partkey"})
	avgq := algebra.NewAggr(base,
		[]algebra.NamedExpr{ne("ap_key", c("l_partkey"))},
		[]algebra.AggExpr{algebra.Avg("avg_qty", c("l_quantity"))})
	j := algebra.NewJoin(base, avgq, algebra.EquiCond{L: "l_partkey", R: "ap_key"})
	filt := algebra.NewSelect(j,
		expr.LTE(c("l_quantity"), expr.MulE(f(0.2), c("avg_qty"))))
	aggr := algebra.NewAggr(filt, nil,
		[]algebra.AggExpr{algebra.Sum("sum_ext", c("l_extendedprice"))})
	return algebra.NewProject(aggr,
		ne("avg_yearly", expr.DivE(c("sum_ext"), f(7))))
}

// Q18 — Large Volume Customer.
func Q18() algebra.Node {
	bigOrders := algebra.NewSelect(
		algebra.NewAggr(
			algebra.NewScan("lineitem", "l_orderkey", "l_quantity"),
			[]algebra.NamedExpr{ne("bo_key", c("l_orderkey"))},
			[]algebra.AggExpr{algebra.Sum("sum_l_qty", c("l_quantity"))}),
		expr.GTE(c("sum_l_qty"), f(300)))
	oj := algebra.NewJoin(
		algebra.NewScan("orders", "o_orderkey", "o_custrow", "o_orderdate", "o_totalprice"),
		bigOrders, algebra.EquiCond{L: "o_orderkey", R: "bo_key"})
	aggr := algebra.NewAggr(fetch(oj, "customer", "o_custrow", "c_custkey", "c_name"),
		[]algebra.NamedExpr{
			ne("c_name", c("c_name")), ne("c_custkey", c("c_custkey")),
			ne("o_orderkey", c("o_orderkey")), ne("o_orderdate", c("o_orderdate")),
			ne("o_totalprice", c("o_totalprice")),
		},
		[]algebra.AggExpr{algebra.Sum("sum_qty", c("sum_l_qty"))})
	return algebra.NewTopN(aggr, 100,
		algebra.Desc(c("o_totalprice")), algebra.Asc(c("o_orderdate")))
}

// Q19 — Discounted Revenue (disjunctive join predicate evaluated as a
// vectorized Select over the joined dataflow).
func Q19() algebra.Node {
	li := algebra.NewSelect(
		algebra.NewScan("lineitem",
			"l_partrow", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct"),
		expr.AndE(
			expr.InE(c("l_shipmode"), str("AIR"), str("REG AIR")),
			expr.EQE(c("l_shipinstruct"), str("DELIVER IN PERSON")),
		))
	pj := fetch(li, "part", "l_partrow", "p_brand", "p_container", "p_size")
	branch := func(brand string, containers []string, qlo, qhi float64, smax int32) expr.Expr {
		var cs []*expr.Const
		for _, x := range containers {
			cs = append(cs, str(x))
		}
		return expr.AndE(
			expr.EQE(c("p_brand"), str(brand)),
			expr.InE(c("p_container"), cs...),
			expr.GEE(c("l_quantity"), f(qlo)),
			expr.LEE(c("l_quantity"), f(qhi)),
			expr.GEE(c("p_size"), i32(1)),
			expr.LEE(c("p_size"), i32(smax)),
		)
	}
	filt := algebra.NewSelect(pj, expr.OrE(
		branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
		branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
		branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
	))
	return algebra.NewAggr(filt, nil,
		[]algebra.AggExpr{algebra.Sum("revenue", revenue())})
}

// Q20 — Potential Part Promotion.
func Q20() algebra.Node {
	fparts := algebra.NewSelect(algebra.NewScan("part", "p_partkey", "p_name"),
		expr.LikeE(c("p_name"), "forest%"))
	shipped := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate"),
		expr.AndE(
			expr.GEE(c("l_shipdate"), d("1994-01-01")),
			expr.LTE(c("l_shipdate"), d("1994-12-31")),
		))
	sq := algebra.NewAggr(shipped,
		[]algebra.NamedExpr{ne("sq_part", c("l_partkey")), ne("sq_supp", c("l_suppkey"))},
		[]algebra.AggExpr{algebra.Sum("sum_qty", c("l_quantity"))})
	ps := algebra.NewJoinKind(algebra.Semi,
		algebra.NewScan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty"),
		fparts, algebra.EquiCond{L: "ps_partkey", R: "p_partkey"})
	j := algebra.NewJoin(ps, sq,
		algebra.EquiCond{L: "ps_partkey", R: "sq_part"},
		algebra.EquiCond{L: "ps_suppkey", R: "sq_supp"})
	filt := algebra.NewSelect(j, expr.GTE(
		expr.CastE(vector.Float64, c("ps_availqty")),
		expr.MulE(f(0.5), c("sum_qty"))))
	supHit := algebra.NewAggr(filt,
		[]algebra.NamedExpr{ne("hit_supp", c("ps_suppkey"))}, nil)
	nj := algebra.NewSelect(
		fetch(algebra.NewScan("supplier", "s_suppkey", "s_name", "s_address", "s_nationrow"),
			"nation", "s_nationrow", "n_name"),
		expr.EQE(c("n_name"), str("CANADA")))
	semi := algebra.NewJoinKind(algebra.Semi, nj, supHit,
		algebra.EquiCond{L: "s_suppkey", R: "hit_supp"})
	proj := algebra.NewProject(semi, ne("s_name", c("s_name")), ne("s_address", c("s_address")))
	return algebra.NewOrder(proj, algebra.Asc(c("s_name")))
}

// Q21 — Suppliers Who Kept Orders Waiting (EXISTS/NOT EXISTS decorrelated
// through per-order distinct-supplier counts).
func Q21() algebra.Node {
	// Distinct (order, supplier) pairs over all lineitems.
	allPairs := algebra.NewAggr(
		algebra.NewScan("lineitem", "l_orderkey", "l_suppkey"),
		[]algebra.NamedExpr{ne("ao_key", c("l_orderkey")), ne("ao_supp", c("l_suppkey"))}, nil)
	nSupp := algebra.NewAggr(allPairs,
		[]algebra.NamedExpr{ne("ns_key", c("ao_key"))},
		[]algebra.AggExpr{algebra.Count("nsupp")})
	// Distinct (order, supplier) pairs over late lineitems.
	late := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"),
		expr.GTE(c("l_receiptdate"), c("l_commitdate")))
	latePairs := algebra.NewAggr(late,
		[]algebra.NamedExpr{ne("lo_key", c("l_orderkey")), ne("lo_supp", c("l_suppkey"))}, nil)
	nLate := algebra.NewAggr(latePairs,
		[]algebra.NamedExpr{ne("nl_key", c("lo_key"))},
		[]algebra.AggExpr{algebra.Count("nlate")})

	l1 := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderkey", "l_orderrow", "l_supprow", "l_receiptdate", "l_commitdate"),
		expr.GTE(c("l_receiptdate"), c("l_commitdate")))
	sn := fetch(fetch(l1, "supplier", "l_supprow", "s_nationrow"), "nation", "s_nationrow", "n_name")
	saudi := algebra.NewSelect(sn, expr.EQE(c("n_name"), str("SAUDI ARABIA")))
	oj := algebra.NewSelect(fetch(saudi, "orders", "l_orderrow", "o_orderstatus"),
		expr.EQE(c("o_orderstatus"), str("F")))
	sj := fetch(oj, "supplier", "l_supprow", "s_name")
	withAll := algebra.NewJoin(sj, nSupp, algebra.EquiCond{L: "l_orderkey", R: "ns_key"})
	withLate := algebra.NewJoin(withAll, nLate, algebra.EquiCond{L: "l_orderkey", R: "nl_key"})
	filt := algebra.NewSelect(withLate, expr.AndE(
		expr.GTE(c("nsupp"), expr.Int(1)),
		expr.EQE(c("nlate"), expr.Int(1)),
	))
	aggr := algebra.NewAggr(filt,
		[]algebra.NamedExpr{ne("s_name", c("s_name"))},
		[]algebra.AggExpr{algebra.Count("numwait")})
	return algebra.NewTopN(aggr, 100, algebra.Desc(c("numwait")), algebra.Asc(c("s_name")))
}

// Q22 — Global Sales Opportunity.
func Q22() algebra.Node {
	codes := []*expr.Const{str("13"), str("31"), str("23"), str("29"), str("30"), str("18"), str("17")}
	eligible := func() algebra.Node {
		return algebra.NewSelect(
			algebra.NewScan("customer", "c_custkey", "c_phone", "c_acctbal"),
			expr.InE(expr.SubstrE(c("c_phone"), 1, 2), codes...))
	}
	avgBal := algebra.NewAggr(
		algebra.NewSelect(eligible(), expr.GTE(c("c_acctbal"), f(0))),
		nil, []algebra.AggExpr{algebra.Avg("avg_bal", c("c_acctbal"))})
	j := algebra.NewJoin(eligible(), avgBal) // cross product with one row
	rich := algebra.NewSelect(j, expr.GTE(c("c_acctbal"), c("avg_bal")))
	noOrders := algebra.NewJoinKind(algebra.Anti, rich,
		algebra.NewScan("orders", "o_custkey"),
		algebra.EquiCond{L: "c_custkey", R: "o_custkey"})
	proj := algebra.NewProject(noOrders,
		ne("cntrycode", expr.SubstrE(c("c_phone"), 1, 2)),
		ne("c_acctbal", c("c_acctbal")))
	aggr := algebra.NewAggr(proj,
		[]algebra.NamedExpr{ne("cntrycode", c("cntrycode"))},
		[]algebra.AggExpr{
			algebra.Count("numcust"),
			algebra.Sum("totacctbal", c("c_acctbal")),
		})
	return algebra.NewOrder(aggr, algebra.Asc(c("cntrycode")))
}
