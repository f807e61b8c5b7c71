// Package tpch provides a deterministic, scale-factor-parameterized TPC-H
// data generator (a from-scratch dbgen equivalent), the 22 benchmark query
// plans in X100 algebra, and the hard-coded Query 1 UDF of Figure 4.
//
// The generator reproduces the value distributions the paper's experiments
// depend on: Query 1's shipdate predicate selects ~98% of lineitem; the
// returnflag×linestatus grouping yields 4 combinations; l_quantity,
// l_discount and l_tax have small domains and are stored as enumeration
// types (Section 4.3); orders is sorted on date with lineitem clustered
// along (Section 5), so summary indices (zone maps) on the date columns
// prune date-range scans. Join
// indices over all foreign-key paths are materialized as int32 row-id
// columns (l_orderrow, o_custrow, ...), mirroring MonetDB's positional join
// columns.
package tpch

import (
	"fmt"

	"x100/internal/colstore"
	"x100/internal/core"
	"x100/internal/dateutil"
	"x100/internal/vector"
)

// rng is a deterministic xorshift64* generator; the same seed always
// produces the same database.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a uniform int in [lo, hi] inclusive.
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// f64 returns a uniform float in [0, 1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / float64(1<<53) }

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	// nation -> region mapping per the TPC-H spec.
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	nationRegion = []int{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

	colors = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
		"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
		"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
		"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
		"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
		"hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
		"light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
		"mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
		"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
		"red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
		"sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle",
		"tomato", "turquoise", "violet", "wheat", "white", "yellow",
	}

	commentWords = []string{
		"furiously", "carefully", "quickly", "blithely", "slyly", "regular",
		"express", "special", "pending", "ironic", "final", "bold", "even",
		"silent", "unusual", "deposits", "requests", "accounts", "packages",
		"instructions", "foxes", "pinto", "beans", "theodolites", "platelets",
		"dependencies", "excuses", "asymptotes", "courts", "dolphins", "multipliers",
		"sauternes", "warthogs", "frets", "dinos", "attainments", "realms", "braids",
	}
)

// Config controls generation.
type Config struct {
	// SF is the TPC-H scale factor (1.0 = the 1GB schema row counts).
	SF float64
	// Seed makes generation deterministic; 0 selects a fixed default.
	Seed uint64
	// PlainColumns disables enumeration compression (ablation).
	PlainColumns bool
}

// Sizes returns the row counts per table at the configured scale factor.
func (c Config) Sizes() map[string]int {
	sf := c.SF
	scale := func(n float64) int {
		v := int(n * sf)
		if v < 1 {
			v = 1
		}
		return v
	}
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": scale(10000),
		"customer": scale(150000),
		"part":     scale(200000),
		"partsupp": 4 * scale(200000),
		"orders":   scale(1500000),
	}
}

// Epoch dates used by the generator and the queries.
var (
	startDate   = dateutil.MustParse("1992-01-01")
	endDate     = dateutil.MustParse("1998-08-02")
	currentDate = dateutil.MustParse("1995-06-17")
)

// Generate builds a complete TPC-H database at the given scale factor:
// tables, enum dictionaries (with their mapping tables), join-index row-id
// columns, registered as join indices, and summary indices on the
// clustered date columns o_orderdate and l_shipdate: zone maps of 1024-row
// ranges that prune the scans of date-range selections.
func Generate(cfg Config) (*core.Database, error) {
	if cfg.SF <= 0 {
		cfg.SF = 0.01
	}
	r := newRNG(cfg.Seed)
	db := core.NewDatabase()
	sz := cfg.Sizes()

	// --- region & nation ---
	region := colstore.NewTable("region")
	must(region.AddColumn("r_regionkey", vector.Int32, []int32{0, 1, 2, 3, 4}))
	must(region.AddColumn("r_name", vector.String, append([]string(nil), regionNames...)))
	must(region.AddColumn("r_comment", vector.String, comments(r, 5)))
	db.AddTable(region)

	nation := colstore.NewTable("nation")
	nk := make([]int32, 25)
	nrk := make([]int32, 25)
	for i := range nk {
		nk[i] = int32(i)
		nrk[i] = int32(nationRegion[i])
	}
	must(nation.AddColumn("n_nationkey", vector.Int32, nk))
	must(nation.AddColumn("n_name", vector.String, append([]string(nil), nationNames...)))
	must(nation.AddColumn("n_regionkey", vector.Int32, nrk))
	must(nation.AddColumn("n_regionrow", vector.Int32, append([]int32(nil), nrk...)))
	must(nation.AddColumn("n_comment", vector.String, comments(r, 25)))
	db.AddTable(nation)

	// --- supplier ---
	nSupp := sz["supplier"]
	sKey := make([]int32, nSupp)
	sName := make([]string, nSupp)
	sNation := make([]int32, nSupp)
	sPhone := make([]string, nSupp)
	sAcct := make([]float64, nSupp)
	sAddr := make([]string, nSupp)
	sComment := make([]string, nSupp)
	for i := 0; i < nSupp; i++ {
		sKey[i] = int32(i + 1)
		sName[i] = fmt.Sprintf("Supplier#%09d", i+1)
		n := r.intn(25)
		sNation[i] = int32(n)
		sPhone[i] = phone(r, n)
		sAcct[i] = money(r, -99999, 999999)
		sAddr[i] = address(r)
		if r.intn(100) < 5 {
			sComment[i] = "supplier lately known for Customer Complaints and woe"
		} else {
			sComment[i] = comment(r)
		}
	}
	supplier := colstore.NewTable("supplier")
	must(supplier.AddColumn("s_suppkey", vector.Int32, sKey))
	must(supplier.AddColumn("s_name", vector.String, sName))
	must(supplier.AddColumn("s_address", vector.String, sAddr))
	must(supplier.AddColumn("s_nationkey", vector.Int32, sNation))
	must(supplier.AddColumn("s_nationrow", vector.Int32, append([]int32(nil), sNation...)))
	must(supplier.AddColumn("s_phone", vector.String, sPhone))
	must(supplier.AddColumn("s_acctbal", vector.Float64, sAcct))
	must(supplier.AddColumn("s_comment", vector.String, sComment))
	db.AddTable(supplier)

	// --- customer ---
	nCust := sz["customer"]
	cKey := make([]int32, nCust)
	cName := make([]string, nCust)
	cNation := make([]int32, nCust)
	cPhone := make([]string, nCust)
	cAcct := make([]float64, nCust)
	cSeg := make([]string, nCust)
	cAddr := make([]string, nCust)
	cComment := make([]string, nCust)
	for i := 0; i < nCust; i++ {
		cKey[i] = int32(i + 1)
		cName[i] = fmt.Sprintf("Customer#%09d", i+1)
		n := r.intn(25)
		cNation[i] = int32(n)
		cPhone[i] = phone(r, n)
		cAcct[i] = money(r, -99999, 999999)
		cSeg[i] = segments[r.intn(len(segments))]
		cAddr[i] = address(r)
		cComment[i] = comment(r)
	}
	customer := colstore.NewTable("customer")
	must(customer.AddColumn("c_custkey", vector.Int32, cKey))
	must(customer.AddColumn("c_name", vector.String, cName))
	must(customer.AddColumn("c_address", vector.String, cAddr))
	must(customer.AddColumn("c_nationkey", vector.Int32, cNation))
	must(customer.AddColumn("c_nationrow", vector.Int32, append([]int32(nil), cNation...)))
	must(customer.AddColumn("c_phone", vector.String, cPhone))
	must(customer.AddColumn("c_acctbal", vector.Float64, cAcct))
	addStringCol(customer, "c_mktsegment", cSeg, !cfg.PlainColumns)
	must(customer.AddColumn("c_comment", vector.String, cComment))
	db.AddTable(customer)

	// --- part ---
	nPart := sz["part"]
	pKey := make([]int32, nPart)
	pName := make([]string, nPart)
	pMfgr := make([]string, nPart)
	pBrand := make([]string, nPart)
	pType := make([]string, nPart)
	pSize := make([]int32, nPart)
	pContainer := make([]string, nPart)
	pRetail := make([]float64, nPart)
	pComment := make([]string, nPart)
	for i := 0; i < nPart; i++ {
		pKey[i] = int32(i + 1)
		pName[i] = partName(r)
		m := r.rangeInt(1, 5)
		pMfgr[i] = fmt.Sprintf("Manufacturer#%d", m)
		pBrand[i] = fmt.Sprintf("Brand#%d%d", m, r.rangeInt(1, 5))
		pType[i] = typeSyl1[r.intn(6)] + " " + typeSyl2[r.intn(5)] + " " + typeSyl3[r.intn(5)]
		pSize[i] = int32(r.rangeInt(1, 50))
		pContainer[i] = containers1[r.intn(5)] + " " + containers2[r.intn(8)]
		p := i + 1
		pRetail[i] = float64(90000+((p/10)%20001)+100*(p%1000)) / 100
		pComment[i] = comment(r)
	}
	part := colstore.NewTable("part")
	must(part.AddColumn("p_partkey", vector.Int32, pKey))
	must(part.AddColumn("p_name", vector.String, pName))
	addStringCol(part, "p_mfgr", pMfgr, !cfg.PlainColumns)
	addStringCol(part, "p_brand", pBrand, !cfg.PlainColumns)
	addStringCol(part, "p_type", pType, !cfg.PlainColumns)
	must(part.AddColumn("p_size", vector.Int32, pSize))
	addStringCol(part, "p_container", pContainer, !cfg.PlainColumns)
	must(part.AddColumn("p_retailprice", vector.Float64, pRetail))
	must(part.AddColumn("p_comment", vector.String, pComment))
	db.AddTable(part)

	// --- partsupp: 4 suppliers per part ---
	nPS := 4 * nPart
	psPart := make([]int32, nPS)
	psSupp := make([]int32, nPS)
	psAvail := make([]int32, nPS)
	psCost := make([]float64, nPS)
	psComment := make([]string, nPS)
	for i := 0; i < nPart; i++ {
		for j := 0; j < 4; j++ {
			k := 4*i + j
			psPart[k] = int32(i + 1)
			// Spread suppliers deterministically like dbgen.
			psSupp[k] = int32((i+j*(nSupp/4+(i/nSupp)))%nSupp + 1)
			psAvail[k] = int32(r.rangeInt(1, 9999))
			psCost[k] = money(r, 100, 100000)
			psComment[k] = comment(r)
		}
	}
	partsupp := colstore.NewTable("partsupp")
	must(partsupp.AddColumn("ps_partkey", vector.Int32, psPart))
	must(partsupp.AddColumn("ps_suppkey", vector.Int32, psSupp))
	must(partsupp.AddColumn("ps_partrow", vector.Int32, minusOne(psPart)))
	must(partsupp.AddColumn("ps_supprow", vector.Int32, minusOne(psSupp)))
	must(partsupp.AddColumn("ps_availqty", vector.Int32, psAvail))
	must(partsupp.AddColumn("ps_supplycost", vector.Float64, psCost))
	must(partsupp.AddColumn("ps_comment", vector.String, psComment))
	db.AddTable(partsupp)

	// --- orders + lineitem (orders sorted by date, lineitem clustered) ---
	nOrd := sz["orders"]
	oKey := make([]int32, nOrd)
	oCust := make([]int32, nOrd)
	oStatus := make([]string, nOrd)
	oTotal := make([]float64, nOrd)
	oDate := make([]int32, nOrd)
	oPrio := make([]string, nOrd)
	oClerk := make([]string, nOrd)
	oShipPrio := make([]int32, nOrd)
	oComment := make([]string, nOrd)

	var (
		lOrder, lPart, lSupp                  []int32
		lLineNo, lOrderRow, lPartRow, lSupRow []int32
		lQty, lExt, lDisc, lTax               []float64
		lRF, lLS                              []string
		lShip, lCommit, lReceipt              []int32
		lInstr, lMode, lComment               []string
	)

	dateSpan := int(endDate - startDate)
	for i := 0; i < nOrd; i++ {
		oKey[i] = int32(i + 1)
		// dbgen never assigns orders to custkeys divisible by 3, leaving a
		// third of customers order-less (exercised by Q13 and Q22).
		ck := r.intn(nCust) + 1
		for ck%3 == 0 {
			ck = r.intn(nCust) + 1
		}
		oCust[i] = int32(ck)
		// Sorted order dates: spread uniformly and ascending over the range.
		od := startDate + int32((i*dateSpan)/nOrd)
		oDate[i] = od
		oPrio[i] = priorities[r.intn(5)]
		oClerk[i] = fmt.Sprintf("Clerk#%09d", r.rangeInt(1, max(1, nOrd/1000)))
		oShipPrio[i] = 0
		oComment[i] = comment(r)

		nl := r.rangeInt(1, 7)
		allF, allO := true, true
		var total float64
		for j := 0; j < nl; j++ {
			pk := r.intn(nPart) + 1
			// One of the part's four suppliers.
			psIdx := 4*(pk-1) + r.intn(4)
			sk := psSupp[psIdx]
			qty := float64(r.rangeInt(1, 50))
			price := pRetail[pk-1] * qty / 10 * (9 + r.f64()*2) / 10 * 10
			// Keep extendedprice = qty * pseudo unit price with 2 decimals.
			price = float64(int(price*100)) / 100
			disc := float64(r.rangeInt(0, 10)) / 100
			tax := float64(r.rangeInt(0, 8)) / 100
			ship := od + int32(r.rangeInt(1, 121))
			commit := od + int32(r.rangeInt(30, 90))
			receipt := ship + int32(r.rangeInt(1, 30))
			rf := "N"
			if receipt <= currentDate {
				if r.intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "O"
			if ship <= currentDate {
				ls = "F"
			}
			if ls == "F" {
				allO = false
			} else {
				allF = false
			}
			lOrder = append(lOrder, oKey[i])
			lPart = append(lPart, int32(pk))
			lSupp = append(lSupp, sk)
			lLineNo = append(lLineNo, int32(j+1))
			lOrderRow = append(lOrderRow, int32(i))
			lPartRow = append(lPartRow, int32(pk-1))
			lSupRow = append(lSupRow, sk-1)
			lQty = append(lQty, qty)
			lExt = append(lExt, price)
			lDisc = append(lDisc, disc)
			lTax = append(lTax, tax)
			lRF = append(lRF, rf)
			lLS = append(lLS, ls)
			lShip = append(lShip, ship)
			lCommit = append(lCommit, commit)
			lReceipt = append(lReceipt, receipt)
			lInstr = append(lInstr, instructs[r.intn(4)])
			lMode = append(lMode, shipModes[r.intn(7)])
			lComment = append(lComment, comment(r))
			total += price * (1 + tax) * (1 - disc)
		}
		switch {
		case allF:
			oStatus[i] = "F"
		case allO:
			oStatus[i] = "O"
		default:
			oStatus[i] = "P"
		}
		oTotal[i] = float64(int(total*100)) / 100
	}

	orders := colstore.NewTable("orders")
	must(orders.AddColumn("o_orderkey", vector.Int32, oKey))
	must(orders.AddColumn("o_custkey", vector.Int32, oCust))
	must(orders.AddColumn("o_custrow", vector.Int32, minusOne(oCust)))
	addStringCol(orders, "o_orderstatus", oStatus, !cfg.PlainColumns)
	must(orders.AddColumn("o_totalprice", vector.Float64, oTotal))
	must(orders.AddColumn("o_orderdate", vector.Date, oDate))
	addStringCol(orders, "o_orderpriority", oPrio, !cfg.PlainColumns)
	must(orders.AddColumn("o_clerk", vector.String, oClerk))
	must(orders.AddColumn("o_shippriority", vector.Int32, oShipPrio))
	must(orders.AddColumn("o_comment", vector.String, oComment))
	db.AddTable(orders)

	lineitem := colstore.NewTable("lineitem")
	must(lineitem.AddColumn("l_orderkey", vector.Int32, lOrder))
	must(lineitem.AddColumn("l_partkey", vector.Int32, lPart))
	must(lineitem.AddColumn("l_suppkey", vector.Int32, lSupp))
	must(lineitem.AddColumn("l_linenumber", vector.Int32, lLineNo))
	must(lineitem.AddColumn("l_orderrow", vector.Int32, lOrderRow))
	must(lineitem.AddColumn("l_partrow", vector.Int32, lPartRow))
	must(lineitem.AddColumn("l_supprow", vector.Int32, lSupRow))
	addF64Col(lineitem, "l_quantity", lQty, !cfg.PlainColumns)
	must(lineitem.AddColumn("l_extendedprice", vector.Float64, lExt))
	addF64Col(lineitem, "l_discount", lDisc, !cfg.PlainColumns)
	addF64Col(lineitem, "l_tax", lTax, !cfg.PlainColumns)
	addStringCol(lineitem, "l_returnflag", lRF, !cfg.PlainColumns)
	addStringCol(lineitem, "l_linestatus", lLS, !cfg.PlainColumns)
	must(lineitem.AddColumn("l_shipdate", vector.Date, lShip))
	must(lineitem.AddColumn("l_commitdate", vector.Date, lCommit))
	must(lineitem.AddColumn("l_receiptdate", vector.Date, lReceipt))
	addStringCol(lineitem, "l_shipinstruct", lInstr, !cfg.PlainColumns)
	addStringCol(lineitem, "l_shipmode", lMode, !cfg.PlainColumns)
	must(lineitem.AddColumn("l_comment", vector.String, lComment))
	db.AddTable(lineitem)

	// Dictionary mapping tables for enum columns (Fetch1Join targets).
	registerDictTables(db, customer, part, orders, lineitem)

	// Summary indices on the clustered date columns (Section 5: "summary
	// indices on all date columns of both tables"): zone maps of the
	// default 1024-row granule, streamed from the columns without pinning.
	must(db.BuildSummaryIndex("orders", "o_orderdate", 0))
	must(db.BuildSummaryIndex("lineitem", "l_shipdate", 0))

	for _, ji := range joinIndices {
		if err := db.RegisterJoinIndex(ji.from, ji.to, ji.col); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// joinIndex describes one generated join-index column: col of table from
// holds, for each row, the row id in table to of the row whose toKey equals
// the row's fromKey.
type joinIndex struct {
	from, fromKey, col, to, toKey string
}

// joinIndices lists the join indices over all foreign-key paths that
// Generate writes.
var joinIndices = []joinIndex{
	{"lineitem", "l_orderkey", "l_orderrow", "orders", "o_orderkey"},
	{"lineitem", "l_partkey", "l_partrow", "part", "p_partkey"},
	{"lineitem", "l_suppkey", "l_supprow", "supplier", "s_suppkey"},
	{"orders", "o_custkey", "o_custrow", "customer", "c_custkey"},
	{"partsupp", "ps_partkey", "ps_partrow", "part", "p_partkey"},
	{"partsupp", "ps_suppkey", "ps_supprow", "supplier", "s_suppkey"},
	{"customer", "c_nationkey", "c_nationrow", "nation", "n_nationkey"},
	{"supplier", "s_nationkey", "s_nationrow", "nation", "n_nationkey"},
	{"nation", "n_regionkey", "n_regionrow", "region", "r_regionkey"},
}

// RegisterJoinIndices registers as positional references the join indices
// of joinIndices that db holds: both tables are present, the fetched table
// carries the int32 row-id column, and no reference is registered yet for
// the pair (registering again would clear a stale mark). Attaching a TPC-H
// chunk directory calls it, so the plans fetching through an attached
// table fail, as on a generated database, once a reorganize, compaction or
// update moves a referenced table's row ids. A reference whose row-id
// epochs in the two tables' manifests disagree registers stale
// (core.Database.RegisterJoinIndex), so the mark survives a re-attach.
func RegisterJoinIndices(db *core.Database) error {
	for _, ji := range joinIndices {
		ft, err := db.Table(ji.from)
		if err != nil {
			continue
		}
		if c := ft.Col(ji.col); c == nil || c.Typ.Physical() != vector.Int32 {
			continue
		}
		if _, err := db.Table(ji.to); err != nil || db.JoinIndex(ji.from, ji.to) != "" {
			continue
		}
		if err := db.RegisterJoinIndex(ji.from, ji.to, ji.col); err != nil {
			return err
		}
	}
	return nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func minusOne(keys []int32) []int32 {
	out := make([]int32, len(keys))
	for i, k := range keys {
		out[i] = k - 1
	}
	return out
}

// addStringCol stores a string column enum-compressed when enabled.
func addStringCol(t *colstore.Table, name string, vals []string, enum bool) {
	if enum {
		must(t.AddEnumColumn(name, vals))
		return
	}
	must(t.AddColumn(name, vector.String, vals))
}

// addF64Col stores a float column enum-compressed when enabled (and the
// domain is small enough).
func addF64Col(t *colstore.Table, name string, vals []float64, enum bool) {
	if enum {
		distinct := map[float64]struct{}{}
		for _, v := range vals {
			distinct[v] = struct{}{}
			if len(distinct) > 256 {
				break
			}
		}
		if len(distinct) <= 256 {
			must(t.AddEnumF64Column(name, vals))
			return
		}
	}
	must(t.AddColumn(name, vector.Float64, vals))
}

// registerDictTables exposes every enum dictionary as a mapping table
// "<column>#dict" with a single "value" column, per the paper's description
// of enumeration types referring to #rowIds of a mapping table.
func registerDictTables(db *core.Database, tables ...*colstore.Table) {
	for _, t := range tables {
		for _, c := range t.Cols {
			if !c.IsEnum() {
				continue
			}
			dt := colstore.NewTable(c.Name + core.DictSuffix)
			if c.Dict.Typ == vector.Float64 {
				must(dt.AddColumn("value", vector.Float64, append([]float64(nil), c.Dict.F64s...)))
			} else {
				must(dt.AddColumn("value", vector.String, append([]string(nil), c.Dict.Values...)))
			}
			db.AddTable(dt)
		}
	}
}

func comments(r *rng, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = comment(r)
	}
	return out
}

func comment(r *rng) string {
	n := r.rangeInt(3, 8)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += commentWords[r.intn(len(commentWords))]
	}
	return s
}

func partName(r *rng) string {
	s := ""
	for i := 0; i < 5; i++ {
		if i > 0 {
			s += " "
		}
		s += colors[r.intn(len(colors))]
	}
	return s
}

func phone(r *rng, nation int) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", nation+10, r.rangeInt(100, 999), r.rangeInt(100, 999), r.rangeInt(1000, 9999))
}

func money(r *rng, lo, hi int) float64 {
	return float64(r.rangeInt(lo, hi)) / 100
}

func address(r *rng) string {
	n := r.rangeInt(10, 30)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.intn(26))
	}
	return string(b)
}
