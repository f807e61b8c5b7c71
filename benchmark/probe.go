package main

// probe.go and probe_layers.go are the only files of the benchmark that
// import the engine: every exported engine function the benchmark depends on
// is called from here, so a later change that shrinks the engine's surface
// has one place to look. README.md lists the surface and what it avoids.

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"x100"
	"x100/internal/algebra"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/dateutil"
	"x100/internal/expr"
	"x100/internal/mil"
	"x100/internal/tpch"
	"x100/internal/trace"
	"x100/internal/volcano"
)

type (
	memDB     = core.Database
	diskDB    = x100.DB
	plan      = algebra.Node
	result    = core.Result
	collector = trace.Collector
)

// tpchTables are the base tables of the generated database, in save order.
var tpchTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// insertKeyBase is the l_orderkey of the first row the htap writer inserts;
// generated order keys stay far below it at any scale factor used here.
const insertKeyBase = 1_000_000_000

func generate(sf float64, seed uint64) (*memDB, error) {
	// Seed 0 selects the generator's fixed default, so shift by one.
	return tpch.Generate(tpch.Config{SF: sf, Seed: seed + 1})
}

func tpchPlan(q int, sf float64) (plan, error) { return tpch.Query(q, sf) }

// strScanPlan filters lineitem on two dictionary-coded string columns, which
// the vectorized engine evaluates on the codes.
func strScanPlan() plan {
	sel := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_shipmode", "l_shipinstruct", "l_quantity"),
		expr.AndE(
			expr.InE(expr.C("l_shipmode"), expr.Str("MAIL"), expr.Str("SHIP")),
			expr.EQE(expr.C("l_shipinstruct"), expr.Str("DELIVER IN PERSON"))))
	return algebra.NewAggr(sel, nil, []algebra.AggExpr{
		algebra.Count("n"), algebra.Sum("qty", expr.C("l_quantity"))})
}

// likePlan scans the one wide plain-string column of lineitem.
func likePlan() plan {
	sel := algebra.NewSelect(algebra.NewScan("lineitem", "l_comment"),
		expr.LikeE(expr.C("l_comment"), "%furiously%"))
	return algebra.NewAggr(sel, nil, []algebra.AggExpr{algebra.Count("n")})
}

// narrowPlan selects one month of the clustered l_shipdate, which chunk
// min/max pruning answers from a few chunks.
func narrowPlan() plan {
	date := func(s string) *expr.Const { return expr.DateConst(dateutil.MustParse(s)) }
	sel := algebra.NewSelect(algebra.NewScan("lineitem", "l_shipdate", "l_extendedprice"),
		expr.AndE(
			expr.GEE(expr.C("l_shipdate"), date("1995-03-01")),
			expr.LTE(expr.C("l_shipdate"), date("1995-04-01"))))
	return algebra.NewAggr(sel, nil, []algebra.AggExpr{
		algebra.Count("n"), algebra.Sum("price", expr.C("l_extendedprice"))})
}

// ordersLikePlan scans the comment column of orders, the second wide
// plain-string column of the saved tables.
func ordersLikePlan() plan {
	sel := algebra.NewSelect(algebra.NewScan("orders", "o_comment"),
		expr.LikeE(expr.C("o_comment"), "%special%requests%"))
	return algebra.NewAggr(sel, nil, []algebra.AggExpr{algebra.Count("n")})
}

// widePlan reads the six key and date columns of lineitem the other scans
// leave out, so that the list as a whole touches every fixed-width column.
func widePlan() plan {
	sel := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_commitdate", "l_receiptdate"),
		expr.LTE(expr.C("l_commitdate"), expr.C("l_receiptdate")))
	return algebra.NewAggr(sel, nil, []algebra.AggExpr{
		algebra.Count("n"), algebra.Max("maxkey", expr.C("l_orderkey")),
		algebra.Sum("parts", expr.C("l_partkey")), algebra.Sum("supps", expr.C("l_suppkey")),
		algebra.Sum("lines", expr.C("l_linenumber"))})
}

// keysPlan lists the key of every visible lineitem row; the crash-recovery
// check reads the recovered table through it.
func keysPlan() plan {
	return algebra.NewScan("lineitem", "l_orderkey", "l_linenumber")
}

// execCfg carries the per-execution settings the workloads and probes vary.
// Only the probes on resident tables set vectorSize; diskExec ignores it.
type execCfg struct {
	tracer      *collector
	parallelism int
	vectorSize  int
}

// execFn runs a plan on the vectorized engine of one database.
type execFn func(p plan, c execCfg) (*result, error)

// memExec runs plans through core.Run, which is what x100.DB.Exec calls.
func memExec(db *memDB) execFn {
	return func(p plan, c execCfg) (*result, error) {
		eo := core.DefaultOptions()
		eo.Tracer = c.tracer
		eo.Parallelism = c.parallelism
		if c.vectorSize > 0 {
			eo.BatchSize = c.vectorSize
		}
		return core.Run(db, p, eo)
	}
}

func diskExec(db *diskDB) execFn {
	return func(p plan, c execCfg) (*result, error) {
		opts := []x100.ExecOption{x100.WithParallelism(c.parallelism)}
		if c.tracer != nil {
			opts = append(opts, x100.WithTracer(c.tracer))
		}
		return db.Exec(p, opts...)
	}
}

func newCollector() *collector { return trace.New() }

func milMem(db *memDB, p plan) (*result, error)   { return (&mil.Engine{DB: db}).Run(p) }
func milDisk(db *diskDB, p plan) (*result, error) { return db.Exec(p, x100.WithEngine(x100.MIL)) }

// reorganize absorbs a disk table's deltas into a fresh chunk generation.
func reorganize(db *diskDB, table string) error { return db.Reorganize(table) }
func volcanoMem(db *memDB, p plan) (*result, error) {
	return (&volcano.Engine{DB: db}).Run(p)
}

// buildOnly constructs and discards the operator tree of a plan.
func buildOnly(db *memDB, p plan) error {
	op, err := core.Build(db, p, core.DefaultOptions())
	if err != nil {
		return err
	}
	return op.Close()
}

// saveTables writes tables of a generated database to a chunk directory.
func saveTables(dir string, db *memDB, tables []string) error {
	st, err := columnbm.NewStore(dir, 0, 0)
	if err != nil {
		return err
	}
	for _, name := range tables {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		if err := st.SaveTable(t); err != nil {
			return fmt.Errorf("save %s: %w", name, err)
		}
	}
	return nil
}

// attachDisk opens a fresh DB over a chunk directory at default cache
// settings. With writes it selects group-commit durability (fsync before
// the acknowledgement) and the background compactor at its defaults.
func attachDisk(dir string, writes bool) (*diskDB, error) {
	var opts []x100.DBOption
	if writes {
		opts = append(opts,
			x100.WithDurability(x100.DurabilityGroup),
			x100.WithBackgroundCompaction(x100.CompactorOptions{}))
	}
	db := x100.NewDB(opts...)
	if err := db.AttachDisk(dir); err != nil {
		db.Close()
		return nil, fmt.Errorf("attach %s: %w", dir, err)
	}
	return db, nil
}

// attachMem is the memory counterpart of attachDisk: a fresh database over
// tables already resident, with the summary index scans prune through.
func attachMem(src *memDB, tables []string) (*memDB, error) {
	db := core.NewDatabase()
	for _, name := range tables {
		t, err := src.Table(name)
		if err != nil {
			return nil, err
		}
		db.AddTable(t)
	}
	if err := db.BuildSummaryIndex("lineitem", "l_shipdate", 0); err != nil {
		return nil, err
	}
	return db, nil
}

// scanColumns adds to set, keyed table.column, the decoded-width size of
// every column a plan's Scan nodes read, taken from the resident tables. A
// column already in set is not measured again.
func scanColumns(p plan, db *memDB, set map[string]int64) {
	if s, ok := p.(*algebra.Scan); ok {
		if t, err := db.Table(s.Table); err == nil {
			for _, c := range t.Cols {
				read := len(s.Cols) == 0
				for _, name := range s.Cols {
					read = read || strings.TrimSuffix(name, "#") == c.Name
				}
				if _, done := set[s.Table+"."+c.Name]; read && !done {
					// Bytes counts the payload of strings, as the
					// decoded-chunk cache does, not just their headers.
					set[s.Table+"."+c.Name] = int64(c.Bytes())
				}
			}
		}
	}
	for _, ch := range p.Children() {
		scanColumns(ch, db, set)
	}
}

// lineitemRow boxes row i of the resident lineitem in schema order.
func lineitemRow(db *memDB, i int) ([]any, error) {
	t, err := db.Table("lineitem")
	if err != nil {
		return nil, err
	}
	row := make([]any, len(t.Cols))
	for j, c := range t.Cols {
		row[j] = c.DecodedValue(i)
	}
	return row, nil
}

func tableRows(db *memDB, table string) (int, error) {
	t, err := db.Table(table)
	if err != nil {
		return 0, err
	}
	return t.N, nil
}

// diskRow boxes row i of an attached table in schema order, decoding one
// chunk per column, and returns with it the index of column keyCol and the
// table's row count.
func diskRow(db *diskDB, table string, i int, keyCol string) (row []any, key, rows int, err error) {
	t, err := db.Internal().Table(table)
	if err != nil {
		return nil, 0, 0, err
	}
	key = -1
	row = make([]any, len(t.Cols))
	for j, c := range t.Cols {
		if row[j], err = c.Locator(1).Value(i); err != nil {
			return nil, 0, 0, err
		}
		if c.Name == keyCol {
			key = j
		}
	}
	if key < 0 {
		return nil, 0, 0, fmt.Errorf("%s has no column %s", table, keyCol)
	}
	return row, key, t.N, nil
}

// lineitemKeys returns the l_orderkey and l_linenumber columns and the row
// count of the resident lineitem.
func lineitemKeys(db *memDB) (orderkey, linenumber []int32, err error) {
	t, err := db.Table("lineitem")
	if err != nil {
		return nil, nil, err
	}
	return t.Col("l_orderkey").Data().([]int32), t.Col("l_linenumber").Data().([]int32), nil
}

// rowUserBytes is the payload size of a boxed row: what a user hands to
// Insert, before any log or chunk framing.
func rowUserBytes(row []any) int {
	n := 0
	for _, v := range row {
		switch x := v.(type) {
		case string:
			n += len(x)
		case float64, int64:
			n += 8
		case int32:
			n += 4
		default:
			n++
		}
	}
	return n
}

// engineCounters is a snapshot of the public counters of the storage and
// scheduling layers.
type engineCounters struct {
	PoolHits, PoolMisses                   int64
	CacheHits, CacheMisses, CacheEvictions int64
	RetriedReads, ChecksumFailures         int64
	WalAppends, WalSyncs                   int64
	SchedAdmitted, SchedWaits, SchedYields int64
	CompactionRuns, CompactionRowsAbsorbed int64
	CompactionErrors                       int64
}

// countersOf reads the counters; db may be nil for a memory workload, which
// touches only the scheduler.
func countersOf(db *diskDB) engineCounters {
	var c engineCounters
	s := x100.DefaultScheduler().Stats()
	c.SchedAdmitted, c.SchedWaits, c.SchedYields = s.Admitted, s.Waits, s.Yields
	if db == nil {
		return c
	}
	for i, st := range db.WalStatuses() {
		if i == 0 {
			// The tables of one directory share one store.
			c.PoolHits, c.PoolMisses = st.Store.PoolHits, st.Store.PoolMisses
			c.CacheHits, c.CacheMisses = st.Store.Cache.Hits, st.Store.Cache.Misses
			c.CacheEvictions = st.Store.Cache.Evictions
			c.RetriedReads, c.ChecksumFailures = st.Store.RetriedReads, st.Store.ChecksumFailures
		}
		c.WalAppends += st.Wal.Appends
		c.WalSyncs += st.Wal.Syncs
	}
	cs := db.CompactionStatus()
	c.CompactionRuns, c.CompactionRowsAbsorbed, c.CompactionErrors = cs.Runs, cs.RowsAbsorbed, cs.Errors
	return c
}

func (a engineCounters) sub(b engineCounters) engineCounters {
	return engineCounters{
		PoolHits: a.PoolHits - b.PoolHits, PoolMisses: a.PoolMisses - b.PoolMisses,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		CacheEvictions: a.CacheEvictions - b.CacheEvictions,
		RetriedReads:   a.RetriedReads - b.RetriedReads, ChecksumFailures: a.ChecksumFailures - b.ChecksumFailures,
		WalAppends: a.WalAppends - b.WalAppends, WalSyncs: a.WalSyncs - b.WalSyncs,
		SchedAdmitted: a.SchedAdmitted - b.SchedAdmitted, SchedWaits: a.SchedWaits - b.SchedWaits,
		SchedYields:    a.SchedYields - b.SchedYields,
		CompactionRuns: a.CompactionRuns - b.CompactionRuns, CompactionRowsAbsorbed: a.CompactionRowsAbsorbed - b.CompactionRowsAbsorbed,
		CompactionErrors: a.CompactionErrors - b.CompactionErrors,
	}
}

// codecOf names the codecs the writer picked for one column of a table.
func codecOf(db *diskDB, table, column string) string {
	cols, err := db.Storage(table)
	if err != nil {
		return "?"
	}
	for _, c := range cols {
		if c.Name == column {
			return columnbm.FormatCodecs(c.Codecs)
		}
	}
	return "?"
}

// traceSums accumulates what the benchmark reads from per-execution
// collectors: time in primitives, wall time, and the scan byte counters.
type traceSums struct {
	PrimNs, TotalNs            int64
	DecodedBytes, SkippedBytes int64
	Q1PrimNs, Q1Runs           int64
}

func (t *traceSums) add(c *collector, parallelism int, isQ1 bool) {
	var prim int64
	for _, s := range c.Primitives() {
		prim += s.Nanos
	}
	t.PrimNs += prim
	// Worker pipelines record into the query's collector concurrently, so
	// wall time is scaled to the CPU time the primitives could have used.
	t.TotalNs += c.Total().Nanoseconds() * int64(max(parallelism, 1))
	t.DecodedBytes += c.CounterValue("scan_decoded_bytes")
	t.SkippedBytes += c.CounterValue("scan_skipped_bytes")
	if isQ1 {
		t.Q1PrimNs += prim
		t.Q1Runs++
	}
}

func (t *traceSums) merge(o traceSums) {
	t.PrimNs += o.PrimNs
	t.TotalNs += o.TotalNs
	t.DecodedBytes += o.DecodedBytes
	t.SkippedBytes += o.SkippedBytes
	t.Q1PrimNs += o.Q1PrimNs
	t.Q1Runs += o.Q1Runs
}

func nominalGHz() float64 { return trace.NominalGHz }

// fingerprint is an order-insensitive digest of a result: the row count, a
// sum over rows of a hash of each row's non-float values, and per float
// column the sum and the sum of magnitudes.
type fingerprint struct {
	rows   int
	exact  uint64
	floats []float64
	scale  []float64
}

func fingerprintOf(r *result) fingerprint {
	fp := fingerprint{rows: r.NumRows()}
	for _, row := range r.Rows() {
		h := fnv.New64a()
		fi := 0
		for _, v := range row {
			if f, ok := v.(float64); ok {
				if fi == len(fp.floats) {
					fp.floats, fp.scale = append(fp.floats, 0), append(fp.scale, 0)
				}
				fp.floats[fi] += f
				fp.scale[fi] += math.Abs(f)
				fi++
				continue
			}
			fmt.Fprintf(h, "%v|", v)
		}
		fp.exact += h.Sum64()
	}
	return fp
}

// equal compares two fingerprints, floats to 1e-6 of their magnitude.
func (a fingerprint) equal(b fingerprint) bool {
	if a.rows != b.rows || a.exact != b.exact || len(a.floats) != len(b.floats) {
		return false
	}
	for i := range a.floats {
		if math.Abs(a.floats[i]-b.floats[i]) > 1e-6*math.Max(a.scale[i], b.scale[i]) {
			return false
		}
	}
	return true
}
