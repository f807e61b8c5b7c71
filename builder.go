package x100

import (
	"fmt"

	"x100/internal/algebra"
	"x100/internal/columnbm"
	"x100/internal/dateutil"
	"x100/internal/expr"
)

// CreateDiskTable persists columns through a ColumnBM chunk store in dir
// (choosing the smallest codec per chunk — raw/RLE/FoR/delta for integers,
// raw/dict/prefix for strings — and recording per-chunk min/max for scan
// pruning) and registers the table disk-backed: queries scan straight off
// the compressed chunks through the buffer pool, never materializing whole
// columns.
func (db *DB) CreateDiskTable(dir, name string, cols ...ColumnData) error {
	t, err := buildTable(name, cols)
	if err != nil {
		return err
	}
	s, err := db.store(dir)
	if err != nil {
		return err
	}
	if err := s.SaveTable(t); err != nil {
		return err
	}
	return db.AttachDisk(dir, name)
}

// ColumnStorage describes how one column of a table is stored: the chunk
// count and per-codec usage for disk-backed columns, or a single "memory"
// fragment for resident columns. CompressedBytes/RawBytes give the
// compression ratio; DictCard is the largest per-chunk dictionary
// cardinality of dict-coded string chunks (0 when none are dict-coded);
// MergedDict is the cardinality of the table-level merged dictionary built
// at attach time (0 when the column has none) — columns with one execute
// string predicates, group-bys and join keys in the code domain.
type ColumnStorage struct {
	Name            string
	Type            string
	Enum            bool
	Chunks          int
	Codecs          map[string]int
	RawBytes        int64
	CompressedBytes int64
	DictCard        int
	MergedDict      int
}

// Storage reports per-column storage details of a table (the shell's
// \storage command).
func (db *DB) Storage(table string) ([]ColumnStorage, error) {
	if s, ok := db.diskSrc[table]; ok {
		cols, err := s.TableStorage(table)
		if err != nil {
			return nil, err
		}
		live, _ := db.inner.Table(table)
		out := make([]ColumnStorage, len(cols))
		for i, c := range cols {
			out[i] = ColumnStorage{
				Name: c.Name, Type: c.Type, Enum: c.Enum, Chunks: c.Chunks,
				Codecs: c.Codecs, RawBytes: c.RawBytes, CompressedBytes: c.CompressedBytes,
				DictCard: c.DictCard,
			}
			if live != nil {
				if lc := live.Col(c.Name); lc != nil {
					if md := lc.MergedDict(); md != nil {
						out[i].MergedDict = md.Len()
					}
				}
			}
		}
		return out, nil
	}
	t, err := db.inner.Table(table)
	if err != nil {
		return nil, err
	}
	out := make([]ColumnStorage, len(t.Cols))
	for i, c := range t.Cols {
		b := int64(c.Bytes())
		out[i] = ColumnStorage{
			Name: c.Name, Type: c.Typ.String(), Enum: c.IsEnum(), Chunks: c.NumFrags(),
			Codecs: map[string]int{"memory": c.NumFrags()}, RawBytes: b, CompressedBytes: b,
		}
	}
	return out, nil
}

// FormatStorage renders a Storage report as an aligned text table. The
// "dict" column shows the largest per-chunk dictionary cardinality of
// dict-coded string chunks ("-" when no chunk is dict-coded); "mdict"
// shows the table-level merged-dictionary cardinality of columns that
// execute in the code domain ("-" when the column has none).
func FormatStorage(cols []ColumnStorage) string {
	out := fmt.Sprintf("%-18s %-8s %7s %-16s %6s %6s %12s %12s %7s\n",
		"column", "type", "chunks", "codecs", "dict", "mdict", "raw", "compressed", "ratio")
	for _, c := range cols {
		typ := c.Type
		if c.Enum {
			typ += "*"
		}
		ratio := 1.0
		if c.CompressedBytes > 0 {
			ratio = float64(c.RawBytes) / float64(c.CompressedBytes)
		}
		card := "-"
		if c.DictCard > 0 {
			card = fmt.Sprintf("%d", c.DictCard)
		}
		merged := "-"
		if c.MergedDict > 0 {
			merged = fmt.Sprintf("%d", c.MergedDict)
		}
		out += fmt.Sprintf("%-18s %-8s %7d %-16s %6s %6s %12d %12d %6.2fx\n",
			c.Name, typ, c.Chunks, columnbm.FormatCodecs(c.Codecs), card, merged, c.RawBytes, c.CompressedBytes, ratio)
	}
	return out + "(* = enumeration-compressed; dict = per-chunk dictionary cardinality;\n" +
		" mdict = table-level merged dictionary (code-domain execution); raw/compressed in bytes)\n"
}

// FormatWalStatus renders WalStatuses as an aligned text table (the
// shell's `\storage` WAL section): per table, records appended, fsyncs,
// rotations, records replayed at attach, torn tails truncated, stale logs
// discarded, chunk checksum failures, directory-fsync errors, chunk reads
// that needed a transient-error retry, and scrubber chunks
// verified/failed.
func FormatWalStatus(stats []WalStatus) string {
	if len(stats) == 0 {
		return ""
	}
	out := fmt.Sprintf("%-18s %8s %7s %7s %8s %6s %6s %7s %8s %7s %8s %8s\n",
		"table", "appends", "syncs", "rotate", "replayed", "torn", "stale", "crcerr", "dirsync", "retried", "scrubok", "scrubbad")
	for _, s := range stats {
		out += fmt.Sprintf("%-18s %8d %7d %7d %8d %6d %6d %7d %8d %7d %8d %8d\n",
			s.Table, s.Wal.Appends, s.Wal.Syncs, s.Wal.Rotations, s.Wal.Replayed,
			s.Wal.TailTruncations, s.Wal.StaleDiscards,
			s.Store.ChecksumFailures, s.Store.DirSyncErrors,
			s.Store.RetriedReads, s.Store.ScrubVerified, s.Store.ScrubFailed)
	}
	return out + "(wal activity, recovery/corruption and read-retry/scrub counters per disk-attached table)\n"
}

// FormatPoolStatus renders buffer-pool counters from WalStatuses as an
// aligned text table (the shell's `\storage` pool section): per
// disk-attached table, the raw-page pool hits/misses/evictions and the
// decoded-chunk cache occupancy, hit/miss/attach/eviction counters
// and hit rate. Attaches count scans that joined an already-circulating
// decoded chunk (cooperative scan sharing); a hit rate near zero under
// concurrent same-table scans means the pool capacity is too small for the
// working set (WithBufferPool).
func FormatPoolStatus(stats []WalStatus) string {
	if len(stats) == 0 {
		return ""
	}
	out := fmt.Sprintf("%-18s %8s %8s %10s %8s %8s %8s %7s %7s\n",
		"table", "pghits", "pgmiss", "cached", "hits", "misses", "attach", "evict", "rate")
	for _, s := range stats {
		c := s.Store.Cache
		rate := "-"
		if c.Hits+c.Misses > 0 {
			rate = fmt.Sprintf("%5.1f%%", 100*float64(c.Hits)/float64(c.Hits+c.Misses))
		}
		cached := fmt.Sprintf("%dKiB/%d", c.SizeBytes>>10, c.Entries)
		out += fmt.Sprintf("%-18s %8d %8d %10s %8d %8d %8d %7d %7s\n",
			s.Table, s.Store.PoolHits, s.Store.PoolMisses,
			cached, c.Hits, c.Misses, c.Attaches, c.Evictions, rate)
	}
	return out + "(pghits/pgmiss = raw chunk page pool; cached = decoded-chunk cache bytes/entries;\n" +
		" attach = scans that joined an already-circulating decoded chunk)\n"
}

// FormatCompactionStatus renders a CompactionStatus as one line (the
// shell's `\storage` compaction section): maintenance runs, checkpoints,
// compactions, rows absorbed, errors, and whether a run is in flight.
func FormatCompactionStatus(s CompactionStatus) string {
	state := "idle"
	if s.InFlight {
		state = "compacting " + s.LastTable
	}
	out := fmt.Sprintf("compactor: %s · runs=%d checkpoints=%d compactions=%d rows_absorbed=%d errors=%d\n",
		state, s.Runs, s.Checkpoints, s.Compactions, s.RowsAbsorbed, s.Errors)
	if s.LastError != nil {
		out += fmt.Sprintf("last error: %v\n", s.LastError)
	}
	return out
}

// FormatScrubStatus renders a ScrubStatus as one line (the shell's
// `\storage` scrubber section): sweeps completed, chunks verified and
// failed, and the most recent verification failure, if any.
func FormatScrubStatus(s ScrubStatus) string {
	state := "idle"
	if s.InFlight {
		state = "scrubbing " + s.LastTable
	}
	out := fmt.Sprintf("scrubber: %s · sweeps=%d verified=%d failed=%d errors=%d\n",
		state, s.Sweeps, s.ChunksVerified, s.ChunksFailed, s.Errors)
	if s.LastFailure != "" {
		out += fmt.Sprintf("last failed chunk: %s\n", s.LastFailure)
	}
	if s.LastError != nil {
		out += fmt.Sprintf("last error: %v\n", s.LastError)
	}
	return out
}

// Checkpoint absorbs a table's pending insert delta into new base
// fragments, keeping row ids stable (deletions stay on the deletion list).
// On a disk-attached table (AttachDisk/CreateDiskTable) the checkpoint is
// durable: the delta is written back to the chunk directory as new
// compressed chunks (best-of codec, as at save time), the deletion list is
// recorded, and the manifest is extended with one atomic rename — so
// re-attaching the directory after a restart recovers every checkpointed
// row and deletion, and a crash mid-checkpoint leaves exactly the previous
// committed state. The new chunks re-attach as lazily decoded disk
// fragments, keeping the table within bounded memory. Parallel queries
// checkpoint automatically before partitioned scans; exposing it lets
// applications checkpoint (and thus commit) eagerly. It reports false when
// the delta could not be absorbed (an enum dictionary outgrew its code
// width) — Reorganize handles that case with a full rewrite.
func (db *DB) Checkpoint(table string) (bool, error) {
	return db.inner.Checkpoint(table)
}

// Q is a fluent plan builder over the X100 algebra.
type Q struct{ node algebra.Node }

// Node returns the built plan.
func (q Q) Node() Node { return q.node }

// ScanT starts a plan by scanning a table; with no columns listed all
// columns are read (vertical fragmentation means only listed columns are
// ever touched).
func ScanT(table string, cols ...string) Q {
	return Q{node: algebra.NewScan(table, cols...)}
}

// ArrayQ starts a plan generating all coordinates of an N-dimensional
// array (the Array operator of the paper's algebra).
func ArrayQ(dims ...int) Q { return Q{node: algebra.NewArray(dims...)} }

// Where filters the dataflow.
func (q Q) Where(pred Expr) Q { return Q{node: algebra.NewSelect(q.node, pred)} }

// Map computes named expressions (the paper's Project: expression
// calculation only, no duplicate elimination).
func (q Q) Map(exprs ...Named) Q {
	nes := make([]algebra.NamedExpr, len(exprs))
	for i, n := range exprs {
		nes[i] = algebra.NamedExpr(n)
	}
	return Q{node: algebra.NewProject(q.node, nes...)}
}

// AggrBy groups by the given named expressions (nil for scalar
// aggregation) and computes aggregates.
func (q Q) AggrBy(groupBy []Named, aggs ...Agg) Q {
	gb := make([]algebra.NamedExpr, len(groupBy))
	for i, n := range groupBy {
		gb[i] = algebra.NamedExpr(n)
	}
	as := make([]algebra.AggExpr, len(aggs))
	for i, a := range aggs {
		as[i] = algebra.AggExpr(a)
	}
	return Q{node: algebra.NewAggr(q.node, gb, as)}
}

// Join hash-joins with another plan on equal column pairs
// ("l_orderkey=o_orderkey" style pairs built with On).
func (q Q) Join(right Q, on ...algebra.EquiCond) Q {
	return Q{node: algebra.NewJoin(q.node, right.node, on...)}
}

// SemiJoin keeps left rows with at least one match.
func (q Q) SemiJoin(right Q, on ...algebra.EquiCond) Q {
	return Q{node: algebra.NewJoinKind(algebra.Semi, q.node, right.node, on...)}
}

// AntiJoin keeps left rows with no match.
func (q Q) AntiJoin(right Q, on ...algebra.EquiCond) Q {
	return Q{node: algebra.NewJoinKind(algebra.Anti, q.node, right.node, on...)}
}

// LeftJoin keeps all left rows, zero-filling right columns for misses.
func (q Q) LeftJoin(right Q, on ...algebra.EquiCond) Q {
	return Q{node: algebra.NewJoinKind(algebra.LeftOuter, q.node, right.node, on...)}
}

// CrossJoin is the paper's CartProd.
func (q Q) CrossJoin(right Q) Q {
	return Q{node: algebra.NewJoin(q.node, right.node)}
}

// Fetch1 positionally fetches columns of a table by an int32 row-id
// expression (the paper's Fetch1Join over join indices and enum
// dictionaries).
func (q Q) Fetch1(table string, rowID Expr, cols ...string) Q {
	return Q{node: algebra.NewFetch1Join(q.node, table, rowID, cols...)}
}

// OrderBy sorts the dataflow.
func (q Q) OrderBy(keys ...algebra.OrdExpr) Q {
	return Q{node: algebra.NewOrder(q.node, keys...)}
}

// Top keeps the first n rows in key order.
func (q Q) Top(n int, keys ...algebra.OrdExpr) Q {
	return Q{node: algebra.NewTopN(q.node, n, keys...)}
}

// On builds a join equi-condition left=right.
func On(left, right string) algebra.EquiCond { return algebra.EquiCond{L: left, R: right} }

// Named binds an expression to an output column name.
type Named algebra.NamedExpr

// As names an expression.
func As(alias string, e Expr) Named { return Named{Alias: alias, E: e} }

// Keep passes a column through unchanged.
func Keep(col string) Named { return Named{Alias: col, E: expr.C(col)} }

// Agg is an aggregate computation.
type Agg algebra.AggExpr

// SumA aggregates the sum of arg as the named output column.
func SumA(alias string, arg Expr) Agg { return Agg(algebra.Sum(alias, arg)) }

// CountA counts rows per group as the named output column.
func CountA(alias string) Agg { return Agg(algebra.Count(alias)) }

// MinA aggregates the minimum of arg as the named output column.
func MinA(alias string, arg Expr) Agg { return Agg(algebra.Min(alias, arg)) }

// MaxA aggregates the maximum of arg as the named output column.
func MaxA(alias string, arg Expr) Agg { return Agg(algebra.Max(alias, arg)) }

// AvgA aggregates the mean of arg as the named output column.
func AvgA(alias string, arg Expr) Agg { return Agg(algebra.Avg(alias, arg)) }

// Asc sorts ascending on e.
func Asc(e Expr) algebra.OrdExpr { return algebra.Asc(e) }

// Desc sorts descending on e.
func Desc(e Expr) algebra.OrdExpr { return algebra.Desc(e) }

// Expression constructors.

// Col references a column.
func Col(name string) Expr { return expr.C(name) }

// F is a float64 literal.
func F(v float64) Expr { return expr.Float(v) }

// I is an int64 literal.
func I(v int64) Expr { return expr.Int(v) }

// I32 is an int32 literal.
func I32(v int32) Expr { return expr.Int32Const(v) }

// S is a string literal.
func S(v string) Expr { return expr.Str(v) }

// B is a bool literal.
func B(v bool) Expr { return expr.BoolConst(v) }

// Date is a date literal from "YYYY-MM-DD".
func Date(s string) Expr { return expr.DateConst(dateutil.MustParse(s)) }

// Add is l + r.
func Add(l, r Expr) Expr { return expr.AddE(l, r) }

// Sub is l - r.
func Sub(l, r Expr) Expr { return expr.SubE(l, r) }

// Mul is l * r.
func Mul(l, r Expr) Expr { return expr.MulE(l, r) }

// Div is l / r.
func Div(l, r Expr) Expr { return expr.DivE(l, r) }

// Lt is the comparison l < r.
func Lt(l, r Expr) Expr { return expr.LTE(l, r) }

// Le is the comparison l <= r.
func Le(l, r Expr) Expr { return expr.LEE(l, r) }

// Gt is the comparison l > r.
func Gt(l, r Expr) Expr { return expr.GTE(l, r) }

// Ge is the comparison l >= r.
func Ge(l, r Expr) Expr { return expr.GEE(l, r) }

// Eq is the comparison l = r.
func Eq(l, r Expr) Expr { return expr.EQE(l, r) }

// Ne is the comparison l <> r.
func Ne(l, r Expr) Expr { return expr.NEE(l, r) }

// And is the boolean conjunction of args.
func And(args ...Expr) Expr { return expr.AndE(args...) }

// Or is the boolean disjunction of args.
func Or(args ...Expr) Expr { return expr.OrE(args...) }

// Not negates a boolean expression.
func Not(a Expr) Expr { return expr.NotE(a) }

// Like is the SQL LIKE predicate with % and _ wildcards.
func Like(a Expr, pattern string) Expr { return expr.LikeE(a, pattern) }

// NotLike is the negated LIKE predicate.
func NotLike(a Expr, pattern string) Expr { return expr.NotLikeE(a, pattern) }

// Substr takes length bytes of a string expression starting at the 1-based
// byte position start.
func Substr(a Expr, start, length int) Expr {
	return expr.SubstrE(a, start, length)
}

// Concat concatenates two string expressions.
func Concat(a, b Expr) Expr { return expr.ConcatE(a, b) }

// Year extracts the year of a date expression.
func Year(a Expr) Expr { return expr.YearE(a) }

// Square is a * a (the paper's micro-benchmark expression).
func Square(a Expr) Expr { return expr.SquareE(a) }

// Cast converts an expression to the given type.
func Cast(to Type, a Expr) Expr {
	return expr.CastE(to, a)
}

// InList tests membership in a literal list (literals built with F/I/S/...).
func InList(a Expr, list ...Expr) Expr {
	consts := make([]*expr.Const, len(list))
	for i, l := range list {
		consts[i] = l.(*expr.Const)
	}
	return expr.InE(a, consts...)
}

// Case is CASE WHEN cond THEN t ELSE e END.
func Case(cond, then, els Expr) Expr { return expr.CaseE(cond, then, els) }
