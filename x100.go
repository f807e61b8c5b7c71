// Package x100 is the public API of this reproduction of "MonetDB/X100:
// Hyper-Pipelining Query Execution" (Boncz, Zukowski, Nes — CIDR 2005): an
// embeddable, vectorized, columnar query engine.
//
// A DB holds columnar tables (with optional enumeration compression, delta
// updates, summary and join indices). Queries are plans in the paper's X100
// relational algebra, built either with the fluent Q builder:
//
//	q := x100.ScanT("lineitem", "l_shipdate", "l_extendedprice").
//	       Where(x100.Le(x100.Col("l_shipdate"), x100.Date("1998-09-02"))).
//	       AggrBy(nil, x100.SumA("total", x100.Col("l_extendedprice")))
//	res, err := db.Exec(q.Node())
//
// or parsed from the paper's textual syntax:
//
//	res, err := db.ExecText(`Aggr(Select(Scan(lineitem),
//	    <(l_shipdate, date('1998-09-02'))), [], [total = sum(l_extendedprice)])`)
//
// Execution defaults to the vectorized X100 engine; the two baseline
// engines the paper compares against (tuple-at-a-time Volcano, and
// column-at-a-time MIL) are selectable per query for comparison.
//
// # Storage: column fragments and ColumnBM
//
// Every table column is a sequence of fragments (colstore.Fragment). Tables
// built with CreateTable are a single memory-resident fragment per column —
// the paper's in-memory BATs. Tables persisted to a ColumnBM chunk
// directory (CreateDiskTable, or cmd/dbgen -out) and attached with
// AttachDisk are one fragment per large lightweight-compressed chunk —
// raw/RLE/FoR/delta codecs for integer columns, raw/dict/prefix for string
// columns — the paper's Figure 5 ColumnBM store. Scans stream fragments
// through a per-worker reader that decodes at most one chunk per column at
// a time, straight into buffers of the column's physical type, via an LRU
// buffer pool of compressed chunks, so datasets larger than RAM execute in
// bounded memory. Every column has one kind of min/max summary, a zone map
// (the summary index of Section 4.3), and a Select over a Scan prunes the
// scan's row range through it: the per-chunk min/max recorded at write
// time (integer, float and string bounds alike) is a disk column's zone
// map, at chunk granularity and with no in-memory index, and
// BuildSummaryIndex builds a finer one over any column. See
// docs/ARCHITECTURE.md for the end-to-end tour and docs/STORAGE_FORMAT.md
// for the on-disk format.
// The positional join (Fetch1Join) gathers through per-column
// fragment locators — binary search over the fragment grid plus a small
// LRU of decoded chunks — so fetch joins against disk tables also run in
// bounded memory; only the baseline engines still pin (fully materialize)
// the disk columns they touch.
//
// # Durable updates
//
// Inserts, deletes and updates accumulate in per-table deltas (Insert,
// Delete, Update). On a disk-attached table every update is additionally
// write-ahead logged: a CRC32-framed record is appended to the table's
// per-directory log and — under the default DurabilityGroup mode —
// group-commit fsynced before the call returns, so an acknowledged update
// survives a crash even before any checkpoint (WithDurability selects the
// mode). Checkpoint writes the insert delta back to the chunk directory as
// new compressed chunks and records the deletion list, committing with one
// atomic manifest rename and rotating the log: AttachDisk after a restart
// recovers every checkpointed row and deletion and replays the log tail
// past the last checkpoint — a torn or corrupt log tail is cut at the last
// valid record, and a log the checkpoint already absorbed is discarded by
// its epoch, never replayed twice. Chunk files carry a CRC32 in the
// manifest, verified on first load: corruption surfaces as a wrapped
// error (not a panic), counted in WalStatuses alongside the WAL/recovery
// counters. Reorganize rewrites the directory into a fresh chunk-file
// generation, compacting deletions and re-encoding enums. Queries never
// write: a scan reads the base chunks, minus the sorted deletion list,
// followed by the pending inserts as an uncompressed tail, so a read-only
// attached table is never written, and attaching creates no log file until
// the first logged update.
//
// # Parallel execution
//
// WithParallelism(n) executes a query on n worker pipelines. Every
// partitionable plan fragment — a scan → select → project chain, with fetch
// joins and the probe sides of hash joins — is compiled once per worker;
// n = 1 is the serial plan itself. The workers claim contiguous row-range
// morsels (16K rows, or one vector when WithVectorSize exceeds that)
// dynamically, so an uneven selectivity distribution rebalances
// automatically. Each worker owns a full copy of its pipeline (vectors,
// selection buffers, compiled expression programs), so workers share only
// read-only state: column fragments, dictionaries, zone maps, and
// hash-join builds, which are materialized once and probed concurrently.
// The consumer of a fragment takes all n pipelines: an exchange fans their
// results in, aggregation merges one partial group table per worker
// order-insensitively, Order/TopN k-way merge one sorted run per worker,
// and a hash-join build drains all of them (and hashes and inserts in
// parallel once it holds 16K rows or more).
//
// Determinism: the result row set, group sets, and all integer aggregates
// are identical at every parallelism level; floating-point aggregates are
// deterministic up to summation order (partial sums combine in worker
// order, but morsels race to workers). Row order out of an exchange is not
// deterministic — order-sensitive queries sort above it. Order and TopN
// output is deterministic in the sort keys; rows that tie on every key may
// interleave differently across runs (the serial sort is stable, the
// parallel merge is not). Deletion lists are applied as selection vectors
// inside partitioned scans and pending inserts are one more morsel after
// the base range, so updated tables parallelize without being
// checkpointed. On disk-backed tables, morsels align to the chunk grid so
// no two workers ever decompress the same chunk.
//
// # Multi-query serving
//
// Concurrent queries share one process-wide worker pool with FIFO
// admission control (DefaultScheduler, sized to GOMAXPROCS): every worker
// acquires an execution slot before computing and offers it back at morsel
// boundaries, so a burst of short queries is never starved behind a long
// scan and total CPU oversubscription is bounded regardless of how many
// queries are in flight. WithScheduler substitutes a custom pool per
// query; SchedulerStats exposes admissions, queued waits, and yield
// handoffs. Concurrent scans of the same disk table cooperate through a
// bounded, scan-resistant decoded-chunk cache (WithBufferPool configures
// its capacity): a scan attaches to chunks some
// other scan already decoded instead of re-decoding them, with hit, miss
// and attach counters surfaced in WalStatuses and the execution trace.
//
// # Query lifecycle: cancellation, deadlines, memory budgets
//
// WithContext(ctx) attaches a context to a query: cancelling the context
// (or hitting its deadline) aborts the query at the next morsel boundary —
// serial pipelines check between vectors, parallel workers between
// morsels — and Exec returns an error wrapping context.Canceled or
// context.DeadlineExceeded (test with errors.Is). Abort is cooperative but
// prompt (within one scheduler quantum): worker goroutines exit, execution
// slots return to the scheduler, and generation leases and snapshot views
// are released, so a cancelled query leaks nothing. WithMemoryLimit(n)
// sets a per-query budget over the engine's materializing state — batch
// buffers, hash-join builds, aggregation accumulators, sort runs — and
// aborts the query with an error wrapping ErrMemoryBudget when it would
// exceed n bytes, instead of letting one query OOM the process; the
// reservation is visible to the shared scheduler (SchedulerStats), so
// admission control can account for it. Transient read errors on chunk
// files are retried with bounded exponential backoff; permanent corruption
// surfaces as a wrapped columnbm.ErrCorrupt naming the table, column,
// generation and chunk. WithBackgroundScrubbing starts a CRC scrubber
// that continuously re-verifies on-disk chunks against their manifest
// checksums (one admission slot per sweep, like the compactor), surfacing
// latent corruption before queries trip over it.
package x100

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/delta"
	"x100/internal/expr"
	"x100/internal/mil"
	"x100/internal/sched"
	"x100/internal/tpch"
	"x100/internal/trace"
	"x100/internal/vector"
	"x100/internal/volcano"
)

// Type aliases re-exported for schema construction.
type (
	// Type is a column type.
	Type = vector.Type
	// Schema describes a relation.
	Schema = vector.Schema
	// Field is one schema column.
	Field = vector.Field
	// Result is a materialized query result.
	Result = core.Result
	// Expr is a scalar expression.
	Expr = expr.Expr
	// Node is an algebra plan node.
	Node = algebra.Node
	// Tracer collects per-primitive execution statistics (Table 5 format).
	Tracer = trace.Collector
)

// Column types.
const (
	Bool     = vector.Bool
	UInt8    = vector.UInt8
	UInt16   = vector.UInt16
	Int32T   = vector.Int32
	Int64T   = vector.Int64
	Float64T = vector.Float64
	StringT  = vector.String
	DateT    = vector.Date
)

// Durability selects how updates to disk-attached tables survive a crash
// (see WithDurability).
type Durability = core.Durability

// Durability modes for WithDurability.
const (
	// DurabilityGroup (the default) write-ahead logs every insert, delete
	// and update on a disk-attached table and group-commits the fsync
	// before the call returns: concurrent writers share fsyncs, and an
	// acknowledged update survives a crash — AttachDisk replays the log
	// tail past the last checkpoint.
	DurabilityGroup = core.DurabilityGroup
	// DurabilityAsync logs every update but defers fsyncs to the next
	// group commit or checkpoint: a crash may lose only the most recent
	// unsynced updates.
	DurabilityAsync = core.DurabilityAsync
	// DurabilityCheckpoint is the legacy mode: no write-ahead log; updates
	// since the last Checkpoint die with the process.
	DurabilityCheckpoint = core.DurabilityCheckpoint
)

// ErrMemoryBudget is wrapped by the error a query returns when it would
// exceed its WithMemoryLimit budget: the query is aborted cleanly (slots,
// leases and snapshots released) instead of driving the process out of
// memory. Test with errors.Is(err, ErrMemoryBudget).
var ErrMemoryBudget = core.ErrMemoryBudget

// ErrCorrupt is wrapped by errors surfaced when an on-disk chunk, manifest
// or WAL record fails its checksum or structural validation; the chain
// names the table, column, generation and chunk index. Test with
// errors.Is(err, ErrCorrupt).
var ErrCorrupt = columnbm.ErrCorrupt

// ErrTransient marks I/O errors the storage layer classified as
// transient: chunk reads that fail with a transient error are retried
// with bounded exponential backoff before surfacing, so only errors that
// persisted across retries escape with this mark.
var ErrTransient = columnbm.ErrTransient

// ErrStaleRangeIndex is wrapped by the error of a Fetch1Join through a
// join-index column whose referenced table's row ids a Reorganize,
// compaction or Update moved, such as lineitem's l_orderrow after orders
// rows were deleted and orders reorganized. The column still holds the old
// row ids, so plans through it fail instead of answering wrongly. On
// attached directories the mark survives a re-attach. Test with
// errors.Is(err, ErrStaleRangeIndex).
var ErrStaleRangeIndex = core.ErrStaleRangeIndex

// DB is a columnar database instance.
type DB struct {
	inner *core.Database
	// stores caches one ColumnBM store per attached chunk directory.
	stores map[string]*columnbm.Store
	// diskSrc maps disk-attached tables to their store (for Storage).
	diskSrc map[string]*columnbm.Store
	// Decoded-chunk buffer-pool configuration (WithBufferPool); applied to
	// every store the DB opens.
	poolBytes int64
	poolSet   bool
	// Background compactor (WithBackgroundCompaction); nil when disabled.
	compactor     *core.Compactor
	compactorOpts CompactorOptions
	compactorOn   bool
	// Background CRC scrubber (WithBackgroundScrubbing); nil when disabled.
	scrubber     *core.Scrubber
	scrubberOpts ScrubberOptions
	scrubberOn   bool
}

// DBOption configures NewDB.
type DBOption func(*DB)

// WithDurability selects the durability mode for disk-attached tables.
// It must be chosen at construction: AttachDisk decides per the mode
// whether each table's write-ahead log is opened and replayed.
func WithDurability(d Durability) DBOption {
	return func(db *DB) { db.inner.SetDurability(d) }
}

// WithBufferPool configures the decoded-chunk buffer pool of every store
// the database opens (AttachDisk/CreateDiskTable): capacityBytes of
// decoded chunk data. The pool is what
// makes concurrent scans cooperative — scans of the same table attach to
// the decoded-chunk stream already circulating instead of each
// decompressing every chunk privately. capacityBytes <= 0 disables
// sharing (every scan decodes into private buffers, the default before
// this option existed). Without this option stores default to 64 MiB.
// Eviction is scan-resistant: one sequential scan of a cold table cannot
// flood out the hot working set, because only chunks re-referenced by a
// second scan are promoted out of the probationary segment. Hit/miss/attach
// counters are observable via Storage, the shell's \storage command, and
// trace counters.
func WithBufferPool(capacityBytes int64) DBOption {
	return func(db *DB) { db.poolBytes, db.poolSet = capacityBytes, true }
}

// CompactorOptions tune the background compactor started by
// WithBackgroundCompaction: the poll interval, the pending-insert and
// deleted-fraction thresholds that trigger a checkpoint or compaction, and
// the admission-control scheduler the maintenance work draws slots from.
type CompactorOptions = core.CompactorOptions

// CompactionStatus is a snapshot of the background compactor's counters:
// maintenance runs, checkpoints, compactions, rows absorbed, and whether a
// run is currently in flight (see DB.CompactionStatus).
type CompactionStatus = core.CompactionStatus

// WithBackgroundCompaction starts a background compactor over the
// database's disk-attached tables: insert deltas that outgrow the
// configured threshold are absorbed by incremental checkpoints, and tables
// whose deleted fraction passes its threshold are compacted (Reorganize)
// into a fresh chunk generation — all while queries keep executing against
// their captured snapshots. Maintenance work draws admission slots from
// the configured (or default) scheduler, so it cannot starve queries.
// Stop the compactor with DB.Close. The zero CompactorOptions selects
// defaults (100ms poll, 4096 delta rows, 25% deleted).
func WithBackgroundCompaction(opts CompactorOptions) DBOption {
	return func(db *DB) { db.compactorOpts, db.compactorOn = opts, true }
}

// ScrubberOptions tune the background CRC scrubber started by
// WithBackgroundScrubbing: the sweep interval and the admission-control
// scheduler each sweep draws its slot from.
type ScrubberOptions = core.ScrubberOptions

// ScrubStatus is a snapshot of the background scrubber's counters: sweeps
// completed, chunks verified and failed, and the most recent failure
// identity (see DB.ScrubStatus).
type ScrubStatus = core.ScrubStatus

// WithBackgroundScrubbing starts a background CRC scrubber over the
// database's disk-attached tables: every sweep re-reads the chunk files
// the committed manifests reference — bypassing the buffer pool, so the
// disk itself is checked and hot chunks stay cached — and verifies each
// against its manifest CRC32, surfacing latent corruption (bit rot, torn
// writes) before a query trips over it. Each sweep holds one admission
// slot, like the compactor, so verification I/O cannot starve queries.
// Verified/failed chunk counts appear in ScrubStatus, WalStatuses and the
// shell's \storage command. Stop the scrubber with DB.Close. The zero
// ScrubberOptions selects defaults (1s sweep interval, default scheduler).
func WithBackgroundScrubbing(opts ScrubberOptions) DBOption {
	return func(db *DB) { db.scrubberOpts, db.scrubberOn = opts, true }
}

// NewDB creates an empty database.
func NewDB(opts ...DBOption) *DB {
	db := &DB{inner: core.NewDatabase()}
	for _, o := range opts {
		o(db)
	}
	if db.compactorOn {
		db.compactor = core.StartCompactor(db.inner, db.compactorOpts)
	}
	if db.scrubberOn {
		db.scrubber = core.StartScrubber(db.inner, db.scrubberOpts)
	}
	return db
}

// CompactionStatus returns the background compactor's counters; the zero
// status when WithBackgroundCompaction was not selected.
func (db *DB) CompactionStatus() CompactionStatus {
	if db.compactor == nil {
		return CompactionStatus{}
	}
	return db.compactor.Status()
}

// ScrubStatus returns the background scrubber's counters; the zero status
// when WithBackgroundScrubbing was not selected.
func (db *DB) ScrubStatus() ScrubStatus {
	if db.scrubber == nil {
		return ScrubStatus{}
	}
	return db.scrubber.Status()
}

// Close stops the database's background maintenance (the compactor started
// by WithBackgroundCompaction and the scrubber started by
// WithBackgroundScrubbing), waiting for in-flight runs to finish. Queries
// already built keep working; Close only halts background work.
func (db *DB) Close() error {
	if db.compactor != nil {
		db.compactor.Stop()
	}
	if db.scrubber != nil {
		db.scrubber.Stop()
	}
	return nil
}

// store opens (or returns the cached) ColumnBM store for dir.
func (db *DB) store(dir string) (*columnbm.Store, error) {
	if s, ok := db.stores[dir]; ok {
		return s, nil
	}
	s, err := columnbm.NewStore(dir, 0, 0)
	if err != nil {
		return nil, err
	}
	if db.poolSet {
		s.ConfigureDecodedCache(db.poolBytes)
	}
	if db.stores == nil {
		db.stores = make(map[string]*columnbm.Store)
	}
	db.stores[dir] = s
	return s, nil
}

// AttachDisk attaches tables persisted in a ColumnBM chunk directory (by
// CreateDiskTable or cmd/dbgen -out) as disk-backed tables: scans
// decompress one chunk per column at a time through the directory's buffer
// pool instead of loading columns into memory. With no table names given,
// every manifest in the directory is attached. Enum dictionaries register
// their "<column>#dict" mapping tables automatically, and so do the TPC-H
// join-index columns (such as l_orderrow) once both of their tables are
// attached: a Reorganize, compaction or Update that moves the referenced
// table's row ids makes Fetch1Joins through them fail with
// ErrStaleRangeIndex. The mark survives a re-attach: the manifests record
// row-id epochs, and a column whose referenced table moved on since the
// column was saved registers stale.
func (db *DB) AttachDisk(dir string, tables ...string) error {
	s, err := db.store(dir)
	if err != nil {
		return err
	}
	if len(tables) == 0 {
		matches, err := filepath.Glob(filepath.Join(dir, "*.manifest.json"))
		if err != nil {
			return err
		}
		for _, m := range matches {
			tables = append(tables, strings.TrimSuffix(filepath.Base(m), ".manifest.json"))
		}
		sort.Strings(tables)
		if len(tables) == 0 {
			return fmt.Errorf("x100: no table manifests in %s", dir)
		}
	}
	for _, name := range tables {
		if _, err := core.AttachDiskTable(db.inner, s, name); err != nil {
			return err
		}
		if db.diskSrc == nil {
			db.diskSrc = make(map[string]*columnbm.Store)
		}
		db.diskSrc[name] = s
	}
	return tpch.RegisterJoinIndices(db.inner)
}

// GenerateTPCH creates a database pre-loaded with the deterministic TPC-H
// dataset this reproduction benchmarks on, at the given scale factor
// (1.0 = the 1GB schema).
func GenerateTPCH(sf float64) (*DB, error) {
	db, err := tpch.Generate(tpch.Config{SF: sf})
	if err != nil {
		return nil, err
	}
	return &DB{inner: db}, nil
}

// TPCHQuery returns the plan of TPC-H query q (1..22).
func TPCHQuery(q int, sf float64) (Node, error) { return tpch.Query(q, sf) }

// Internal returns the underlying engine database (escape hatch for
// advanced use: index registration, delta access).
func (db *DB) Internal() *core.Database { return db.inner }

// ColumnData attaches one column when creating a table.
type ColumnData struct {
	Name string
	Type Type
	// Data is the typed slice ([]int64, []float64, []int32, []string,
	// []bool, ...). For Date columns pass []int32 day numbers.
	Data any
	// Enum stores a string or float64 column enumeration-compressed.
	Enum bool
}

// CreateTable registers a new memory-resident table from full columns.
func (db *DB) CreateTable(name string, cols ...ColumnData) error {
	t, err := buildTable(name, cols)
	if err != nil {
		return err
	}
	db.inner.AddTable(t)
	return nil
}

func buildTable(name string, cols []ColumnData) (*colstore.Table, error) {
	t := colstore.NewTable(name)
	for _, c := range cols {
		var err error
		switch {
		case c.Enum && c.Type == StringT:
			err = t.AddEnumColumn(c.Name, c.Data.([]string))
		case c.Enum && c.Type == Float64T:
			err = t.AddEnumF64Column(c.Name, c.Data.([]float64))
		case c.Enum:
			err = fmt.Errorf("x100: enum columns must be string or float64, got %v", c.Type)
		default:
			err = t.AddColumn(c.Name, c.Type, c.Data)
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TableSchema returns a table's schema.
func (db *DB) TableSchema(name string) (Schema, error) { return db.inner.TableSchema(name) }

// NumRows returns a table's visible row count (base + deltas).
func (db *DB) NumRows(name string) (int, error) {
	ds, err := db.inner.Delta(name)
	if err != nil {
		return 0, err
	}
	return ds.NumRows(), nil
}

// Insert appends a row (boxed values in schema order) to a table's delta
// store (Figure 8 of the paper: base fragments are immutable). On a
// disk-attached table the row is write-ahead logged first (per the
// database's durability mode), so an acknowledged insert survives a crash.
func (db *DB) Insert(table string, row ...any) error {
	_, err := db.inner.Insert(table, row)
	return err
}

// InsertContext is Insert with cancellation: a durable insert parked in
// the write-ahead log's group commit behind another writer's fsync
// returns promptly (wrapping context.Canceled) when ctx is cancelled. The
// log record was already appended before the wait, so — exactly as after
// a crash — a cancelled insert's durability is unknown: it was not applied
// in memory, but may reappear on replay.
func (db *DB) InsertContext(ctx context.Context, table string, row ...any) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("x100: insert aborted before start: %w", err)
	}
	_, err := db.inner.InsertCancel(table, row, ctx.Done())
	return err
}

// Delete marks a row id deleted (write-ahead logged like Insert).
func (db *DB) Delete(table string, rowID int32) error {
	return db.inner.Delete(table, rowID)
}

// Update replaces a row (a delete plus an insert, per the paper), logged
// as one atomic write-ahead record. The row gets a new row id, so the join
// indices of other tables onto table go stale: Fetch1Joins through them
// fail with ErrStaleRangeIndex.
func (db *DB) Update(table string, rowID int32, row ...any) error {
	_, err := db.inner.Update(table, rowID, row)
	return err
}

// WalStatus reports one disk-attached table's write-ahead-log and
// storage-health counters (see WalStatuses).
type WalStatus = core.WalStatus

// WalStatuses returns WAL/recovery and storage-corruption counters for
// every disk-attached table, sorted by table name: records appended,
// group-commit fsyncs, checkpoint rotations, records replayed at attach,
// torn tails truncated, stale logs discarded, chunk checksum failures, and
// directory-fsync errors.
func (db *DB) WalStatuses() []WalStatus {
	return db.inner.WalStatuses()
}

// DeltaFraction reports the delta-to-base size ratio of a table; reorganize
// when it exceeds a small percentile.
func (db *DB) DeltaFraction(table string) (float64, error) {
	ds, err := db.inner.Delta(table)
	if err != nil {
		return 0, err
	}
	return ds.DeltaFraction(), nil
}

// Reorganize absorbs a table's deltas into its base fragments: deleted rows
// are dropped, delta rows appended, enum columns re-encoded. A disk-attached
// table (AttachDisk/CreateDiskTable) is additionally rewritten on disk — a
// fresh generation of compressed chunk files committed by one atomic
// manifest rename, compacting checkpointed deletions away — and re-attached
// fragment-backed, so it keeps scanning off disk chunks in bounded memory.
// Moving the row ids of a table join indices reference makes Fetch1Joins
// through them fail with ErrStaleRangeIndex. Reorganize returns an error
// only when it fails.
func (db *DB) Reorganize(table string) error {
	return db.inner.Reorganize(table)
}

// Delta exposes a table's delta store.
func (db *DB) Delta(table string) (*delta.Store, error) { return db.inner.Delta(table) }

// BuildSummaryIndex builds a summary index over a clustered column: a zone
// map recording the min and max of every granule rows (granule <= 0
// selects the default of 1024; a range never spans two disk chunks).
// Supported column types are int32, date, int64, float64 and string;
// enum-compressed columns are summarized over their decoded values, and a
// float column holding a NaN gets an index that prunes nothing. The build
// streams the column one chunk at a time and never pins a disk column.
// A Select over a Scan of the column then prunes through this index
// instead of the column's chunk zone map; checkpoints and Reorganize
// rebuild it at the same granule.
func (db *DB) BuildSummaryIndex(table, column string, granule int) error {
	return db.inner.BuildSummaryIndex(table, column, granule)
}

// Engine selects an execution architecture.
type Engine int

// Execution engines: the paper's vectorized X100 engine (default), and the
// two baselines it is evaluated against.
const (
	Vectorized Engine = iota // X100: vector-at-a-time pipeline
	MIL                      // column-at-a-time full materialization
	Volcano                  // tuple-at-a-time interpretation
)

// ExecOption configures Exec.
type ExecOption func(*execConfig)

type execConfig struct {
	engine       Engine
	vectorSize   int
	fuse         bool
	parallelism  int
	noCodeDomain bool
	sched        *sched.Pool
	tracer       *trace.Collector
	milTrace     *mil.Trace
	profile      *volcano.Profile
	ctx          context.Context
	memLimit     int64
}

// Scheduler is a process-wide worker pool with admission control: a fixed
// budget of execution slots that the worker pipelines of all in-flight
// queries share. Workers acquire a slot to compute, release it when
// blocked, and offer it to the oldest waiting worker at every morsel
// boundary, so N concurrent queries multiplex fairly (FIFO admission, no
// starvation) over the slot budget instead of spawning N*P runnable
// goroutines. Queries that don't select a scheduler share the process
// default, sized to GOMAXPROCS.
type Scheduler = sched.Pool

// SchedulerStats is a snapshot of a Scheduler's occupancy and admission
// counters (slots in use, queued workers, admissions, waits, yields).
type SchedulerStats = sched.Stats

// NewScheduler creates an admission-control pool with the given number of
// execution slots; workers < 1 selects runtime.GOMAXPROCS(0). Use with
// WithScheduler to isolate a query class onto its own slot budget (e.g. a
// small pool for background jobs), or DefaultScheduler to observe the
// shared one.
func NewScheduler(workers int) *Scheduler { return sched.NewPool(workers) }

// DefaultScheduler returns the process-wide scheduler every query uses
// unless WithScheduler overrides it.
func DefaultScheduler() *Scheduler { return sched.Default() }

// WithScheduler runs the query's worker pipelines under the given
// admission-control pool instead of the process-wide default (Vectorized
// engine).
func WithScheduler(s *Scheduler) ExecOption { return func(c *execConfig) { c.sched = s } }

// WithEngine selects the execution engine.
func WithEngine(e Engine) ExecOption { return func(c *execConfig) { c.engine = e } }

// WithVectorSize overrides the vector length (default 1024; Figure 10).
func WithVectorSize(n int) ExecOption { return func(c *execConfig) { c.vectorSize = n } }

// WithoutFusion disables compound-primitive fusion (Section 4.2 ablation).
func WithoutFusion() ExecOption { return func(c *execConfig) { c.fuse = false } }

// WithoutCodeDomain disables code-domain execution (Vectorized engine):
// string predicates, group-by keys and join keys over dictionary-backed
// columns then evaluate decode-first on the materialized strings instead of
// on the narrow dictionary codes, and scans materialize every row of every
// column instead of only those surviving the selection. It is the
// comparison baseline of the compressed benchmark and of the differential
// tests.
func WithoutCodeDomain() ExecOption { return func(c *execConfig) { c.noCodeDomain = true } }

// WithParallelism executes on n worker pipelines (Vectorized engine; see
// the package documentation for the parallelism model). 0 and 1 run
// single-threaded; negative values select runtime.GOMAXPROCS(0).
func WithParallelism(n int) ExecOption { return func(c *execConfig) { c.parallelism = n } }

// WithContext attaches a context to the query: cancelling it — or hitting
// its deadline — aborts execution at the next morsel boundary and Exec
// returns an error wrapping context.Canceled or context.DeadlineExceeded.
// Abort is cooperative but bounded: serial pipelines check between
// vectors, parallel workers between morsels, so a cancelled query stops
// within roughly one scheduler quantum, releasing its execution slots,
// generation leases and snapshot views. The Vectorized engine checks
// throughout execution; the MIL and Volcano baselines only check before
// starting.
func WithContext(ctx context.Context) ExecOption {
	return func(c *execConfig) { c.ctx = ctx }
}

// WithMemoryLimit caps the query's materializing memory — batch buffers,
// hash-join builds, aggregation accumulators, sort runs, pinned decoded
// chunks — at limitBytes. A query that would exceed the budget aborts
// with an error wrapping ErrMemoryBudget (never an OOM), releasing its
// resources like a cancellation; concurrent queries within their own
// budgets are unaffected. The budget is registered with the query's
// scheduler for its duration (SchedulerStats.MemReserved), so admission
// control sees the aggregate reservation. limitBytes <= 0 means
// unlimited. Vectorized engine only.
func WithMemoryLimit(limitBytes int64) ExecOption {
	return func(c *execConfig) { c.memLimit = limitBytes }
}

// WithTracer attaches a per-primitive tracer (Vectorized engine).
func WithTracer(t *Tracer) ExecOption { return func(c *execConfig) { c.tracer = t } }

// WithMILTrace attaches a per-statement trace (MIL engine, Table 3 format).
func WithMILTrace(t *mil.Trace) ExecOption { return func(c *execConfig) { c.milTrace = t } }

// WithProfile attaches a gprof-style profile (Volcano engine, Table 2
// format).
func WithProfile(p *volcano.Profile) ExecOption { return func(c *execConfig) { c.profile = p } }

// NewTracer creates a tracer for WithTracer.
func NewTracer() *Tracer { return trace.New() }

// NewMILTrace creates a statement trace for WithMILTrace.
func NewMILTrace() *mil.Trace { return &mil.Trace{} }

// NewProfile creates a profile for WithProfile.
func NewProfile() *volcano.Profile { return volcano.NewProfile() }

// Exec runs a plan and materializes the result.
func (db *DB) Exec(plan Node, opts ...ExecOption) (*Result, error) {
	cfg := execConfig{fuse: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ctx != nil {
		// The baseline engines have no in-flight checks; refuse to start a
		// query whose context is already dead on every engine.
		if err := cfg.ctx.Err(); err != nil {
			return nil, fmt.Errorf("x100: query aborted before start: %w", err)
		}
	}
	switch cfg.engine {
	case MIL:
		eng := &mil.Engine{DB: db.inner, Trace: cfg.milTrace}
		return eng.Run(plan)
	case Volcano:
		eng := &volcano.Engine{DB: db.inner, Profile: cfg.profile}
		return eng.Run(plan)
	default:
		eo := core.DefaultOptions()
		eo.Fuse = cfg.fuse
		eo.Tracer = cfg.tracer
		eo.Parallelism = cfg.parallelism
		eo.NoCodeDomain = cfg.noCodeDomain
		eo.Sched = cfg.sched
		eo.Ctx = cfg.ctx
		eo.MemLimit = cfg.memLimit
		if cfg.vectorSize > 0 {
			eo.BatchSize = cfg.vectorSize
		}
		return core.Run(db.inner, plan, eo)
	}
}

// ExecText parses a plan in the paper's textual algebra syntax and runs it.
func (db *DB) ExecText(plan string, opts ...ExecOption) (*Result, error) {
	n, err := algebra.Parse(plan)
	if err != nil {
		return nil, err
	}
	return db.Exec(n, opts...)
}

// Parse parses a textual algebra plan without executing it.
func Parse(plan string) (Node, error) { return algebra.Parse(plan) }

// Explain renders a plan tree (Figure 6 style).
func Explain(plan Node) string { return algebra.Explain(plan) }

// Validate type-checks a plan against the database catalog and returns its
// output schema.
func (db *DB) Validate(plan Node) (Schema, error) { return plan.Out(db.inner) }
