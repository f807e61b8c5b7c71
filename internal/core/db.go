// Package core implements the X100 vectorized query engine — the primary
// contribution of Boncz, Zukowski & Nes (CIDR 2005). Execution follows a
// Volcano-style pull pipeline whose unit of exchange is a vector.Batch of
// ~1000 values per column; all data-touching work happens inside the
// vectorized primitives of internal/primitives, so per-tuple interpretation
// overhead is amortized over whole vectors.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/delta"
	"x100/internal/expr"
	"x100/internal/sched"
	"x100/internal/vector"
)

// Durability selects how updates to disk-attached tables survive a crash.
type Durability int

const (
	// DurabilityGroup (the default) logs every insert/delete to the
	// table's write-ahead log and group-commits the fsync before the call
	// returns: an acknowledged update survives a crash.
	DurabilityGroup Durability = iota
	// DurabilityAsync logs every update but defers the fsync to the next
	// group commit or checkpoint: a crash may lose the most recent
	// (unsynced) updates, never the log's prefix.
	DurabilityAsync
	// DurabilityCheckpoint is the legacy mode: no write-ahead log; updates
	// since the last Checkpoint die with the process.
	DurabilityCheckpoint
)

// Database bundles the storage-layer state the engines execute against: the
// column catalog, per-table delta stores, summary indices and the join-index
// registry. Join indices over FK paths are materialized as ordinary int32
// row-id columns of the fact tables, exactly like MonetDB's positional-join
// columns; plans reference them by name in Fetch1Join.
//
// Concurrency model: queries never read live mutable state directly — Build
// captures per-table views (snapSet) under snapMu's read side, and every
// structural cutover (checkpoint fragment attach, compaction table swap,
// in-memory Checkpoint/Reorganize) happens under snapMu's write side with
// copy-on-write replacements, so a captured view stays consistent for the
// query's lifetime. mu guards the registry maps only and is always taken
// after snapMu.
type Database struct {
	Catalog *colstore.Catalog
	// snapMu orders query view capture (read side) against structural
	// cutovers (write side). Cutovers only replace state — column slices,
	// index maps — so captures are brief and cutovers never invalidate a
	// captured view.
	snapMu sync.RWMutex
	// mu guards the registry maps below. Always acquired after snapMu when
	// both are held.
	mu     sync.RWMutex
	deltas map[string]*delta.Store
	// summaries: table -> column -> the zone map BuildSummaryIndex built.
	// The per-table maps are immutable once published; refreshes swap
	// whole maps.
	summaries map[string]map[string]*colstore.ZoneMap
	// joinRefs: fetched-table -> referenced-table -> the positional
	// reference registered by RegisterJoinIndex. Copy-on-write like the
	// summary maps.
	joinRefs map[string]map[string]joinRef
	// disk: tables attached from a ColumnBM directory, with the store they
	// came from (the checkpoint write-back target) and how many deletions
	// the committed manifest already records.
	disk map[string]*diskAttachment
	// durability governs WAL logging of disk-attached tables. It must be
	// chosen before AttachDiskTable: attaching decides whether a log is
	// opened and replayed.
	durability Durability
}

type diskAttachment struct {
	store *columnbm.Store
	// wal is the table's write-ahead log; nil under
	// DurabilityCheckpoint.
	wal *columnbm.WAL
	// writeMu serializes the table's structural writers — checkpoint and
	// compaction — so at most one manifest-advancing operation is in
	// flight per table.
	writeMu sync.Mutex
	// tailMu orders the write path (WAL log + delta apply, read side)
	// against the tail-relog window of a checkpoint/compaction cutover
	// (write side): while the cutover collects the post-snapshot tail into
	// the next-epoch log, no writer may slip a record into the old-epoch
	// log, where it would be invalidated by the epoch bump.
	tailMu sync.RWMutex
	// persistedDel is the size of the deletion list in the committed
	// manifest; checkpoints only rewrite the manifest when the list (or the
	// insert delta) has grown past it. Deletion lists only grow between
	// compactions, so the count identifies the persisted set. Guarded by
	// writeMu (attach writes it before the attachment is published).
	persistedDel int
	// moved is set when an Update of the table — applied live or replayed
	// from its log — moved a row to a new row id that no committed
	// manifest's row-id epoch accounts for yet. The next checkpoint or
	// compaction bumps the epoch in its manifest commit and clears it; both
	// read it under tailMu's write side, so every logged Update is seen.
	moved atomic.Bool
	// rowEpoch mirrors the committed manifest's row-id epoch, and
	// joinEpochs its join-index epochs, which no commit of this process
	// refreshes (columnbm.Manifest).
	rowEpoch   atomic.Int64
	joinEpochs map[string]int64
	// Generation leases: queries that captured a view of this table hold a
	// ref; removal of superseded chunk-file generations is deferred until
	// the count returns to zero (see snapshot.go).
	genMu      sync.Mutex
	genRefs    int
	genPending []func()
}

// NewDatabase creates a database over an empty catalog.
func NewDatabase() *Database {
	return &Database{
		Catalog:   colstore.NewCatalog(),
		deltas:    make(map[string]*delta.Store),
		summaries: make(map[string]map[string]*colstore.ZoneMap),
		joinRefs:  make(map[string]map[string]joinRef),
		disk:      make(map[string]*diskAttachment),
	}
}

// SetDurability selects the durability mode for disk-attached tables.
// Call it before AttachDiskTable: the mode decides whether an attach opens
// (and replays) the table's write-ahead log.
func (db *Database) SetDurability(d Durability) { db.durability = d }

// Durability returns the database's durability mode.
func (db *Database) Durability() Durability { return db.durability }

// attachment returns the disk attachment of a table, nil when not attached.
func (db *Database) attachment(table string) *diskAttachment {
	db.mu.RLock()
	att := db.disk[table]
	db.mu.RUnlock()
	return att
}

// Insert appends one row (boxed logical values, schema order) to a table,
// returning its row id. For a disk-attached table with a write-ahead log
// the row is validated, logged (and under DurabilityGroup fsynced) before
// it is applied, so an acknowledged insert survives a restart.
func (db *Database) Insert(table string, row []any) (int32, error) {
	return db.InsertCancel(table, row, nil)
}

// InsertCancel is Insert with a cancellation channel threaded through to
// the write-ahead log's group-commit wait: a durable insert parked behind
// another appender's fsync returns promptly (wrapping context.Canceled)
// when cancel fires, instead of riding out the sync. The record was
// already appended, so — as after a crash — the row's durability is
// unknown to the caller; it is not applied to the in-memory delta.
func (db *Database) InsertCancel(table string, row []any, cancel <-chan struct{}) (int32, error) {
	ds, err := db.Delta(table)
	if err != nil {
		return 0, err
	}
	// Validate BEFORE logging: a record that reaches the log must always
	// apply, both now and at replay.
	if err := ds.CheckRow(row); err != nil {
		return 0, err
	}
	if att := db.attachment(table); att != nil {
		att.tailMu.RLock()
		defer att.tailMu.RUnlock()
		if att.wal != nil {
			if err := att.wal.LogInsertCancel(row, db.durability == DurabilityGroup, cancel); err != nil {
				return 0, err
			}
		}
	}
	return ds.Insert(row)
}

// Delete marks a row id deleted, write-ahead logging it like Insert.
func (db *Database) Delete(table string, rowID int32) error {
	ds, err := db.Delta(table)
	if err != nil {
		return err
	}
	if err := ds.CheckDelete(rowID); err != nil {
		return err
	}
	if att := db.attachment(table); att != nil {
		att.tailMu.RLock()
		defer att.tailMu.RUnlock()
		if att.wal != nil {
			if err := att.wal.LogDelete(rowID, db.durability == DurabilityGroup); err != nil {
				return err
			}
		}
	}
	return ds.Delete(rowID)
}

// Update deletes rowID and inserts row (the paper's delete+insert update),
// logged as one atomic write-ahead record: a replay applies both halves or
// neither. The row moves to a new row id while the join indices of other
// tables still hold the old one, so every join index onto table is marked
// stale before the update applies: a Fetch1Join through it then fails with
// ErrStaleRangeIndex instead of dropping the rows that referenced the old
// id. On a disk-attached table the next checkpoint or compaction also bumps
// the table's row-id epoch, so the mark survives a re-attach.
func (db *Database) Update(table string, rowID int32, row []any) (int32, error) {
	ds, err := db.Delta(table)
	if err != nil {
		return 0, err
	}
	if err := ds.CheckDelete(rowID); err != nil {
		return 0, err
	}
	if err := ds.CheckRow(row); err != nil {
		return 0, err
	}
	db.staleRefsOnto(table)
	if att := db.attachment(table); att != nil {
		att.tailMu.RLock()
		defer att.tailMu.RUnlock()
		att.moved.Store(true)
		if att.wal != nil {
			if err := att.wal.LogUpdate(rowID, row, db.durability == DurabilityGroup); err != nil {
				return 0, err
			}
		}
	}
	return ds.Update(rowID, row)
}

// GenLeases reports the number of outstanding generation leases on a
// disk-attached table — the count of captured query views that are
// pinning superseded chunk generations. Zero when no query holds a view.
// Diagnostic hook: cancelled and completed queries alike must return the
// count to its pre-query value.
func (db *Database) GenLeases(table string) int {
	att := db.attachment(table)
	if att == nil {
		return 0
	}
	att.genMu.Lock()
	defer att.genMu.Unlock()
	return att.genRefs
}

// WalStatus reports one disk-attached table's write-ahead-log and store
// counters (WalStatuses).
type WalStatus struct {
	Table string
	Wal   columnbm.WALStats
	Store columnbm.StoreStats
}

// WalStatuses returns WAL/recovery counters for every disk-attached table,
// sorted by table name. Tables without a log (DurabilityCheckpoint) report
// zero WAL counters but live store counters.
func (db *Database) WalStatuses() []WalStatus {
	db.mu.RLock()
	out := make([]WalStatus, 0, len(db.disk))
	for name, att := range db.disk {
		st := WalStatus{Table: name, Store: att.store.Stats()}
		if att.wal != nil {
			st.Wal = att.wal.Stats()
		}
		out = append(out, st)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// AddTable registers a table and creates its delta store. Re-registering a
// name drops any disk attachment recorded under it: the new table is not
// the one the old chunk directory describes, so checkpoints must not write
// back there (AttachDiskTable re-records its attachment after calling
// this).
func (db *Database) AddTable(t *colstore.Table) {
	db.Catalog.Add(t)
	db.mu.Lock()
	db.deltas[t.Name] = delta.NewStore(t)
	att := db.disk[t.Name]
	delete(db.disk, t.Name)
	db.mu.Unlock()
	if att != nil && att.wal != nil {
		att.wal.Close()
	}
}

// Table returns the named base table.
func (db *Database) Table(name string) (*colstore.Table, error) {
	return db.Catalog.Table(name)
}

// Delta returns the delta store of a table (created on first use).
func (db *Database) Delta(name string) (*delta.Store, error) {
	db.mu.RLock()
	d, ok := db.deltas[name]
	db.mu.RUnlock()
	if ok {
		return d, nil
	}
	t, err := db.Catalog.Table(name)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if d, ok := db.deltas[name]; ok {
		return d, nil
	}
	d = delta.NewStore(t)
	db.deltas[name] = d
	return d, nil
}

// Checkpoint absorbs a table's pending insert delta into new base
// fragments (preserving row ids; the deletion list survives) and refreshes
// any summary indices over the grown base. For a table attached from a
// ColumnBM directory the checkpoint is durable and incremental: only the
// delta accumulated since the previous checkpoint is written back to the
// directory as new compressed chunks, the deletion list is recorded, and
// the manifest is extended atomically. The new chunks re-attach to the
// live table as lazily decoded disk fragments, so the table stays within
// bounded memory. Scans running concurrently keep their captured
// pre-checkpoint view and see identical results. done=false means the
// delta store declined (an enum dictionary outgrew its code width) and the
// table keeps its deltas; Reorganize absorbs them by re-encoding.
func (db *Database) Checkpoint(table string) (bool, error) {
	ds, err := db.Delta(table)
	if err != nil {
		return false, err
	}
	if att := db.attachment(table); att != nil {
		return db.checkpointDisk(table, ds, att)
	}
	if ds.NumDeltaRows() == 0 {
		return true, nil
	}
	db.snapMu.Lock()
	done, err := ds.Checkpoint()
	if done && err == nil {
		err = db.refreshSummaries(table)
	}
	db.snapMu.Unlock()
	return done, err
}

// checkpointDisk is the durable, incremental checkpoint of a disk-attached
// table. The snapshot taken at entry defines the checkpoint's content;
// everything after it — part encoding, chunk writes — runs off the write
// path. Writers are excluded only for the tail-relog window: rows and
// deletes that arrived after the snapshot are re-logged into the
// next-epoch WAL sidecar before the manifest commit bumps the epoch, so
// the epoch handshake can invalidate the superseded log without losing
// the tail. A checkpoint that absorbs an Update (att.moved) bumps the
// table's row-id epoch in the same manifest commit. The re-logged tail
// replays as plain inserts and deletes, so an Update that arrived after the
// snapshot is accounted for by this bump too.
func (db *Database) checkpointDisk(table string, ds *delta.Store, att *diskAttachment) (bool, error) {
	att.writeMu.Lock()
	defer att.writeMu.Unlock()
	snap := ds.Snapshot()
	if snap.NumDeltaRows() == 0 && snap.NumDeleted() == att.persistedDel {
		// Read-only (or already fully persisted) table: a checkpoint is a
		// no-op and must not touch the directory.
		return true, nil
	}
	t, err := db.Table(table)
	if err != nil {
		return false, err
	}
	// t.Cols is stable here: every mutator holds writeMu.
	parts, done, err := snap.Parts(t.Cols)
	if err != nil || !done {
		return done, err
	}
	// Appending fragments drops the attach-time merged dictionaries
	// (colstore cannot assume new fragments share the code domain).
	// Snapshot them first so they can be refreshed incrementally below —
	// code-domain execution must survive an append+query cycle.
	mdicts := columnbm.SnapshotMergedDicts(t)
	att.tailMu.Lock()
	defer att.tailMu.Unlock()
	var next int64
	if att.wal != nil {
		m, err := att.store.ReadManifest(table)
		if err != nil {
			return false, err
		}
		next = m.WalEpoch + 1
		if err := att.wal.PrepareRotate(next, tailRecords(ds, snap)); err != nil {
			return false, err
		}
	}
	// The manifest records the SNAPSHOT's deletion list, not the current
	// one: deletes that arrived after the snapshot live in the next-epoch
	// sidecar and must not also be in the manifest, or replay would apply
	// them twice.
	moved := att.moved.Load()
	frags, err := att.store.AppendTable(t, parts, snap.SortedDeleted(), moved)
	if err != nil {
		// Nothing was committed (the manifest rename is the single commit
		// point), so the delta stays pending and scans remain correct. A
		// written sidecar carries an epoch the manifest never reached and
		// is discarded at the next open.
		return false, err
	}
	if moved {
		att.moved.Store(false)
		att.rowEpoch.Add(1)
	}
	db.snapMu.Lock()
	err = func() error {
		if parts != nil {
			if err := t.AppendFragments(frags); err != nil {
				return err
			}
			ds.ClearInsertsN(snap.NumDeltaRows())
			if err := att.store.RefreshMergedDicts(t, mdicts); err != nil {
				return err
			}
			// The "<col>#dict" mapping tables must track the (possibly
			// rebuilt) merged dictionaries.
			registerDictTables(db, t)
		}
		att.persistedDel = snap.NumDeleted()
		// Summaries must be swapped inside the cutover: a stale (shorter)
		// summary seen next to the grown row count would wrongly prune the
		// appended rows.
		return db.refreshSummaries(table)
	}()
	db.snapMu.Unlock()
	if err != nil {
		return false, err
	}
	if att.wal != nil {
		// The manifest commit advanced the WAL epoch; publishing the
		// sidecar as the live log completes the rotation. Until it
		// succeeds writers stay excluded, so no record lands in the
		// stale-epoch log.
		if err := att.wal.CommitRotate(next); err != nil {
			return false, err
		}
	}
	return true, nil
}

// tailRecords re-encodes the operations that arrived after a checkpoint
// snapshot as WAL records for the next-epoch sidecar. Inserts come first:
// a tail delete may target a tail-inserted row, and replay must create the
// row before deleting it. Callers hold the table's tailMu write lock, so
// the tail is stable.
func tailRecords(ds *delta.Store, snap *delta.Snapshot) []columnbm.WALRecord {
	var recs []columnbm.WALRecord
	for _, row := range ds.TailRows(snap.NumDeltaRows()) {
		recs = append(recs, columnbm.WALRecord{Kind: columnbm.WALInsert, Row: row})
	}
	for _, id := range ds.NewDeletesSince(snap) {
		recs = append(recs, columnbm.WALRecord{Kind: columnbm.WALDelete, RowID: id})
	}
	return recs
}

// Reorganize rewrites a table's base to absorb all deltas: deleted rows are
// dropped, delta rows appended, enum columns re-encoded. For a disk-attached
// table the compacted result is written to a fresh chunk-file generation in
// the background (queries keep scanning the previous generation) and cut
// over with one atomic manifest rename; the superseded generation's files
// are removed once the last query reading them finishes. Summary indices
// and enum dictionary mapping tables are rebuilt at the cutover. Join-index
// columns are NOT adjusted: when dropping deleted rows moves the row ids of
// a table that join indices reference, every one of them is marked stale,
// and Fetch1Joins through it fail to build with ErrStaleRangeIndex. On disk
// the same manifest commit bumps the table's row-id epoch, so the mark
// survives a re-attach. Reorganize returns an error only when it fails.
func (db *Database) Reorganize(table string) error {
	ds, err := db.Delta(table)
	if err != nil {
		return err
	}
	if att := db.attachment(table); att != nil {
		return db.compactTable(table, ds, att)
	}
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	moved, err := ds.Reorganize()
	if err != nil {
		return err
	}
	registerDictTables(db, t)
	if moved {
		db.staleRefsOnto(table)
	}
	return db.refreshSummaries(table)
}

// compactTable rewrites a disk-attached table into a fresh chunk-file
// generation. The heavy work — building the compacted table, writing its
// chunks — happens against a snapshot, off the write path and outside all
// locks; only the cutover (manifest rename, table swap, delta rebase,
// index refresh) excludes writers and view capture. Deletes and inserts
// that arrived after the snapshot are remapped into the new id space and
// re-logged into the next-epoch WAL sidecar, so the epoch handshake
// invalidates the superseded log without losing them. A compaction that
// drops rows, or runs while an Update is unaccounted for (att.moved),
// bumps the table's row-id epoch in its manifest commit.
func (db *Database) compactTable(table string, ds *delta.Store, att *diskAttachment) error {
	att.writeMu.Lock()
	defer att.writeMu.Unlock()
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	snap := ds.Snapshot()
	nt, live, err := delta.BuildCompacted(table, t.Cols, snap)
	if err != nil {
		return err
	}
	pr, err := att.store.PrepareRewrite(nt)
	if err != nil {
		return err
	}
	next := pr.NextWalEpoch()
	att.tailMu.Lock()
	defer att.tailMu.Unlock()
	// Remap an old-space row id into the compacted id space: surviving
	// snapshot rows take their rank in the live list; rows inserted after
	// the snapshot are re-appended behind the compacted base in arrival
	// order.
	snapTotal := snap.BaseN() + snap.NumDeltaRows()
	remap := func(id int32) (int32, bool) {
		if int(id) >= snapTotal {
			return int32(nt.N + int(id) - snapTotal), true
		}
		if i, ok := slices.BinarySearch(live, id); ok {
			return int32(i), true
		}
		return 0, false
	}
	tail := ds.TailRows(snap.NumDeltaRows())
	recs := make([]columnbm.WALRecord, 0, len(tail))
	for _, row := range tail {
		recs = append(recs, columnbm.WALRecord{Kind: columnbm.WALInsert, Row: row})
	}
	// remap is monotonic, so the remapped deletion list stays ascending.
	var newDel []int32
	for _, id := range ds.NewDeletesSince(snap) {
		nid, ok := remap(id)
		if !ok {
			return fmt.Errorf("core: compact %s: post-snapshot delete of unknown row %d", table, id)
		}
		newDel = append(newDel, nid)
		recs = append(recs, columnbm.WALRecord{Kind: columnbm.WALDelete, RowID: nid})
	}
	if att.wal != nil {
		if err := att.wal.PrepareRotate(next, recs); err != nil {
			return err
		}
	}
	moved := len(live) < snapTotal || att.moved.Load()
	old, err := pr.Commit(moved)
	if err != nil {
		// Nothing committed: the old generation (and in-memory state)
		// stands, deltas stay pending, the next-generation orphans are
		// overwritten by the next attempt.
		return err
	}
	att.moved.Store(false)
	if moved {
		att.rowEpoch.Add(1)
	}
	err = func() error {
		db.snapMu.Lock()
		defer db.snapMu.Unlock()
		// Re-attach fragment-backed so the table keeps scanning off disk
		// chunks within bounded memory. Same *Table identity: the delta
		// store and catalog keep their pointers; the column-set swap is
		// copy-on-write for captured views.
		nt2, err := att.store.AttachTable(table)
		if err != nil {
			return err
		}
		t.Cols, t.N, t.ChunkRows = nt2.Cols, nt2.N, nt2.ChunkRows
		if err := ds.Rebase(nt2.N, newDel, tail); err != nil {
			return err
		}
		att.persistedDel = 0
		registerDictTables(db, t)
		if moved {
			db.staleRefsOnto(table)
		}
		return db.refreshSummaries(table)
	}()
	if err != nil {
		return err
	}
	if att.wal != nil {
		if err := att.wal.CommitRotate(next); err != nil {
			return err
		}
	}
	// The superseded generation's chunk files may still be read by queries
	// that captured their view before the cutover; deletion waits for the
	// last generation lease.
	att.deferCleanup(func() { att.store.RemoveGeneration(old) })
	return nil
}

// CheckpointAll checkpoints every disk-attached table, concurrently across
// tables. Each worker draws an admission slot from pool (nil uses no
// admission control) so bulk checkpoints cannot starve running queries.
// The first error per table is collected; all tables are attempted.
func (db *Database) CheckpointAll(pool *sched.Pool) error {
	db.mu.RLock()
	names := make([]string, 0, len(db.disk))
	for name := range db.disk {
		names = append(names, name)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			slot := pool.NewSlot()
			slot.Acquire()
			defer slot.Release()
			if _, err := db.Checkpoint(name); err != nil {
				errs[i] = fmt.Errorf("checkpoint %s: %w", name, err)
			}
		}(i, name)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// refreshSummaries rebuilds the summary indices registered over a table
// (after its base fragments changed), each at its granule. The per-table
// map is replaced wholesale — captured views keep their frozen maps.
func (db *Database) refreshSummaries(table string) error {
	db.mu.RLock()
	old := db.summaries[table]
	db.mu.RUnlock()
	if len(old) == 0 {
		return nil
	}
	fresh := make(map[string]*colstore.ZoneMap, len(old))
	for col, z := range old {
		nz, err := db.buildSummary(table, col, z.Granule())
		if err != nil {
			return err
		}
		fresh[col] = nz
	}
	db.mu.Lock()
	db.summaries[table] = fresh
	db.mu.Unlock()
	return nil
}

// TableSchema implements algebra.Resolver.
func (db *Database) TableSchema(name string) (vector.Schema, error) {
	t, err := db.Catalog.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// CodeColumnType implements algebra.CodeResolver: the physical type of a
// code-domain column's code vector — enum columns and merged-dict string
// columns both expose "<column>#" scan targets.
func (db *Database) CodeColumnType(table, column string) (vector.Type, error) {
	t, err := db.Catalog.Table(table)
	if err != nil {
		return vector.Unknown, err
	}
	c := t.Col(column)
	if c == nil {
		return vector.Unknown, fmt.Errorf("core: table %s has no column %q", table, column)
	}
	if c.IsEnum() {
		return c.PhysType(), nil
	}
	if _, phys, ok := c.CodeDomain(); ok {
		return phys, nil
	}
	return vector.Unknown, fmt.Errorf("core: %s.%s is not an enum or dict-compressed column", table, column)
}

// buildSummary builds the zone map of a column's current base.
func (db *Database) buildSummary(table, column string, granule int) (*colstore.ZoneMap, error) {
	t, err := db.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	c := t.Col(column)
	if c == nil {
		return nil, fmt.Errorf("core: table %s has no column %q", table, column)
	}
	z, err := colstore.BuildZoneMap(c, granule)
	if err != nil {
		return nil, fmt.Errorf("core: summary index %s.%s: %w", table, column, err)
	}
	return z, nil
}

// cloneWith returns a copy of m with k set to v (copy-on-write map update).
func cloneWith[V any](m map[string]V, k string, v V) map[string]V {
	out := make(map[string]V, len(m)+1)
	for kk, vv := range m {
		out[kk] = vv
	}
	out[k] = v
	return out
}

// BuildSummaryIndex builds a summary index — a zone map of granule rows
// per range (granule <= 0 selects 1024) — over a clustered column of a
// table (paper Section 4.3). Supported column types: int32, date, int64,
// float64 and string, enum-compressed ones over their decoded values. The
// column is streamed one fragment at a time, never pinned. A Select over a
// Scan of the table prunes through the index; checkpoints, Reorganize and
// compaction rebuild it at the same granule.
func (db *Database) BuildSummaryIndex(table, column string, granule int) error {
	z, err := db.buildSummary(table, column, granule)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.summaries[table] = cloneWith(db.summaries[table], column, z)
	db.mu.Unlock()
	return nil
}

// joinRef is a positional reference: an int32 column of the fetched table
// (a join index such as "l_orderrow") holding row ids of the referenced
// table. Writers supply its values for the rows they insert; -1 means the
// row references nothing, and a Fetch1Join drops it.
type joinRef struct {
	col string
	// stale: the referenced table's row ids moved after the column's values
	// were computed — a Reorganize, compaction or Update, in this process
	// or, on disk, before the tables were attached — so col may hold ids of
	// rows that moved. A Fetch1Join through col fails to build with
	// ErrStaleRangeIndex.
	stale bool
}

// RegisterJoinIndex registers the int32 column rowIDCol of fetchedTable as
// a positional reference to refTable's row ids. When a Reorganize,
// compaction or Update of refTable moves its row ids, the reference is
// marked stale and Fetch1Joins through the column fail to build with
// ErrStaleRangeIndex instead of fetching the wrong rows. A reorganize of
// fetchedTable moves the column's values with their rows and leaves the
// reference valid. Registering (again) marks the column valid for the
// referenced table's current row ids, except when both tables are
// disk-attached and their manifests say otherwise (persistedStale): then
// the reference registers stale.
func (db *Database) RegisterJoinIndex(fetchedTable, refTable, rowIDCol string) error {
	ft, err := db.Table(fetchedTable)
	if err != nil {
		return err
	}
	if c := ft.Col(rowIDCol); c == nil || c.Typ.Physical() != vector.Int32 {
		return fmt.Errorf("core: join index %s.%s: no int32 column", fetchedTable, rowIDCol)
	}
	if _, err := db.Table(refTable); err != nil {
		return err
	}
	stale := db.persistedStale(fetchedTable, refTable, rowIDCol)
	db.mu.Lock()
	defer db.mu.Unlock()
	db.joinRefs[fetchedTable] = cloneWith(db.joinRefs[fetchedTable], refTable, joinRef{col: rowIDCol, stale: stale})
	return nil
}

// persistedStale reports whether the committed state of two disk-attached
// tables says the join index col of fetched onto ref is stale: the fetched
// table's manifest records, for col, a row-id epoch of ref other than ref's
// current one, or an Update replayed from ref's log has moved a row since
// ref's last manifest commit. Tables not both attached from disk carry no
// epochs, and their references register valid.
func (db *Database) persistedStale(fetched, ref, col string) bool {
	fatt, ratt := db.attachment(fetched), db.attachment(ref)
	if fatt == nil || ratt == nil {
		return false
	}
	return fatt.joinEpochs[col] != ratt.rowEpoch.Load() || ratt.moved.Load()
}

// ErrStaleRangeIndex is wrapped by the build error of a Fetch1Join through
// a registered join-index column whose referenced table's row ids moved
// after the column's values were computed (joinRef.stale). Plans through
// the column fail instead of fetching the wrong rows. The name is kept for
// callers that test for it.
var ErrStaleRangeIndex = errors.New("core: join index references moved row ids")

// staleRefsOnto marks every join index onto ref (but not ref's own) stale.
func (db *Database) staleRefsOnto(ref string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for fetched, m := range db.joinRefs {
		if r, ok := m[ref]; ok && fetched != ref {
			r.stale = true
			db.joinRefs[fetched] = cloneWith(m, ref, r)
		}
	}
}

// JoinIndex returns the column registered as the join index of
// fetchedTable onto refTable, or "" when none is.
func (db *Database) JoinIndex(fetchedTable, refTable string) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.joinRefs[fetchedTable][refTable].col
}

// CheckJoinIndex returns an error wrapping ErrStaleRangeIndex when rowID,
// the row-id expression of a Fetch1Join into target, is a column
// registered as a join index onto target that has gone stale. Every engine
// calls it when it builds a Fetch1Join.
func (db *Database) CheckJoinIndex(target string, rowID expr.Expr) error {
	c, ok := rowID.(*expr.Col)
	if !ok {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for fetched, m := range db.joinRefs {
		if r, ok := m[target]; ok && r.stale && r.col == c.Name {
			return fmt.Errorf("%w: %s.%s onto %s", ErrStaleRangeIndex, fetched, r.col, target)
		}
	}
	return nil
}
