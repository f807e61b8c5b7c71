package core

import (
	"slices"
	"sync"

	"x100/internal/colstore"
	"x100/internal/delta"
)

// This file implements the per-query snapshot layer that makes checkpoints
// and compaction concurrent with scans. A query captures, per table, one
// immutable tableView — the column set, row count, delta snapshot and the
// secondary-index maps — under the database's snapshot lock. Checkpoint and
// compaction cutovers take that lock exclusively and swap in new state with
// copy-on-write (new column slices, new index maps), so a captured view
// stays internally consistent for the lifetime of the query no matter how
// many cutovers happen underneath it.
//
// Views of disk-attached tables additionally hold a generation lease on the
// attachment: the background compactor defers deleting superseded chunk
// files until every query that might still read them has released its
// lease.

// tableView is one query's frozen view of a table.
type tableView struct {
	name  string
	table *colstore.Table
	// cols/n/chunkRows are the base-table state at capture time. The table
	// mutators are copy-on-write (AppendFragment(s) and the compaction
	// cutover install fresh *Column sets), so these stay valid after any
	// number of cutovers.
	cols      []*colstore.Column
	n         int
	chunkRows int
	// delta is the captured insert/delete delta; its buffers are immune to
	// concurrent appends and ClearInsertsN/Rebase by construction.
	delta *delta.Snapshot
	// summaries is the captured summary-index map (nil when none is
	// registered). Cutovers swap whole maps, never mutate them, so reads
	// here are race-free.
	summaries map[string]*colstore.ZoneMap
}

// col returns the captured column by name, nil when absent.
func (v *tableView) col(name string) *colstore.Column {
	if i := v.colIndex(name); i >= 0 {
		return v.cols[i]
	}
	return nil
}

// colIndex returns the position of a captured column, -1 when absent.
func (v *tableView) colIndex(name string) int {
	return slices.IndexFunc(v.cols, func(c *colstore.Column) bool { return c.Name == name })
}

// snapSet is the set of table views one query executes against. Build
// captures every plan table (and their enum-dictionary mapping tables) in
// one snapshot-lock acquisition so a multi-table query sees a single
// cutover point; view() lazily captures stragglers.
type snapSet struct {
	db       *Database
	mu       sync.Mutex
	views    map[string]*tableView
	releases []func()
	released bool
}

func (db *Database) newSnapSet() *snapSet {
	return &snapSet{db: db, views: make(map[string]*tableView)}
}

// view returns the frozen view of a table, capturing it on first use.
func (ss *snapSet) view(name string) (*tableView, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if v := ss.views[name]; v != nil {
		return v, nil
	}
	ss.db.snapMu.RLock()
	defer ss.db.snapMu.RUnlock()
	return ss.captureLocked(name)
}

// capture pre-captures the views of the given tables — and, for every
// enum or dict-compressed column of those tables, the "<col>#dict" mapping
// table when registered — under ONE snapshot-lock acquisition. This is the
// query's consistency point: a compaction re-encodes enum columns with
// fresh dictionaries, so a column's codes and its mapping table must come
// from the same side of the cutover.
func (ss *snapSet) capture(tables []string) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.db.snapMu.RLock()
	defer ss.db.snapMu.RUnlock()
	for _, name := range tables {
		v, err := ss.captureLocked(name)
		if err != nil {
			return err
		}
		for _, c := range v.cols {
			if !c.IsEnum() {
				if _, _, ok := c.CodeDomain(); !ok {
					continue
				}
			}
			dictName := c.Name + DictSuffix
			if _, err := ss.db.Table(dictName); err != nil {
				continue // mapping table not registered
			}
			if _, err := ss.captureLocked(dictName); err != nil {
				return err
			}
		}
	}
	return nil
}

// captureLocked captures one table under the held snapshot read lock and
// takes a generation lease when the table is disk-attached.
func (ss *snapSet) captureLocked(name string) (*tableView, error) {
	if v := ss.views[name]; v != nil {
		return v, nil
	}
	db := ss.db
	t, err := db.Table(name)
	if err != nil {
		return nil, err
	}
	ds, err := db.Delta(name)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	v := &tableView{
		name:      name,
		table:     t,
		cols:      t.Cols,
		n:         t.N,
		chunkRows: t.ChunkRows,
		delta:     ds.Snapshot(),
		summaries: db.summaries[name],
	}
	att := db.disk[name]
	db.mu.RUnlock()
	if att != nil {
		att.acquire()
		ss.releases = append(ss.releases, att.release)
	}
	ss.views[name] = v
	return v, nil
}

// release drops the set's generation leases; superseded chunk-file
// generations whose removal was deferred behind this query are deleted
// when the last lease goes. Idempotent.
func (ss *snapSet) release() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.released {
		return
	}
	ss.released = true
	for _, r := range ss.releases {
		r()
	}
	ss.releases = nil
}

// releaseOp wraps a query's root operator so closing the pipeline releases
// the snapshot set's generation leases. Build installs it when it created
// the set; Drain (and every well-behaved caller) closes the root exactly
// once.
type releaseOp struct {
	Operator
	snaps *snapSet
}

func (r *releaseOp) Close() error {
	err := r.Operator.Close()
	r.snaps.release()
	return err
}

// acquire takes a generation lease on the attachment.
func (att *diskAttachment) acquire() {
	att.genMu.Lock()
	att.genRefs++
	att.genMu.Unlock()
}

// release drops a lease; at zero the deferred cleanups (superseded
// chunk-file generations) run.
func (att *diskAttachment) release() {
	att.genMu.Lock()
	att.genRefs--
	var run []func()
	if att.genRefs == 0 {
		run = att.genPending
		att.genPending = nil
	}
	att.genMu.Unlock()
	for _, f := range run {
		f()
	}
}

// deferCleanup runs f now when no query holds a generation lease, else
// parks it until the last lease is released.
func (att *diskAttachment) deferCleanup(f func()) {
	att.genMu.Lock()
	busy := att.genRefs > 0
	if busy {
		att.genPending = append(att.genPending, f)
	}
	att.genMu.Unlock()
	if !busy {
		f()
	}
}
