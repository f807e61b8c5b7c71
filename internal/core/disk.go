package core

import (
	"slices"

	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/vector"
)

// AttachDiskTable attaches a ColumnBM-persisted table to the database as a
// fragment-backed table: scans decompress one chunk per column at a time
// through the store's buffer pool instead of materializing columns. Enum
// dictionaries from the manifest are registered as "<column>#dict" mapping
// tables so plans can group on codes and rehydrate values with a
// Fetch1Join, exactly as for generated in-memory tables. The store is
// remembered as the table's write-back target — Checkpoint writes deltas
// back to the directory and Reorganize rewrites it — and the deletion list
// persisted by earlier checkpoints is restored into the table's delta
// store, so an attach after a restart recovers the full committed state.
func AttachDiskTable(db *Database, store *columnbm.Store, name string) (*colstore.Table, error) {
	t, err := store.AttachTable(name)
	if err != nil {
		return nil, err
	}
	m, err := store.ReadManifest(name)
	if err != nil {
		return nil, err
	}
	db.AddTable(t)
	att := &diskAttachment{store: store, persistedDel: len(m.Deleted), joinEpochs: m.JoinEpochs}
	att.rowEpoch.Store(m.RowIDEpoch)
	db.mu.Lock()
	db.disk[name] = att
	db.mu.Unlock()
	ds, err := db.Delta(name)
	if err != nil {
		return nil, err
	}
	if len(m.Deleted) > 0 {
		ds.RestoreDeleted(m.Deleted)
	}
	if db.durability != DurabilityCheckpoint {
		// Open the table's write-ahead log and replay the committed tail
		// past the last checkpoint into the delta store — the crash-recovery
		// half of the WAL. A stale-epoch or torn log is handled inside
		// OpenWAL; replayed records re-enter through the same delta-store
		// operations the original calls used.
		wal, err := store.OpenWAL(name, m.WalEpoch, func(rec columnbm.WALRecord) error {
			switch rec.Kind {
			case columnbm.WALInsert:
				_, err := ds.Insert(rec.Row)
				return err
			case columnbm.WALDelete:
				return ds.Delete(rec.RowID)
			case columnbm.WALUpdate:
				// The update moved a row past the manifest's row-id
				// epoch: join indices onto the table register stale,
				// and the next checkpoint bumps the epoch.
				att.moved.Store(true)
				_, err := ds.Update(rec.RowID, rec.Row)
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		att.wal = wal
	}
	registerDictTables(db, t)
	return t, nil
}

// registerDictTables (re-)registers the "<column>#dict" mapping tables of a
// table's code-domain columns — enum columns and merged-dict string
// columns: single-column value tables the plan layer Fetch1Joins against to
// rehydrate dictionary codes. Re-registration replaces stale mappings after
// a Reorganize re-encoded the dictionaries.
func registerDictTables(db *Database, t *colstore.Table) {
	for _, c := range t.Cols {
		dt := colstore.NewTable(c.Name + DictSuffix)
		switch d, _, ok := c.CodeDomain(); {
		case ok: // enum string or merged-dict column
			// AddColumn over fresh copies cannot fail (single column).
			// Strings() snapshots the append-only dictionary race-free.
			_ = dt.AddColumn("value", vector.String, slices.Clone(d.Strings()))
		case c.IsEnum(): // float enum
			_ = dt.AddColumn("value", vector.Float64, slices.Clone(c.Dict.Floats()))
		default:
			continue
		}
		db.AddTable(dt)
	}
}
