package columnbm

import (
	"fmt"
	"math"
	"slices"

	"x100/internal/colstore"
	"x100/internal/vector"
)

// This file implements the durable-checkpoint append protocol: the insert
// delta of a disk-attached table is written back to the chunk directory as
// new compressed chunks, and the manifest is extended and committed with
// one atomic rename. The protocol's invariant is that chunk files
// referenced by the committed manifest are never modified in place:
//
//  1. Delta rows are split into fresh chunks (the manifest's chunk grid)
//     and written to new files at indices >= the committed chunk count.
//  2. The manifest is extended — chunk counts, per-chunk row counts
//     (appended chunks start a fresh chunk, so interior chunks may be
//     short), per-chunk min/max bounds, grown enum dictionaries, and the
//     current deletion list — and committed via temp-file + rename.
//
// A crash before the rename leaves the old manifest referencing only the
// old files: re-attaching sees exactly the pre-checkpoint state, and the
// partially written chunks are unreferenced orphans that the next append
// simply overwrites. A crash after the rename is a completed checkpoint.

// AppendTable writes the physical column parts (one typed slice per column
// of t, equal lengths; the encoded insert delta) back to the table's chunk
// directory as new compressed chunks, records the deletion list, and
// commits the extended manifest atomically. It returns, per column, the new
// chunks as lazily decoded colstore fragments so the caller can re-attach
// them to the live table. parts may be nil (or empty) to persist only a
// grown deletion list. Enum columns pass their code slices (uint8/uint16);
// the manifest's dictionary is refreshed from the live (append-only)
// column dictionaries. movedIDs bumps the table's RowIDEpoch in the same
// commit: the appended rows include updates, whose rows moved to new ids.
func (s *Store) AppendTable(t *colstore.Table, parts []any, deleted []int32, movedIDs bool) ([][]colstore.Fragment, error) {
	m, err := s.readManifest(t.Name)
	if err != nil {
		return nil, err
	}
	if len(m.Columns) != len(t.Cols) {
		return nil, fmt.Errorf("columnbm: append to %s: manifest has %d columns, table has %d", t.Name, len(m.Columns), len(t.Cols))
	}
	chunkRows := m.ChunkRows
	if chunkRows <= 0 {
		chunkRows = s.chunkValues
	}
	n := 0
	if len(parts) > 0 {
		if len(parts) != len(t.Cols) {
			return nil, fmt.Errorf("columnbm: append to %s: %d parts, table has %d columns", t.Name, len(parts), len(t.Cols))
		}
		n = vector.FromAny(vector.Unknown, parts[0]).Len()
	}
	oldChunks := chunkCount(m)
	counts, err := m.chunkRowCounts(chunkRows, oldChunks)
	if err != nil {
		return nil, fmt.Errorf("columnbm: append to %s: %w", t.Name, err)
	}
	// Validate the whole grid BEFORE writing anything: the manifest commit
	// must never reference a column whose chunk layout disagrees with the
	// shared grid, and a failed append must leave the directory untouched
	// so the caller can safely retry.
	for ci := range t.Cols {
		cm := &m.Columns[ci]
		if cm.Name != t.Cols[ci].Name {
			return nil, fmt.Errorf("columnbm: append to %s: manifest column %q, table column %q", t.Name, cm.Name, t.Cols[ci].Name)
		}
		if cm.Chunks != oldChunks {
			return nil, fmt.Errorf("columnbm: append to %s: column %s has %d chunks, grid has %d", t.Name, cm.Name, cm.Chunks, oldChunks)
		}
		if n > 0 {
			if k := vector.FromAny(vector.Unknown, parts[ci]).Len(); k != n {
				return nil, fmt.Errorf("columnbm: append to %s: column %s part has %d rows, want %d", t.Name, cm.Name, k, n)
			}
		}
	}
	counts = slices.Clone(counts)
	for lo := 0; lo < n; lo += chunkRows {
		counts = append(counts, min(chunkRows, n-lo))
	}
	w := s.withChunkValues(chunkRows)
	for ci := range t.Cols {
		col := t.Cols[ci]
		cm := &m.Columns[ci]
		if n > 0 {
			if err := w.appendColumn(m, cm, col, parts[ci], oldChunks); err != nil {
				return nil, fmt.Errorf("columnbm: append %s.%s: %w", t.Name, cm.Name, err)
			}
		}
		if cm.Enum {
			// The dictionary is append-only in memory; persist its current
			// state so re-attached code chunks decode identically.
			if col.Dict.Typ == vector.Float64 {
				cm.DictF64 = col.Dict.Floats()
			} else {
				cm.DictStr = col.Dict.Strings()
			}
		}
	}
	m.Rows += n
	m.ChunkCounts = counts
	m.Deleted = slices.Clone(deleted)
	slices.Sort(m.Deleted)
	if movedIDs {
		m.RowIDEpoch++
	}
	if err := s.writeManifest(m); err != nil {
		return nil, err
	}
	if n == 0 {
		return make([][]colstore.Fragment, len(t.Cols)), nil
	}
	frags := make([][]colstore.Fragment, len(t.Cols))
	for ci := range t.Cols {
		frags[ci] = s.columnFragments(m, &m.Columns[ci], t.Cols[ci].PhysType(), counts, oldChunks)
	}
	return frags, nil
}

// chunkCount returns the committed chunk count of a manifest's shared grid.
func chunkCount(m *Manifest) int {
	if len(m.Columns) > 0 {
		return m.Columns[0].Chunks
	}
	return len(m.ChunkCounts)
}

// appendColumn writes one column's delta part as chunks starting at index
// `start` and extends the column manifest (chunk count, bounds, dict
// cardinality). The receiver's chunkValues is the manifest grid.
func (s *Store) appendColumn(m *Manifest, cm *ColumnManifest, col *colstore.Column, part any, start int) error {
	key := m.Table + "." + cm.Name
	// Checksums, like bounds, are only usable when they cover every chunk:
	// extend the array when it exactly covers the committed chunks, drop it
	// otherwise (readers treat length-mismatched arrays as "no checksums").
	var crcs *[]uint32
	if len(cm.ChunkCRC32) == start {
		crcs = &cm.ChunkCRC32
	} else {
		cm.ChunkCRC32 = nil
	}
	var k int
	var err error
	switch d := part.(type) {
	case []int32:
		vals := make([]int64, len(d))
		for i, v := range d {
			vals[i] = int64(v)
		}
		appendBoundsI64(cm, vals, s.chunkValues, start)
		k, err = s.writeInt64Chunks(key, m.Gen, start, vals, crcs)
	case []int64:
		appendBoundsI64(cm, d, s.chunkValues, start)
		k, err = s.writeInt64Chunks(key, m.Gen, start, d, crcs)
	case []float64:
		appendBoundsF64(cm, d, s.chunkValues, start)
		k, err = s.writeFloat64Chunks(key, m.Gen, start, d, crcs)
	case []string:
		appendBoundsStr(cm, d, s.chunkValues, start)
		var cards *[]int
		if len(cm.ChunkDictCard) == start {
			cards = &cm.ChunkDictCard
		} else {
			cm.ChunkDictCard = nil
		}
		k, err = s.writeStringChunks(key, m.Gen, start, d, cards, crcs)
	case []bool:
		vals := make([]int64, len(d))
		for i, v := range d {
			if v {
				vals[i] = 1
			}
		}
		k, err = s.writeInt64Chunks(key, m.Gen, start, vals, crcs)
	case []uint8:
		vals := make([]int64, len(d))
		for i, v := range d {
			vals[i] = int64(v)
		}
		k, err = s.writeInt64Chunks(key, m.Gen, start, vals, crcs)
	case []uint16:
		vals := make([]int64, len(d))
		for i, v := range d {
			vals[i] = int64(v)
		}
		k, err = s.writeInt64Chunks(key, m.Gen, start, vals, crcs)
	default:
		return fmt.Errorf("unsupported part payload %T", part)
	}
	if err != nil {
		return err
	}
	cm.Chunks = start + k
	return nil
}

// appendBoundsI64 extends a column's per-chunk min/max bounds for the
// appended chunks. Bounds are only usable when they cover every chunk, so
// if the existing arrays do not exactly cover the committed chunks the
// column's bounds are dropped entirely (readers already treat
// length-mismatched arrays as "no bounds"; dropping keeps the manifest
// tidy).
func appendBoundsI64(cm *ColumnManifest, vals []int64, chunkRows, start int) {
	if cm.Enum || len(cm.ChunkMinI64) != start || len(cm.ChunkMaxI64) != start {
		cm.ChunkMinI64, cm.ChunkMaxI64 = nil, nil
		return
	}
	for lo := 0; lo < len(vals); lo += chunkRows {
		hi := min(lo+chunkRows, len(vals))
		mn, mx := vals[lo], vals[lo]
		for _, v := range vals[lo+1 : hi] {
			mn, mx = min(mn, v), max(mx, v)
		}
		cm.ChunkMinI64 = append(cm.ChunkMinI64, mn)
		cm.ChunkMaxI64 = append(cm.ChunkMaxI64, mx)
	}
}

// appendBoundsF64 is the float counterpart; a NaN anywhere in the appended
// values drops the column's bounds (NaN breaks ordering, so pruning over
// it would be unsound — matching the save-time stats).
func appendBoundsF64(cm *ColumnManifest, vals []float64, chunkRows, start int) {
	if cm.Enum || len(cm.ChunkMinF64) != start || len(cm.ChunkMaxF64) != start {
		cm.ChunkMinF64, cm.ChunkMaxF64 = nil, nil
		return
	}
	for lo := 0; lo < len(vals); lo += chunkRows {
		hi := min(lo+chunkRows, len(vals))
		mn, mx := vals[lo], vals[lo]
		for _, v := range vals[lo:hi] {
			if math.IsNaN(v) {
				cm.ChunkMinF64, cm.ChunkMaxF64 = nil, nil
				return
			}
			mn, mx = min(mn, v), max(mx, v)
		}
		cm.ChunkMinF64 = append(cm.ChunkMinF64, mn)
		cm.ChunkMaxF64 = append(cm.ChunkMaxF64, mx)
	}
}

// appendBoundsStr is the string counterpart of appendBoundsI64.
func appendBoundsStr(cm *ColumnManifest, vals []string, chunkRows, start int) {
	if cm.Enum || len(cm.ChunkMinStr) != start || len(cm.ChunkMaxStr) != start {
		cm.ChunkMinStr, cm.ChunkMaxStr = nil, nil
		return
	}
	for lo := 0; lo < len(vals); lo += chunkRows {
		hi := min(lo+chunkRows, len(vals))
		mn, mx := vals[lo], vals[lo]
		for _, v := range vals[lo+1 : hi] {
			mn, mx = min(mn, v), max(mx, v)
		}
		cm.ChunkMinStr = append(cm.ChunkMinStr, mn)
		cm.ChunkMaxStr = append(cm.ChunkMaxStr, mx)
	}
}
