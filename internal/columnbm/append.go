package columnbm

import (
	"cmp"
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
// chunks as lazily decoded colstore fragments and the grown column's chunk
// zone map, so the caller can re-attach them to the live table. parts may
// be nil (or empty) to persist only a grown deletion list. Enum columns
// pass their code slices (uint8/uint16); the manifest's dictionary is
// refreshed from the live (append-only) column dictionaries. movedIDs bumps the table's RowIDEpoch in the same
// commit: the appended rows include updates, whose rows moved to new ids.
func (s *Store) AppendTable(t *colstore.Table, parts []any, deleted []int32, movedIDs bool) ([]colstore.ColumnAppend, error) {
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
			if err := w.writePart(m.Table+"."+cm.Name, m.Gen, cm, parts[ci]); err != nil {
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
	out := make([]colstore.ColumnAppend, len(t.Cols))
	if n == 0 {
		return out, nil
	}
	for ci, col := range t.Cols {
		cm := &m.Columns[ci]
		out[ci] = colstore.ColumnAppend{
			Frags: s.columnFragments(m, cm, col.PhysType(), counts, oldChunks),
			Zones: chunkZoneMap(cm, col.Typ, counts),
		}
	}
	return out, nil
}

// chunkCount returns the committed chunk count of a manifest's shared grid.
func chunkCount(m *Manifest) int {
	if len(m.Columns) > 0 {
		return m.Columns[0].Chunks
	}
	return len(m.ChunkCounts)
}

// writePart writes part — a column's physical values, enum codes included
// — as the column's chunks [cm.Chunks, cm.Chunks+k) of generation gen, and
// extends cm to cover them: chunk count, min/max bounds, dictionary
// cardinalities and checksums. The receiver's chunkValues is the chunk
// grid. SaveTable, PrepareRewrite and the checkpoint append all write
// through it.
func (s *Store) writePart(key string, gen int, cm *ColumnManifest, part any) error {
	start := cm.Chunks
	crcs := covering(&cm.ChunkCRC32, start)
	var k int
	var err error
	switch d := part.(type) {
	case []int32:
		vals := widen(d)
		extendBounds(&cm.ChunkMinI64, &cm.ChunkMaxI64, vals, s.chunkValues, start)
		k, err = s.writeInt64Chunks(key, gen, start, vals, crcs)
	case []int64:
		extendBounds(&cm.ChunkMinI64, &cm.ChunkMaxI64, d, s.chunkValues, start)
		k, err = s.writeInt64Chunks(key, gen, start, d, crcs)
	case []float64:
		extendBounds(&cm.ChunkMinF64, &cm.ChunkMaxF64, d, s.chunkValues, start)
		if slices.ContainsFunc(cm.ChunkMinF64, isInf) || slices.ContainsFunc(cm.ChunkMaxF64, isInf) {
			// JSON has no infinities: a column whose bounds reach one
			// records none, or the manifest could not be written.
			cm.ChunkMinF64, cm.ChunkMaxF64 = nil, nil
		}
		k, err = s.writeFloat64Chunks(key, gen, start, d, crcs)
	case []string:
		extendBounds(&cm.ChunkMinStr, &cm.ChunkMaxStr, d, s.chunkValues, start)
		k, err = s.writeStringChunks(key, gen, start, d, covering(&cm.ChunkDictCard, start), crcs)
	case []bool:
		vals := make([]int64, len(d))
		for i, v := range d {
			if v {
				vals[i] = 1
			}
		}
		k, err = s.writeInt64Chunks(key, gen, start, vals, crcs)
	case []uint8:
		k, err = s.writeInt64Chunks(key, gen, start, widen(d), crcs)
	case []uint16:
		k, err = s.writeInt64Chunks(key, gen, start, widen(d), crcs)
	default:
		return fmt.Errorf("unsupported column payload %T", part)
	}
	if err != nil {
		return err
	}
	cm.Chunks = start + k
	return nil
}

// covering returns arr for extension when it covers exactly the start
// committed chunks, and otherwise drops it and returns nil. A per-chunk
// array is usable only when it covers every chunk; readers treat a
// length-mismatched one as absent, and dropping it keeps the manifest tidy.
func covering[T any](arr *[]T, start int) *[]T {
	if len(*arr) == start {
		return arr
	}
	*arr = nil
	return nil
}

// extendBounds appends the per-chunk min/max of vals, which start at chunk
// start, to a column's bounds arrays. Arrays that do not cover the
// committed chunks, and values holding a NaN, drop the column's bounds.
func extendBounds[T cmp.Ordered](mins, maxs *[]T, vals []T, chunkRows, start int) {
	ok := covering(mins, start) != nil && covering(maxs, start) != nil
	if ok {
		*mins, *maxs, ok = colstore.Summarize(*mins, *maxs, vals, chunkRows)
	}
	if !ok {
		*mins, *maxs = nil, nil
	}
}

func isInf(f float64) bool { return math.IsInf(f, 0) }

// widen converts integer values to the int64 chunk representation.
func widen[T int32 | uint8 | uint16](d []T) []int64 {
	vals := make([]int64, len(d))
	for i, v := range d {
		vals[i] = int64(v)
	}
	return vals
}
