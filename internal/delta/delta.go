// Package delta implements the update scheme of Section 4.3 / Figure 8 of
// the paper: vertical fragments are immutable; deletes append the row id to
// a deletion list, inserts append to in-memory delta columns (the PAX-like
// chunk of the paper), and an update is a delete plus an insert. When the
// deltas exceed a small fraction of the table, Reorganize rewrites the base
// fragments and clears the deltas.
//
// Scans therefore see: base rows minus the deletion list, followed by the
// delta rows minus deletions of delta rows. Delta columns are never
// compressed (inserted strings into enum columns extend the dictionary,
// which is append-only, so existing codes stay valid).
//
// Checkpoint absorbs the insert delta into a new in-memory base fragment
// appended to every column, preserving all row ids (deletions stay on the
// deletion list). It is cheaper than Reorganize — no base rewrite — and
// bounds the insert tail every scan appends to the base range. Reorganize
// remains the full rewrite that also drops deleted rows and re-encodes enum
// columns.
//
// The store is internally synchronized so that checkpoints and compaction
// can run concurrently with writers and scans: Snapshot captures an
// immutable view (delta slices are append-only, so captured slice headers
// stay valid), ClearInsertsN absorbs only a snapshot prefix while later
// inserts keep their row ids, and Rebase swings the store onto a rewritten
// base at a compaction cutover.
package delta

import (
	"fmt"
	"slices"
	"sync"

	"x100/internal/colstore"
	"x100/internal/vector"
)

// Store tracks pending modifications for one table. It is internally
// synchronized: writers append while concurrent scans read through
// immutable Snapshots, and the checkpoint/compaction pipelines absorb a
// snapshot prefix while later writes keep accumulating.
type Store struct {
	mu    sync.Mutex
	table *colstore.Table
	// baseN is the number of base rows the delta is layered over. It is
	// tracked explicitly (not read from table.N) so that scans pinned to a
	// pre-checkpoint snapshot never race with a base cutover mutating the
	// table.
	baseN int
	// deleted row ids (over base + delta space), ascending and unique.
	deleted []int32
	// insert delta: one untyped column buffer per table column.
	ins []deltaCol
	// number of rows appended to the delta.
	nIns int
}

type deltaCol struct {
	name string
	typ  vector.Type
	// vals holds boxed values row-wise converted into typed slices lazily;
	// kept typed to avoid per-value boxing on scan.
	bools    []bool
	u8s      []uint8
	u16s     []uint16
	i32s     []int32
	i64s     []int64
	f64s     []float64
	strs     []string
	physical vector.Type
}

// NewStore creates an empty delta store over a base table.
func NewStore(t *colstore.Table) *Store {
	s := &Store{table: t, baseN: t.N}
	for _, c := range t.Cols {
		s.ins = append(s.ins, deltaCol{name: c.Name, typ: c.Typ, physical: c.Typ.Physical()})
	}
	return s
}

// Table returns the underlying base table.
func (s *Store) Table() *colstore.Table { return s.table }

// BaseN returns the number of base rows the delta is layered over.
func (s *Store) BaseN() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseN
}

// NumRows returns the visible row count: base + inserts - deletions.
func (s *Store) NumRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseN + s.nIns - len(s.deleted)
}

// NumDeltaRows returns the number of rows in the insert delta.
func (s *Store) NumDeltaRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nIns
}

// NumDeleted returns the size of the deletion list.
func (s *Store) NumDeleted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deleted)
}

// Delete marks a row id (base or delta space) as deleted.
func (s *Store) Delete(rowID int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(rowID)
}

func (s *Store) deleteLocked(rowID int32) error {
	if int(rowID) < 0 || int(rowID) >= s.baseN+s.nIns {
		return fmt.Errorf("delta: row id %d out of range [0,%d)", rowID, s.baseN+s.nIns)
	}
	if i, found := slices.BinarySearch(s.deleted, rowID); !found {
		s.deleted = slices.Insert(s.deleted, i, rowID)
	}
	return nil
}

// IsDeleted reports whether a row id is on the deletion list.
func (s *Store) IsDeleted(rowID int32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := slices.BinarySearch(s.deleted, rowID)
	return ok
}

// Insert appends one row (one boxed value per column, in schema order) to
// the delta columns and returns its row id.
func (s *Store) Insert(row []any) (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(row)
}

func (s *Store) insertLocked(row []any) (int32, error) {
	if len(row) != len(s.ins) {
		return 0, fmt.Errorf("delta: insert row has %d values, table %s has %d columns", len(row), s.table.Name, len(s.ins))
	}
	for i := range s.ins {
		c := &s.ins[i]
		v := row[i]
		switch c.physical {
		case vector.Bool:
			x, ok := v.(bool)
			if !ok {
				return 0, typeErr(c.name, c.typ, v)
			}
			c.bools = append(c.bools, x)
		case vector.UInt8:
			x, ok := v.(uint8)
			if !ok {
				return 0, typeErr(c.name, c.typ, v)
			}
			c.u8s = append(c.u8s, x)
		case vector.UInt16:
			x, ok := v.(uint16)
			if !ok {
				return 0, typeErr(c.name, c.typ, v)
			}
			c.u16s = append(c.u16s, x)
		case vector.Int32:
			x, ok := v.(int32)
			if !ok {
				return 0, typeErr(c.name, c.typ, v)
			}
			c.i32s = append(c.i32s, x)
		case vector.Int64:
			x, ok := v.(int64)
			if !ok {
				return 0, typeErr(c.name, c.typ, v)
			}
			c.i64s = append(c.i64s, x)
		case vector.Float64:
			x, ok := v.(float64)
			if !ok {
				return 0, typeErr(c.name, c.typ, v)
			}
			c.f64s = append(c.f64s, x)
		case vector.String:
			x, ok := v.(string)
			if !ok {
				return 0, typeErr(c.name, c.typ, v)
			}
			c.strs = append(c.strs, x)
		}
	}
	id := int32(s.baseN + s.nIns)
	s.nIns++
	return id, nil
}

// CheckRow validates one boxed row against the table schema without
// appending it — the same arity and per-column type checks Insert performs.
// Durable callers use it to validate BEFORE logging the row to a WAL, so a
// logged record can never fail to apply.
func (s *Store) CheckRow(row []any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(row) != len(s.ins) {
		return fmt.Errorf("delta: insert row has %d values, table %s has %d columns", len(row), s.table.Name, len(s.ins))
	}
	for i := range s.ins {
		c := &s.ins[i]
		v := row[i]
		ok := true
		switch c.physical {
		case vector.Bool:
			_, ok = v.(bool)
		case vector.UInt8:
			_, ok = v.(uint8)
		case vector.UInt16:
			_, ok = v.(uint16)
		case vector.Int32:
			_, ok = v.(int32)
		case vector.Int64:
			_, ok = v.(int64)
		case vector.Float64:
			_, ok = v.(float64)
		case vector.String:
			_, ok = v.(string)
		}
		if !ok {
			return typeErr(c.name, c.typ, v)
		}
	}
	return nil
}

// CheckDelete validates a row id the way Delete would, without deleting.
func (s *Store) CheckDelete(rowID int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(rowID) < 0 || int(rowID) >= s.baseN+s.nIns {
		return fmt.Errorf("delta: row id %d out of range [0,%d)", rowID, s.baseN+s.nIns)
	}
	return nil
}

// Update is a delete of rowID followed by an insert of row, per Figure 8.
func (s *Store) Update(rowID int32, row []any) (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.deleteLocked(rowID); err != nil {
		return 0, err
	}
	return s.insertLocked(row)
}

func typeErr(col string, t vector.Type, v any) error {
	return fmt.Errorf("delta: column %s expects %v, got %T", col, t, v)
}

// deltaValue reads the boxed logical value of delta row j from a column
// buffer (shared by the row accessors and rebuildCols).
func deltaValue(c *deltaCol, j int) any {
	switch c.physical {
	case vector.Bool:
		return c.bools[j]
	case vector.UInt8:
		return c.u8s[j]
	case vector.UInt16:
		return c.u16s[j]
	case vector.Int32:
		return c.i32s[j]
	case vector.Int64:
		return c.i64s[j]
	case vector.Float64:
		return c.f64s[j]
	default:
		return c.strs[j]
	}
}

func deltaVector(c *deltaCol, lo, hi int) *vector.Vector {
	switch c.physical {
	case vector.Bool:
		return vector.FromBools(c.bools[lo:hi])
	case vector.UInt8:
		return vector.FromUint8s(c.u8s[lo:hi])
	case vector.UInt16:
		return vector.FromUint16s(c.u16s[lo:hi])
	case vector.Int32:
		v := vector.FromInt32s(c.i32s[lo:hi])
		v.Typ = c.typ
		return v
	case vector.Int64:
		return vector.FromInt64s(c.i64s[lo:hi])
	case vector.Float64:
		return vector.FromFloat64s(c.f64s[lo:hi])
	default:
		return vector.FromStrings(c.strs[lo:hi])
	}
}

// DeltaVector returns delta rows [lo:hi) of column ci as a logical-typed
// vector (enum columns come back as plain strings: deltas are uncompressed).
func (s *Store) DeltaVector(ci, lo, hi int) *vector.Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return deltaVector(&s.ins[ci], lo, hi)
}

// DeltaRow returns delta row j (0-based within the delta) as one boxed
// value per column — the shape Insert accepts and the WAL logs.
func (s *Store) DeltaRow(j int) []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return rowOf(s.ins, j)
}

func rowOf(cols []deltaCol, j int) []any {
	row := make([]any, len(cols))
	for i := range cols {
		row[i] = deltaValue(&cols[i], j)
	}
	return row
}

// TailRows returns the boxed delta rows from index `from` (0-based within
// the delta) to the end, in insertion order. Compaction uses it to carry
// writes that arrived after its snapshot across a cutover.
func (s *Store) TailRows(from int) [][]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 {
		from = 0
	}
	out := make([][]any, 0, s.nIns-from)
	for j := from; j < s.nIns; j++ {
		out = append(out, rowOf(s.ins, j))
	}
	return out
}

// NewDeletesSince returns the row ids deleted after the given snapshot was
// taken, in ascending order (still in the snapshot's id space).
func (s *Store) NewDeletesSince(snap *Snapshot) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int32, 0)
	for _, id := range s.deleted {
		if !snap.IsDeleted(id) {
			out = append(out, id)
		}
	}
	return out
}

// liveIDs lists [0,total) minus the ascending deletion list.
func liveIDs(total int, deleted []int32) []int32 {
	out := make([]int32, 0, total-len(deleted))
	for id := int32(0); id < int32(total); id++ {
		if len(deleted) > 0 && deleted[0] == id {
			deleted = deleted[1:]
			continue
		}
		out = append(out, id)
	}
	return out
}

// LiveRowIDs returns all visible row ids in ascending order (base rows
// first, then delta rows), excluding deletions. Scans over tables with
// small deltas use this to build their position lists.
func (s *Store) LiveRowIDs() []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return liveIDs(s.baseN+s.nIns, s.deleted)
}

// DeltaFraction returns the fraction of the table held in deltas (inserts +
// deletes vs base size); the storage layer reorganizes when this exceeds a
// small percentile (paper Section 4.3).
func (s *Store) DeltaFraction() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.baseN == 0 {
		if s.nIns == 0 {
			return 0
		}
		return 1
	}
	return float64(s.nIns+len(s.deleted)) / float64(s.baseN)
}

// partsFrom encodes the first nIns delta rows as one slice per column in the
// column's physical representation. Enum inserts encode through the
// append-only dictionary; done=false signals a dictionary that outgrew its
// column's code width. Plain columns alias the delta buffers (capped at
// nIns, so later appends to the live buffers cannot leak into a fragment).
func partsFrom(cols []*colstore.Column, ins []deltaCol, nIns int) (parts []any, done bool, err error) {
	if nIns == 0 {
		return nil, true, nil
	}
	parts = make([]any, len(cols))
	for ci, col := range cols {
		dc := &ins[ci]
		if col.IsEnum() {
			codes := make([]int, nIns)
			for j := 0; j < nIns; j++ {
				if col.Dict.Typ == vector.Float64 {
					codes[j] = col.Dict.CodeF64(dc.f64s[j])
				} else {
					codes[j] = col.Dict.Code(dc.strs[j])
				}
			}
			switch col.PhysType() {
			case vector.UInt8:
				if col.Dict.Len() > 256 {
					return nil, false, nil
				}
				c8 := make([]uint8, nIns)
				for j, c := range codes {
					c8[j] = uint8(c)
				}
				parts[ci] = c8
			case vector.UInt16:
				if col.Dict.Len() > 65536 {
					return nil, false, nil
				}
				c16 := make([]uint16, nIns)
				for j, c := range codes {
					c16[j] = uint16(c)
				}
				parts[ci] = c16
			default:
				return nil, false, fmt.Errorf("delta: enum column %s has code type %v", col.Name, col.PhysType())
			}
			continue
		}
		switch dc.physical {
		case vector.Bool:
			parts[ci] = dc.bools[:nIns:nIns]
		case vector.UInt8:
			parts[ci] = dc.u8s[:nIns:nIns]
		case vector.UInt16:
			parts[ci] = dc.u16s[:nIns:nIns]
		case vector.Int32:
			parts[ci] = dc.i32s[:nIns:nIns]
		case vector.Int64:
			parts[ci] = dc.i64s[:nIns:nIns]
		case vector.Float64:
			parts[ci] = dc.f64s[:nIns:nIns]
		default:
			parts[ci] = dc.strs[:nIns:nIns]
		}
	}
	return parts, true, nil
}

// Parts encodes the insert delta as one slice per column in the column's
// physical representation (enum inserts encode through the append-only
// dictionary), without clearing the delta: the checkpoint paths hand the
// parts either to Table.AppendFragment (in-memory) or to the ColumnBM
// write-back (disk), then call ClearInserts once the rows are durably part
// of the base. done=false is returned without changes when a dictionary has
// outgrown its column's code width — the delta then stays pending (scans
// read it as the insert tail) until a full Reorganize re-encodes it. With
// no pending inserts it returns (nil, true, nil).
func (s *Store) Parts() (parts []any, done bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return partsFrom(s.table.Cols, s.ins, s.nIns)
}

// ClearInserts drops the entire insert delta (after the caller has absorbed
// the Parts into base fragments). The deletion list is untouched, and baseN
// advances by the absorbed count so row ids are preserved.
func (s *Store) ClearInserts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clearInsertsLocked(s.nIns)
}

// ClearInsertsN absorbs the first n delta rows into the base: they become
// base rows baseN..baseN+n-1 (ids unchanged) and the remaining tail shifts
// to delta indices 0..nIns-n-1 — also with unchanged ids, because baseN
// grows by exactly n. The tail is copied into fresh buffers so slices
// captured by concurrent Snapshots stay valid.
func (s *Store) ClearInsertsN(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.nIns {
		n = s.nIns
	}
	if n <= 0 {
		return
	}
	s.clearInsertsLocked(n)
}

func (s *Store) clearInsertsLocked(n int) {
	for i := range s.ins {
		c := &s.ins[i]
		nc := deltaCol{name: c.name, typ: c.typ, physical: c.physical}
		switch c.physical {
		case vector.Bool:
			nc.bools = append([]bool(nil), c.bools[n:]...)
		case vector.UInt8:
			nc.u8s = append([]uint8(nil), c.u8s[n:]...)
		case vector.UInt16:
			nc.u16s = append([]uint16(nil), c.u16s[n:]...)
		case vector.Int32:
			nc.i32s = append([]int32(nil), c.i32s[n:]...)
		case vector.Int64:
			nc.i64s = append([]int64(nil), c.i64s[n:]...)
		case vector.Float64:
			nc.f64s = append([]float64(nil), c.f64s[n:]...)
		case vector.String:
			nc.strs = append([]string(nil), c.strs[n:]...)
		}
		s.ins[i] = nc
	}
	s.nIns -= n
	s.baseN += n
}

// RestoreDeleted seeds the deletion list from a persisted manifest
// (attach-time recovery of a disk table's checkpointed deletions).
func (s *Store) RestoreDeleted(ids []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if int(id) >= 0 && int(id) < s.baseN+s.nIns {
			s.deleted = append(s.deleted, id)
		}
	}
	slices.Sort(s.deleted)
	s.deleted = slices.Compact(s.deleted)
}

// Rebase swings the store onto a rewritten base at a compaction cutover:
// newBaseN is the compacted base row count, deleted is the ascending
// deletion list already remapped into the new id space (nil for none), and
// tail holds the boxed rows inserted after the compaction snapshot,
// re-appended in order so they receive the ids the caller's remap assigned
// them.
func (s *Store) Rebase(newBaseN int, deleted []int32, tail [][]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.baseN = newBaseN
	s.deleted = deleted
	for i := range s.ins {
		s.ins[i] = deltaCol{name: s.ins[i].name, typ: s.ins[i].typ, physical: s.ins[i].physical}
	}
	s.nIns = 0
	for _, row := range tail {
		if _, err := s.insertLocked(row); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is an immutable view of a delta store at one instant: the base
// row count, the insert-delta prefix, and the deletion set captured once as
// an ascending list (scans walk it per batch; point lookups binary-search).
// Because delta buffers are append-only and ClearInsertsN copies surviving
// tails into fresh buffers, the captured slice headers stay valid no matter
// what the live store does afterwards. Scans pin one per table so a query
// sees a single consistent view across a concurrent checkpoint.
type Snapshot struct {
	baseN   int
	nIns    int
	deleted []int32 // ascending
	cols    []deltaCol
}

// Snapshot captures an immutable view of the store's current state.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	cols := make([]deltaCol, len(s.ins))
	copy(cols, s.ins)
	for i := range cols {
		clampCol(&cols[i], s.nIns)
	}
	return &Snapshot{baseN: s.baseN, nIns: s.nIns, deleted: slices.Clone(s.deleted), cols: cols}
}

// clampCol caps the populated slice at n with a full slice expression so an
// append through the live store can never write into the captured view.
func clampCol(c *deltaCol, n int) {
	switch c.physical {
	case vector.Bool:
		c.bools = c.bools[:n:n]
	case vector.UInt8:
		c.u8s = c.u8s[:n:n]
	case vector.UInt16:
		c.u16s = c.u16s[:n:n]
	case vector.Int32:
		c.i32s = c.i32s[:n:n]
	case vector.Int64:
		c.i64s = c.i64s[:n:n]
	case vector.Float64:
		c.f64s = c.f64s[:n:n]
	case vector.String:
		c.strs = c.strs[:n:n]
	}
}

// BaseN returns the snapshot's base row count.
func (sn *Snapshot) BaseN() int { return sn.baseN }

// NumDeltaRows returns the number of insert-delta rows in the snapshot.
func (sn *Snapshot) NumDeltaRows() int { return sn.nIns }

// NumDeleted returns the size of the snapshot's deletion list.
func (sn *Snapshot) NumDeleted() int { return len(sn.deleted) }

// NumRows returns the visible row count of the snapshot.
func (sn *Snapshot) NumRows() int { return sn.baseN + sn.nIns - len(sn.deleted) }

// IsDeleted reports whether a row id is deleted in the snapshot.
func (sn *Snapshot) IsDeleted(rowID int32) bool {
	_, ok := slices.BinarySearch(sn.deleted, rowID)
	return ok
}

// DeltaVector returns snapshot delta rows [lo:hi) of column ci as a
// logical-typed vector.
func (sn *Snapshot) DeltaVector(ci, lo, hi int) *vector.Vector {
	return deltaVector(&sn.cols[ci], lo, hi)
}

// DeltaRow returns snapshot delta row j as one boxed value per column.
func (sn *Snapshot) DeltaRow(j int) []any { return rowOf(sn.cols, j) }

// LiveRowIDs returns the snapshot's visible row ids in ascending order.
func (sn *Snapshot) LiveRowIDs() []int32 {
	return liveIDs(sn.baseN+sn.nIns, sn.deleted)
}

// SortedDeleted returns the snapshot's deletion list in ascending order.
// The slice is the snapshot's own copy: callers must not modify it.
func (sn *Snapshot) SortedDeleted() []int32 { return sn.deleted }

// Parts encodes the snapshot's insert delta against the given column set
// (the columns the fragments will be appended to — enum inserts encode
// through those columns' live dictionaries, which are append-only, so codes
// assigned here stay valid at cutover). Same contract as Store.Parts.
func (sn *Snapshot) Parts(cols []*colstore.Column) (parts []any, done bool, err error) {
	return partsFrom(cols, sn.cols, sn.nIns)
}

// Reorganize rewrites the base table to absorb all deltas: deleted base rows
// are dropped, delta rows are appended, and the deltas are cleared. Enum
// columns are re-encoded (dictionaries may have grown). The new column set
// is assembled off to the side and swapped in as one slice assignment, so
// callers that serialize Reorganize against snapshot capture (core does,
// via its snapshot lock) never expose a half-rewritten table. moved reports
// whether row ids moved, which they do when a deleted row was dropped.
func (s *Store) Reorganize() (moved bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table
	live := liveIDs(s.baseN+s.nIns, s.deleted)
	cols, err := rebuildCols(t.Cols, s.ins, live, s.baseN)
	if err != nil {
		return false, fmt.Errorf("delta: reorganize %s: %w", t.Name, err)
	}
	moved = len(s.deleted) > 0
	t.Cols = cols
	t.N = len(live)
	// The rewrite leaves every column memory-resident in one fragment, so
	// chunk alignment no longer applies.
	t.ChunkRows = 0
	s.baseN = len(live)
	s.deleted = nil
	for i := range s.ins {
		s.ins[i] = deltaCol{name: s.ins[i].name, typ: s.ins[i].typ, physical: s.ins[i].physical}
	}
	s.nIns = 0
	return moved, nil
}

// BuildCompacted builds a fully reorganized copy of a table from a frozen
// column set and a delta snapshot, without touching the live table: deleted
// rows dropped, snapshot delta rows appended, enum columns re-encoded with
// fresh dictionaries. It returns the new table (single memory-resident
// fragment per column) and the surviving row ids in the OLD id space, in
// the order they occupy the new table — the remap compaction cutover needs.
// The background compactor runs this off the write path; only the cutover
// itself needs the exclusive lock.
func BuildCompacted(name string, cols []*colstore.Column, snap *Snapshot) (*colstore.Table, []int32, error) {
	live := snap.LiveRowIDs()
	nt := colstore.NewTable(name)
	newCols, err := rebuildCols(cols, snap.cols, live, snap.baseN)
	if err != nil {
		return nil, nil, fmt.Errorf("delta: compact %s: %w", name, err)
	}
	nt.Cols = newCols
	nt.N = len(live)
	return nt, live, nil
}

// rebuildCols materializes a reorganized column set: live base rows (ids <
// baseN) gathered from the old columns, delta rows (ids >= baseN) from the
// insert buffers. The old columns are only read, never mutated.
func rebuildCols(cols []*colstore.Column, ins []deltaCol, live []int32, baseN int) ([]*colstore.Column, error) {
	out := make([]*colstore.Column, len(cols))
	for ci, col := range cols {
		// Materialize the base column up front with a returned error: the
		// fragments may live on disk, and a corrupt chunk must surface as an
		// error, not a panic from Data().
		if _, err := col.Pin(); err != nil {
			return nil, fmt.Errorf("column %s: %w", col.Name, err)
		}
		if col.IsEnum() {
			nt := colstore.NewTable("tmp")
			if col.Dict.Typ == vector.Float64 {
				vals := make([]float64, 0, len(live))
				for _, id := range live {
					if int(id) < baseN {
						vals = append(vals, col.DecodedValue(int(id)).(float64))
					} else {
						vals = append(vals, deltaValue(&ins[ci], int(id)-baseN).(float64))
					}
				}
				if err := nt.AddEnumF64Column(col.Name, vals); err != nil {
					return nil, err
				}
			} else {
				vals := make([]string, 0, len(live))
				for _, id := range live {
					if int(id) < baseN {
						vals = append(vals, col.DecodedValue(int(id)).(string))
					} else {
						vals = append(vals, deltaValue(&ins[ci], int(id)-baseN).(string))
					}
				}
				if err := nt.AddEnumColumn(col.Name, vals); err != nil {
					return nil, err
				}
			}
			out[ci] = nt.Cols[0]
			continue
		}
		newData, err := rebuildPlain(col, &ins[ci], live, baseN)
		if err != nil {
			return nil, err
		}
		nt := colstore.NewTable("tmp")
		if err := nt.AddColumn(col.Name, col.Typ, newData); err != nil {
			return nil, err
		}
		out[ci] = nt.Cols[0]
	}
	return out, nil
}

func rebuildPlain(col *colstore.Column, dc *deltaCol, live []int32, baseN int) (any, error) {
	switch dc.physical {
	case vector.Bool:
		base := col.Data().([]bool)
		out := make([]bool, 0, len(live))
		for _, id := range live {
			if int(id) < baseN {
				out = append(out, base[id])
			} else {
				out = append(out, dc.bools[int(id)-baseN])
			}
		}
		return out, nil
	case vector.UInt8:
		base := col.Data().([]uint8)
		out := make([]uint8, 0, len(live))
		for _, id := range live {
			if int(id) < baseN {
				out = append(out, base[id])
			} else {
				out = append(out, dc.u8s[int(id)-baseN])
			}
		}
		return out, nil
	case vector.UInt16:
		base := col.Data().([]uint16)
		out := make([]uint16, 0, len(live))
		for _, id := range live {
			if int(id) < baseN {
				out = append(out, base[id])
			} else {
				out = append(out, dc.u16s[int(id)-baseN])
			}
		}
		return out, nil
	case vector.Int32:
		base := col.Data().([]int32)
		out := make([]int32, 0, len(live))
		for _, id := range live {
			if int(id) < baseN {
				out = append(out, base[id])
			} else {
				out = append(out, dc.i32s[int(id)-baseN])
			}
		}
		return out, nil
	case vector.Int64:
		base := col.Data().([]int64)
		out := make([]int64, 0, len(live))
		for _, id := range live {
			if int(id) < baseN {
				out = append(out, base[id])
			} else {
				out = append(out, dc.i64s[int(id)-baseN])
			}
		}
		return out, nil
	case vector.Float64:
		base := col.Data().([]float64)
		out := make([]float64, 0, len(live))
		for _, id := range live {
			if int(id) < baseN {
				out = append(out, base[id])
			} else {
				out = append(out, dc.f64s[int(id)-baseN])
			}
		}
		return out, nil
	case vector.String:
		base := col.Data().([]string)
		out := make([]string, 0, len(live))
		for _, id := range live {
			if int(id) < baseN {
				out = append(out, base[id])
			} else {
				out = append(out, dc.strs[int(id)-baseN])
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("delta: unsupported physical type %v", dc.physical)
}

// Checkpoint appends the insert delta as one new in-memory base fragment
// per column and clears it. Row ids are preserved: delta row baseN+j simply
// becomes base row baseN+j, so the deletion list and any materialized join
// indices stay valid. done=false is returned without changes when a
// dictionary has outgrown its column's code width (see Parts). Disk-backed
// tables checkpoint through core.Database.Checkpoint instead, which routes
// the same Parts into a ColumnBM write-back so the rows survive restarts.
func (s *Store) Checkpoint() (done bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts, done, err := partsFrom(s.table.Cols, s.ins, s.nIns)
	if err != nil || !done || parts == nil {
		return done, err
	}
	if err := s.table.AppendFragment(parts); err != nil {
		return false, err
	}
	s.clearInsertsLocked(s.nIns)
	return true, nil
}
