// Package colstore implements the vertically fragmented storage layer the
// X100 engine runs on: MonetDB-style BAT[void,T] columns.
//
// Each table is a set of equally long typed columns; the head (oid) column
// is "void" — a densely ascending row id starting at 0 that is never stored
// (paper Section 3.3). Every table therefore has a virtual #rowId column,
// which the Fetch1Join operator uses for positional fetches.
//
// A column is a sequence of Fragments: contiguous runs of physical values.
// Memory-resident columns are a single in-memory fragment (a typed slice);
// disk-backed columns attached from a ColumnBM chunk store are one fragment
// per compressed chunk, decompressed on demand through a FragReader that
// holds at most one materialized fragment at a time — the paper's Figure 5
// split between the X100 engine and the buffer-managed ColumnBM store.
//
// String columns may be stored as enumeration types (Section 4.3): a
// single-byte or two-byte integer code per row referring to the #rowId of a
// mapping table (the dictionary). The scan layer exposes the codes, and the
// plan builder inserts a Fetch1Join against the dictionary to rehydrate the
// original values — exactly as MonetDB/X100 "automatically adds a Fetch1Join
// operation" for enum columns.
package colstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"x100/internal/vector"
)

// Fragment is one contiguous run of a column's physical values.
type Fragment interface {
	// Rows returns the number of values in the fragment.
	Rows() int
	// Materialize returns the fragment's values as a typed slice of the
	// column's physical type. When buf is a slice of the right type with
	// sufficient capacity it may be reused as the destination. scratch
	// reports ownership: true means the returned slice is caller-owned (a
	// decode buffer, safe to pass back as buf for a later Materialize);
	// false means it aliases the fragment's own immutable storage and must
	// never be written to or reused as a decode buffer.
	Materialize(buf any) (data any, scratch bool, err error)
}

// CloneableFragment is implemented by fragments that carry mutable
// attach-time state (merged-dictionary remaps). Copy-on-write column
// updates clone such fragments so the storage layer can rebuild that state
// for the new column generation without disturbing readers that captured
// the previous one.
type CloneableFragment interface {
	CloneFragment() Fragment
}

// memFragment is a memory-resident fragment: a typed slice.
type memFragment struct {
	data any
	rows int
}

func (f *memFragment) Rows() int { return f.rows }

func (f *memFragment) Materialize(any) (any, bool, error) { return f.data, false, nil }

// MemFragment wraps a typed slice as an in-memory fragment.
func MemFragment(data any) Fragment {
	return &memFragment{data: data, rows: sliceLen(data)}
}

func sliceLen(data any) int {
	return vector.FromAny(vector.Unknown, data).Len()
}

// Column is one vertical fragment sequence: all values of one attribute.
// Base fragments are treated as immutable; updates are handled by the
// delta package layered on top.
type Column struct {
	Name string
	// Typ is the logical type visible to queries (String for enum columns).
	Typ vector.Type
	// Dict is non-nil for enumeration-typed columns.
	Dict *Dict

	// phys is the physical storage type (the code type for enum columns).
	phys vector.Type
	// mdict is the table-level merged dictionary of a dict-compressed (but
	// not enum) string column, built at attach time when every chunk is
	// dict-coded and the merged cardinality is small enough. The column's
	// physical type stays String — writes and reorganization are untouched —
	// but scans can read globally comparable codes (mdictPhys wide) through
	// FragReader.CodeVector and decode strings only for surviving rows.
	mdict     *Dict
	mdictPhys vector.Type
	// zones is the disk column's chunk zone map (one range per chunk,
	// from the manifest's per-chunk min/max), nil when it has none.
	zones *ZoneMap
	// frags are the base fragments; starts[i] is the first global row of
	// fragment i, starts[len(frags)] == n.
	frags  []Fragment
	starts []int
	n      int

	// pinned caches the full materialized column for random-access callers
	// (fetch joins, baseline engines, index builds). Memory-resident
	// columns are born pinned; disk-backed columns pin lazily. The atomic
	// pointer makes the read side race-free; materialization itself is
	// serialized by pinMu.
	pinned atomic.Pointer[any]
}

// pinMu serializes lazy full-column materialization.
var pinMu sync.Mutex

// NewFragColumn builds a fragment-backed column. phys is the physical
// storage type (the code type for enum columns, the logical type's
// Physical() otherwise).
func NewFragColumn(name string, typ vector.Type, dict *Dict, phys vector.Type, frags []Fragment) *Column {
	c := &Column{Name: name, Typ: typ, Dict: dict, phys: phys}
	c.setFrags(frags)
	return c
}

func (c *Column) setFrags(frags []Fragment) {
	c.frags = frags
	c.starts = make([]int, len(frags)+1)
	n := 0
	for i, f := range frags {
		c.starts[i] = n
		n += f.Rows()
	}
	c.starts[len(frags)] = n
	c.n = n
	c.pinned.Store(nil)
}

// withMoreFrags returns a new column equal to c plus the given base
// fragments appended — the copy-on-write append path. The receiver is left
// untouched, so operators that captured it (a scan pinned to its
// pre-checkpoint view) keep reading a consistent fragment sequence. Old
// fragments that carry mutable attach-time state (merged-dictionary remaps)
// are cloned so rebuilding that state for the new column cannot disturb
// readers of the old one. The merged-dictionary view itself is dropped: a
// checkpoint-appended fragment carries its own chunk dictionaries (or
// none), so the attach-time global code domain no longer covers the column
// until the storage layer refreshes it. The new column takes zones as its
// chunk zone map.
func (c *Column) withMoreFrags(zones *ZoneMap, extra ...Fragment) *Column {
	frags := make([]Fragment, 0, len(c.frags)+len(extra))
	for _, f := range c.frags {
		if cf, ok := f.(CloneableFragment); ok {
			f = cf.CloneFragment()
		}
		frags = append(frags, f)
	}
	frags = append(frags, extra...)
	nc := &Column{Name: c.Name, Typ: c.Typ, Dict: c.Dict, phys: c.phys, zones: zones}
	nc.setFrags(frags)
	return nc
}

// SetZoneMap installs the column's chunk zone map. The storage layer calls
// it at attach time, before the column is published.
func (c *Column) SetZoneMap(z *ZoneMap) { c.zones = z }

// ZoneMap returns the column's chunk zone map, or nil.
func (c *Column) ZoneMap() *ZoneMap { return c.zones }

// NumFrags returns the number of base fragments.
func (c *Column) NumFrags() int { return len(c.frags) }

// Frag returns the i-th fragment.
func (c *Column) Frag(i int) Fragment { return c.frags[i] }

// FragStart returns the first global row of fragment i; FragStart(NumFrags())
// is the column length.
func (c *Column) FragStart(i int) int { return c.starts[i] }

// fragIndex returns the index of the fragment containing global row i.
func (c *Column) fragIndex(row int) int {
	// sort.Search finds the first start > row; the owning fragment is one
	// earlier.
	return sort.SearchInts(c.starts[1:], row+1)
}

// FragSpan returns the global row range [lo, hi) of the fragment containing
// row.
func (c *Column) FragSpan(row int) (int, int) {
	i := c.fragIndex(row)
	return c.starts[i], c.starts[i+1]
}

// vecType is the type tag carried by vectors over this column's physical
// data: the code type for enum columns, the logical type otherwise.
func (c *Column) vecType() vector.Type {
	if c.Dict != nil {
		return c.phys
	}
	return c.Typ
}

// Dict is the mapping table of an enumeration column: code -> value. The
// paper enum-compresses any small-domain column — Table 5 shows the float
// columns l_discount, l_tax and l_quantity stored as single-byte enums — so
// dictionaries hold either strings or float64 values.
//
// Dictionaries are append-only and internally synchronized: Code/CodeF64
// may insert new values while concurrent scans decode existing codes.
// Concurrent readers must capture the value array through Strings/Floats
// (or go through Lookup/Len/decoded) instead of reading the exported
// fields directly — a captured slice header stays valid forever because
// existing entries are never rewritten, only appended past the captured
// length.
type Dict struct {
	Typ    vector.Type // String or Float64
	Values []string
	F64s   []float64
	// Sorted reports that Values is in ascending byte order, making codes
	// order-isomorphic to the strings they encode: range predicates then
	// translate exactly into code ranges. Merged dictionaries built at
	// attach time are sorted; insertion-ordered enum dictionaries are not,
	// and a sorted dictionary loses the property as soon as a new value is
	// appended (codes are positional and must stay stable).
	Sorted bool
	sindex map[string]int
	findex map[float64]int

	mu sync.Mutex
}

// NewSortedDict builds a string dictionary over values, which must be in
// strictly ascending order (codes are the positions).
func NewSortedDict(values []string) *Dict {
	d := &Dict{Typ: vector.String, Values: values, Sorted: true, sindex: make(map[string]int, len(values))}
	for i, v := range values {
		d.sindex[v] = i
	}
	return d
}

// NewDict creates an empty string dictionary.
func NewDict() *Dict {
	return &Dict{Typ: vector.String, sindex: make(map[string]int)}
}

// NewF64Dict creates an empty float dictionary.
func NewF64Dict() *Dict {
	return &Dict{Typ: vector.Float64, findex: make(map[float64]int)}
}

// Code returns the code for s, inserting it if new. Inserting into a
// sorted dictionary appends (codes are positional and stay stable) and
// clears the Sorted property.
func (d *Dict) Code(s string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.sindex[s]; ok {
		return c
	}
	c := len(d.Values)
	d.Values = append(d.Values, s)
	d.sindex[s] = c
	if c > 0 && d.Sorted && d.Values[c-1] >= s {
		d.Sorted = false
	}
	return c
}

// SearchValue returns the number of dictionary values byte-wise less than
// s (binary search; only meaningful on sorted dictionaries).
func (d *Dict) SearchValue(s string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return sort.SearchStrings(d.Values, s)
}

// CodeF64 returns the code for f, inserting it if new.
func (d *Dict) CodeF64(f float64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.findex[f]; ok {
		return c
	}
	c := len(d.F64s)
	d.F64s = append(d.F64s, f)
	d.findex[f] = c
	return c
}

// Lookup returns the code for s without inserting.
func (d *Dict) Lookup(s string) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.sindex[s]
	return c, ok
}

// Len returns the number of distinct values.
func (d *Dict) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Typ == vector.Float64 {
		return len(d.F64s)
	}
	return len(d.Values)
}

// Strings captures the current string value array. The returned slice is
// immutable (appends never rewrite existing entries, and growth reallocates)
// and covers every code issued before the call, so it is safe to index from
// concurrent scans while writers keep inserting.
func (d *Dict) Strings() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Values
}

// Floats is the float64 counterpart of Strings.
func (d *Dict) Floats() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.F64s
}

// PhysType returns the physical storage type of the column (the code type
// for enum columns).
func (c *Column) PhysType() vector.Type { return c.phys }

// SetMergedDict attaches a table-level merged dictionary view: every base
// fragment must be able to serve codes into d (CodeMaterializer), phys is
// the code width (UInt8/UInt16). The storage layer calls it at attach time;
// appending fragments drops the view (new fragments cannot be assumed to
// share the domain).
func (c *Column) SetMergedDict(d *Dict, phys vector.Type) {
	c.mdict, c.mdictPhys = d, phys
}

// MergedDict returns the table-level merged dictionary of a dict-compressed
// string column, or nil.
func (c *Column) MergedDict() *Dict { return c.mdict }

// CodeDomain returns the column's shared string dictionary and code width
// when the column can serve globally comparable dictionary codes: enum
// string columns (insertion-ordered dictionary) and merged-dict columns
// (sorted dictionary). ok=false for every other column, including float
// enums.
func (c *Column) CodeDomain() (d *Dict, phys vector.Type, ok bool) {
	if c.Dict != nil && c.Dict.Typ == vector.String {
		return c.Dict, c.phys, true
	}
	if c.mdict != nil {
		return c.mdict, c.mdictPhys, true
	}
	return nil, vector.Unknown, false
}

// codePhys is the code vector type of the column's code domain.
func (c *Column) codePhys() vector.Type {
	if c.Dict != nil {
		return c.phys
	}
	return c.mdictPhys
}

// Pinned reports whether the column currently caches a full materialized
// copy. Memory-resident columns are born pinned; for disk-backed columns
// this staying false is the observable guarantee that no consumer fell off
// the bounded-memory paths (FragReader for scans, FragLocator for
// positional fetches).
func (c *Column) Pinned() bool { return c.pinned.Load() != nil }

// IsEnum reports whether the column is enumeration-compressed.
func (c *Column) IsEnum() bool { return c.Dict != nil }

// Len returns the number of rows in the base fragments.
func (c *Column) Len() int { return c.n }

// VectorAt returns a zero-copy view of rows [lo:hi) of the pinned physical
// data. For enum columns the returned vector contains codes. Disk-backed
// columns are pinned (fully materialized) on first use; sequential scans
// use a FragReader instead to stay within bounded memory.
func (c *Column) VectorAt(lo, hi int) *vector.Vector {
	return vector.FromAny(c.vecType(), c.Data()).Slice(lo, hi)
}

// Pin materializes the full column (concatenating all fragments) and caches
// it for random-access callers. The baseline engines' positional fetches
// pin at construction, so the cache is read-only by the time worker
// goroutines run; the vectorized Fetch1Join gathers through a FragLocator
// instead.
func (c *Column) Pin() (any, error) {
	if d := c.pinned.Load(); d != nil {
		return *d, nil
	}
	pinMu.Lock()
	defer pinMu.Unlock()
	if d := c.pinned.Load(); d != nil {
		return *d, nil
	}
	if len(c.frags) == 1 {
		data, _, err := c.frags[0].Materialize(nil)
		if err != nil {
			return nil, err
		}
		c.pinned.Store(&data)
		return data, nil
	}
	var dst any
	for i, f := range c.frags {
		part, _, err := f.Materialize(nil)
		if err != nil {
			return nil, fmt.Errorf("colstore: pin %s fragment %d: %w", c.Name, i, err)
		}
		dst = appendAny(dst, part)
	}
	if dst == nil {
		dst = emptySlice(c.vecType())
	}
	c.pinned.Store(&dst)
	return dst, nil
}

// Data returns the full physical slice (for baseline engines and other
// random-access callers that operate on whole columns). It pins disk-backed
// columns, panicking on I/O errors — error-aware callers use Pin.
func (c *Column) Data() any {
	d, err := c.Pin()
	if err != nil {
		panic(fmt.Sprintf("colstore: pin column %s: %v", c.Name, err))
	}
	return d
}

func appendAny(dst, src any) any {
	if dst == nil {
		switch s := src.(type) {
		case []bool:
			return append([]bool(nil), s...)
		case []uint8:
			return append([]uint8(nil), s...)
		case []uint16:
			return append([]uint16(nil), s...)
		case []int32:
			return append([]int32(nil), s...)
		case []int64:
			return append([]int64(nil), s...)
		case []float64:
			return append([]float64(nil), s...)
		case []string:
			return append([]string(nil), s...)
		}
		panic(fmt.Sprintf("colstore: unsupported fragment payload %T", src))
	}
	switch d := dst.(type) {
	case []bool:
		return append(d, src.([]bool)...)
	case []uint8:
		return append(d, src.([]uint8)...)
	case []uint16:
		return append(d, src.([]uint16)...)
	case []int32:
		return append(d, src.([]int32)...)
	case []int64:
		return append(d, src.([]int64)...)
	case []float64:
		return append(d, src.([]float64)...)
	case []string:
		return append(d, src.([]string)...)
	}
	panic(fmt.Sprintf("colstore: unsupported fragment payload %T", dst))
}

func emptySlice(t vector.Type) any {
	switch t.Physical() {
	case vector.Bool:
		return []bool{}
	case vector.UInt8:
		return []uint8{}
	case vector.UInt16:
		return []uint16{}
	case vector.Int32:
		return []int32{}
	case vector.Int64:
		return []int64{}
	case vector.Float64:
		return []float64{}
	default:
		return []string{}
	}
}

// DecodedValue returns the logical value at row i, decoding enum codes
// (slow path for the tuple-at-a-time engine and tests; pins the column).
func (c *Column) DecodedValue(i int) any {
	switch d := c.Data().(type) {
	case []uint8:
		if c.Dict != nil {
			return c.Dict.decoded(int(d[i]))
		}
		return d[i]
	case []uint16:
		if c.Dict != nil {
			return c.Dict.decoded(int(d[i]))
		}
		return d[i]
	default:
		return vector.FromAny(c.Typ, d).Value(i)
	}
}

func (d *Dict) decoded(code int) any {
	if d.Typ == vector.Float64 {
		return d.Floats()[code]
	}
	return d.Strings()[code]
}

// Bytes returns the in-memory storage footprint of the column, including
// the dictionary payload for enum columns (used to reproduce the
// storage-size comparison of Section 5). Pins disk-backed columns.
func (c *Column) Bytes() int {
	b := vector.FromAny(c.PhysType(), c.Data()).Bytes()
	if c.Dict != nil {
		for _, v := range c.Dict.Strings() {
			b += len(v) + 16
		}
		b += 8 * len(c.Dict.Floats())
	}
	return b
}

// Table is a named collection of equally long columns.
type Table struct {
	Name string
	Cols []*Column
	N    int
	// ChunkRows is the uniform fragment size of disk-backed tables (rows
	// per ColumnBM chunk; the last chunk may be shorter). Zero for
	// memory-resident tables. Parallel scans align morsels to this grid so
	// workers never split a chunk.
	ChunkRows int
}

// NewTable creates an empty table.
func NewTable(name string) *Table { return &Table{Name: name} }

// Schema returns the logical schema of the table.
func (t *Table) Schema() vector.Schema {
	s := make(vector.Schema, len(t.Cols))
	for i, c := range t.Cols {
		s[i] = vector.Field{Name: c.Name, Type: c.Typ}
	}
	return s
}

// Col returns the named column, or nil.
func (t *Table) Col(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// AddColumn attaches a fully built typed slice as a column. The slice
// length must match existing columns.
func (t *Table) AddColumn(name string, typ vector.Type, data any) error {
	n := vector.FromAny(typ.Physical(), data).Len()
	if len(t.Cols) > 0 && n != t.N {
		return fmt.Errorf("colstore: column %s has %d rows, table %s has %d", name, n, t.Name, t.N)
	}
	c := NewFragColumn(name, typ, nil, typ.Physical(), []Fragment{&memFragment{data: data, rows: n}})
	c.pinned.Store(&data)
	t.Cols = append(t.Cols, c)
	t.N = n
	return nil
}

// AttachColumn attaches a pre-built (e.g. fragment-backed) column. The
// column length must match existing columns.
func (t *Table) AttachColumn(c *Column) error {
	if len(t.Cols) > 0 && c.Len() != t.N {
		return fmt.Errorf("colstore: column %s has %d rows, table %s has %d", c.Name, c.Len(), t.Name, t.N)
	}
	t.Cols = append(t.Cols, c)
	t.N = c.Len()
	return nil
}

// AppendFragment appends one in-memory fragment per column (typed slices of
// each column's physical type, equal lengths) as new base fragments — the
// delta checkpoint path. Row ids of existing rows are unchanged. The append
// is copy-on-write: t.Cols is replaced with new column objects and the old
// ones stay valid, so readers that captured the previous column set keep a
// consistent pre-checkpoint view.
func (t *Table) AppendFragment(parts []any) error {
	if len(parts) != len(t.Cols) {
		return fmt.Errorf("colstore: append fragment has %d columns, table %s has %d", len(parts), t.Name, len(t.Cols))
	}
	n := -1
	for i, c := range t.Cols {
		k := sliceLen(parts[i])
		if n < 0 {
			n = k
		} else if k != n {
			return fmt.Errorf("colstore: append fragment column %s has %d rows, want %d", c.Name, k, n)
		}
	}
	if n == 0 {
		return nil
	}
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = c.withMoreFrags(nil, &memFragment{data: parts[i], rows: n})
	}
	t.Cols = cols
	t.N += n
	return nil
}

// ColumnAppend is one column's share of an AppendFragments call: the new
// base fragments, and the chunk zone map of the whole grown column (nil
// when it has none).
type ColumnAppend struct {
	Frags []Fragment
	Zones *ZoneMap
}

// AppendFragments appends pre-built fragments (one ColumnAppend per column,
// equal total rows — e.g. the freshly written ColumnBM chunks of a
// checkpoint write-back) as new base fragments. Row ids of existing rows
// are unchanged, and the append is copy-on-write exactly like
// AppendFragment.
func (t *Table) AppendFragments(perCol []ColumnAppend) error {
	if len(perCol) != len(t.Cols) {
		return fmt.Errorf("colstore: append has %d columns, table %s has %d", len(perCol), t.Name, len(t.Cols))
	}
	n := -1
	for i, c := range t.Cols {
		k := 0
		for _, f := range perCol[i].Frags {
			k += f.Rows()
		}
		if n < 0 {
			n = k
		} else if k != n {
			return fmt.Errorf("colstore: append column %s has %d rows, want %d", c.Name, k, n)
		}
	}
	if n == 0 {
		return nil
	}
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = c.withMoreFrags(perCol[i].Zones, perCol[i].Frags...)
	}
	t.Cols = cols
	t.N += n
	return nil
}

// AddEnumColumn attaches a string column stored as enumeration codes. It
// chooses uint8 codes when the dictionary fits 256 values, else uint16; more
// than 65536 distinct values is an error (store such columns uncompressed).
func (t *Table) AddEnumColumn(name string, values []string) error {
	if len(t.Cols) > 0 && len(values) != t.N {
		return fmt.Errorf("colstore: column %s has %d rows, table %s has %d", name, len(values), t.Name, t.N)
	}
	dict := NewDict()
	codes := make([]int, len(values))
	for i, v := range values {
		codes[i] = dict.Code(v)
	}
	col := &Column{Name: name, Typ: vector.String, Dict: dict}
	if err := col.packCodes(codes, dict.Len()); err != nil {
		return fmt.Errorf("colstore: column %s: %w", name, err)
	}
	t.Cols = append(t.Cols, col)
	t.N = len(values)
	return nil
}

// AddEnumF64Column attaches a float column stored as enumeration codes (the
// paper stores l_discount, l_tax and l_quantity this way at SF=1).
func (t *Table) AddEnumF64Column(name string, values []float64) error {
	if len(t.Cols) > 0 && len(values) != t.N {
		return fmt.Errorf("colstore: column %s has %d rows, table %s has %d", name, len(values), t.Name, t.N)
	}
	dict := NewF64Dict()
	codes := make([]int, len(values))
	for i, v := range values {
		codes[i] = dict.CodeF64(v)
	}
	col := &Column{Name: name, Typ: vector.Float64, Dict: dict}
	if err := col.packCodes(codes, dict.Len()); err != nil {
		return fmt.Errorf("colstore: column %s: %w", name, err)
	}
	t.Cols = append(t.Cols, col)
	t.N = len(values)
	return nil
}

func (c *Column) packCodes(codes []int, distinct int) error {
	var data any
	switch {
	case distinct <= 256:
		c8 := make([]uint8, len(codes))
		for i, x := range codes {
			c8[i] = uint8(x)
		}
		data = c8
		c.phys = vector.UInt8
	case distinct <= 65536:
		c16 := make([]uint16, len(codes))
		for i, x := range codes {
			c16[i] = uint16(x)
		}
		data = c16
		c.phys = vector.UInt16
	default:
		return fmt.Errorf("%d distinct values, too many for enumeration", distinct)
	}
	c.setFrags([]Fragment{&memFragment{data: data, rows: len(codes)}})
	c.pinned.Store(&data)
	return nil
}

// Bytes returns the total storage footprint of the table.
func (t *Table) Bytes() int {
	total := 0
	for _, c := range t.Cols {
		total += c.Bytes()
	}
	return total
}

// Catalog maps table names to tables: the MonetDB storage manager role in
// the paper's Figure 5. It is internally synchronized: background
// checkpoints and compactions re-register dictionary tables while queries
// resolve names.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Add registers a table, replacing any previous table of the same name.
func (c *Catalog) Add(t *Table) {
	c.mu.Lock()
	c.tables[t.Name] = t
	c.mu.Unlock()
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("colstore: unknown table %q", name)
	}
	return t, nil
}

// Names returns the registered table names (unordered).
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}
