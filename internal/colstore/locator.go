package colstore

import (
	"fmt"

	"x100/internal/vector"
)

// DefaultLocatorFrags is the decoded-fragment LRU capacity of a FragLocator
// when the caller does not choose one: enough that the clustered access
// patterns of positional fetch joins (join indices point at runs of nearby
// rows, enum dictionaries are a single fragment) stay cache-resident, small
// enough that the peak decoded footprint of a fetch operator stays a few
// chunks per column.
const DefaultLocatorFrags = 4

// FragLocator provides bounded-memory random access to a column: row ids
// map to (fragment, offset) by binary search over the fragment grid, and at
// most `cap` decoded fragments are held in a small MRU list. It is the
// non-pinning counterpart of FragReader for positional operators
// (Fetch1Join): disk-backed columns decode one chunk at a time through the ColumnBM buffer pool instead of
// materializing the whole column, so fetch joins against tables larger
// than RAM run within one-decoded-chunk-per-column (plus the LRU cap).
//
// A locator is single-goroutine, like FragReader; parallel plans build one
// per worker operator. Entries over in-memory fragments alias the
// fragment's own storage and cost no memory; entries over disk fragments
// own their decode buffer, which is recycled on eviction.
type FragLocator struct {
	col     *Column
	cap     int
	entries []locEntry // MRU order: entries[0] is the most recent
}

type locEntry struct {
	base, end int // global row range [base, end)
	data      any // materialized values
	scratch   bool
}

// Locator creates a fragment locator over the column. capacity is the
// decoded-fragment LRU size; <= 0 selects DefaultLocatorFrags.
func (c *Column) Locator(capacity int) *FragLocator {
	if capacity <= 0 {
		capacity = DefaultLocatorFrags
	}
	return &FragLocator{col: c, cap: capacity}
}

// Cached returns the number of decoded fragments currently held (always
// <= the locator's capacity — the memory bound fetch operators rely on).
func (l *FragLocator) Cached() int { return len(l.entries) }

// entryFor returns the cached entry of the fragment containing global row
// id, materializing (and possibly evicting) as needed.
func (l *FragLocator) entryFor(id int) (*locEntry, error) {
	for i := range l.entries {
		e := &l.entries[i]
		if id >= e.base && id < e.end {
			if i > 0 {
				hit := *e
				copy(l.entries[1:i+1], l.entries[:i])
				l.entries[0] = hit
			}
			return &l.entries[0], nil
		}
	}
	c := l.col
	if id < 0 || id >= c.n {
		return nil, fmt.Errorf("colstore: column %s: row id %d out of range [0,%d)", c.Name, id, c.n)
	}
	fi := c.fragIndex(id)
	// Reuse the evicted entry's decode buffer (if it owned one) for the
	// incoming fragment, so steady-state misses allocate nothing.
	var buf any
	if len(l.entries) >= l.cap {
		last := l.entries[len(l.entries)-1]
		if last.scratch {
			buf = last.data
		}
		l.entries = l.entries[:len(l.entries)-1]
	}
	data, scratch, err := c.frags[fi].Materialize(buf)
	if err != nil {
		return nil, fmt.Errorf("colstore: column %s fragment %d: %w", c.Name, fi, err)
	}
	l.entries = append(l.entries, locEntry{})
	copy(l.entries[1:], l.entries[:len(l.entries)-1])
	l.entries[0] = locEntry{base: c.starts[fi], end: c.starts[fi+1], data: data, scratch: scratch}
	return &l.entries[0], nil
}

// Gather copies the column's logical values at the given row ids into dst
// (enum codes decode through the dictionary), for the live positions: dst
// and ids are indexed by sel when non-nil, else by [0,n). It is the
// chunk-at-a-time replacement for the pinned gather of the fetch
// operators.
func (l *FragLocator) Gather(dst *vector.Vector, ids []int32, sel []int32, n int) error {
	c := l.col
	if c.Dict != nil {
		if c.Dict.Typ == vector.Float64 {
			return gatherEnumVia(l, dst.Float64s(), c.Dict.Floats(), ids, sel, n)
		}
		return gatherEnumVia(l, dst.Strings(), c.Dict.Strings(), ids, sel, n)
	}
	switch c.Typ.Physical() {
	case vector.Bool:
		return gatherVia(l, dst.Bools(), ids, sel, n)
	case vector.UInt8:
		return gatherVia(l, dst.UInt8s(), ids, sel, n)
	case vector.UInt16:
		return gatherVia(l, dst.UInt16s(), ids, sel, n)
	case vector.Int32:
		return gatherVia(l, dst.Int32s(), ids, sel, n)
	case vector.Int64:
		return gatherVia(l, dst.Int64s(), ids, sel, n)
	case vector.Float64:
		return gatherVia(l, dst.Float64s(), ids, sel, n)
	case vector.String:
		return gatherVia(l, dst.Strings(), ids, sel, n)
	default:
		return fmt.Errorf("colstore: cannot gather %v column %s", c.Typ, c.Name)
	}
}

// gatherVia is the plain-column gather loop: it tracks the current
// fragment's slice and bounds, so runs of clustered row ids cost one bounds
// check per value and fragment switches go through the locator's LRU.
func gatherVia[T any](l *FragLocator, dst []T, ids []int32, sel []int32, n int) error {
	var cur []T
	lo, hi := 0, 0
	if sel != nil {
		for _, i := range sel {
			id := int(ids[i])
			if id < lo || id >= hi {
				e, err := l.entryFor(id)
				if err != nil {
					return err
				}
				cur, lo, hi = e.data.([]T), e.base, e.end
			}
			dst[i] = cur[id-lo]
		}
		return nil
	}
	for i := 0; i < n; i++ {
		id := int(ids[i])
		if id < lo || id >= hi {
			e, err := l.entryFor(id)
			if err != nil {
				return err
			}
			cur, lo, hi = e.data.([]T), e.base, e.end
		}
		dst[i] = cur[id-lo]
	}
	return nil
}

// gatherEnumVia is the enum gather: the double indirection
// dict[codes[rowid]] of the paper's map_fetch primitives, with the code
// fragment resolved through the locator.
func gatherEnumVia[T any](l *FragLocator, dst []T, dict []T, ids []int32, sel []int32, n int) error {
	switch l.col.phys {
	case vector.UInt8:
		return gatherCodesVia[T, uint8](l, dst, dict, ids, sel, n)
	case vector.UInt16:
		return gatherCodesVia[T, uint16](l, dst, dict, ids, sel, n)
	default:
		return fmt.Errorf("colstore: enum column %s has code type %v", l.col.Name, l.col.phys)
	}
}

func gatherCodesVia[T any, C uint8 | uint16](l *FragLocator, dst []T, dict []T, ids []int32, sel []int32, n int) error {
	var cur []C
	lo, hi := 0, 0
	if sel != nil {
		for _, i := range sel {
			id := int(ids[i])
			if id < lo || id >= hi {
				e, err := l.entryFor(id)
				if err != nil {
					return err
				}
				cur, lo, hi = e.data.([]C), e.base, e.end
			}
			dst[i] = dict[cur[id-lo]]
		}
		return nil
	}
	for i := 0; i < n; i++ {
		id := int(ids[i])
		if id < lo || id >= hi {
			e, err := l.entryFor(id)
			if err != nil {
				return err
			}
			cur, lo, hi = e.data.([]C), e.base, e.end
		}
		dst[i] = dict[cur[id-lo]]
	}
	return nil
}

// Value returns the boxed logical value at a row id, decoding enum codes
// (value-at-a-time path: delta-aware fetches).
func (l *FragLocator) Value(id int) (any, error) {
	e, err := l.entryFor(id)
	if err != nil {
		return nil, err
	}
	c := l.col
	if c.Dict != nil {
		code := 0
		switch d := e.data.(type) {
		case []uint8:
			code = int(d[id-e.base])
		case []uint16:
			code = int(d[id-e.base])
		default:
			return nil, fmt.Errorf("colstore: enum column %s has payload %T", c.Name, e.data)
		}
		return c.Dict.decoded(code), nil
	}
	return vector.FromAny(c.Typ, e.data).Value(id - e.base), nil
}
