// Package sindex implements the two index structures of Section 4.3/5 of
// the paper:
//
//   - Summary indices: coarse-granularity sparse indices over (almost)
//     sorted columns. Every granule records the running maximum of the
//     column so far and the reversely running minimum from that point on.
//     Range predicates use them to derive #rowId bounds without touching
//     the column. Because vertical fragments are immutable, these indices
//     need no maintenance.
//
//   - Join indices over foreign-key paths: for each row of the referencing
//     table, the #rowId of the matching row in the referenced table
//     (Fetch1Join input); and the inverse — for each referenced row, the
//     contiguous [start,end) range of referencing rows when the referencing
//     table is clustered (FetchNJoin input).
package sindex

import (
	"fmt"

	"x100/internal/primitives"
)

// DefaultGranule is the default summary-index granularity (the paper's
// default size is 1000 entries taken at fixed intervals).
const DefaultGranule = 1024

// Summary is a sparse min/max index over one numeric column.
type Summary[T primitives.Ordered] struct {
	Granule int
	N       int
	// RunMax[i] = max(col[0 : i*Granule]); RunMax[0] is unused.
	RunMax []T
	// RevMin[i] = min(col[i*Granule : N]).
	RevMin []T
}

// BuildSummary scans the column once and builds the index.
func BuildSummary[T primitives.Ordered](col []T, granule int) *Summary[T] {
	if granule <= 0 {
		granule = DefaultGranule
	}
	n := len(col)
	ng := (n + granule - 1) / granule
	s := &Summary[T]{Granule: granule, N: n, RunMax: make([]T, ng+1), RevMin: make([]T, ng+1)}
	if n == 0 {
		return s
	}
	// One sweep takes each granule's max and min together, skipping NaN
	// (x != x) unless the granule holds nothing else. On ties the max keeps
	// the first value and the min the last, as a forward running max and a
	// backward running min do.
	for g := 0; g < ng; g++ {
		part := col[g*granule : min((g+1)*granule, n)]
		hi, lo := part[0], part[0]
		for _, v := range part[1:] {
			if v > hi || hi != hi {
				hi = v
			}
			if v <= lo || lo != lo {
				lo = v
			}
		}
		s.RunMax[g+1], s.RevMin[g] = hi, lo
	}
	// Prefix max and suffix min over the granules. Seeding them with the
	// column's first and last value keeps the behaviour of a running fold
	// whose start is NaN: every later comparison fails, so NaN sticks.
	runMax := col[0]
	for g := 1; g <= ng; g++ {
		if s.RunMax[g] > runMax {
			runMax = s.RunMax[g]
		}
		s.RunMax[g] = runMax
	}
	revMin := col[n-1]
	for g := ng - 1; g >= 0; g-- {
		if s.RevMin[g] < revMin {
			revMin = s.RevMin[g]
		}
		s.RevMin[g] = revMin
	}
	return s
}

// Bounds returns a conservative row id range [lo, hi) outside of which no
// row can satisfy lo <= col[row] <= hi. Pass hasLo/hasHi=false for
// one-sided predicates. The bounds are sound for any column content and
// tight for clustered (almost sorted) columns.
func (s *Summary[T]) Bounds(loVal T, hasLo bool, hiVal T, hasHi bool) (lo, hi int) {
	lo, hi = 0, s.N
	if s.N == 0 {
		return 0, 0
	}
	ng := (s.N + s.Granule - 1) / s.Granule
	if hasLo {
		// Rows in granules whose running max is still < loVal cannot match.
		g := 0
		for g < ng && s.RunMax[g+1] < loVal {
			g++
		}
		lo = g * s.Granule
	}
	if hasHi {
		// Rows from the first granule whose reverse min is > hiVal onwards
		// cannot match.
		g := ng
		for g > 0 && s.RevMin[g-1] > hiVal {
			g--
		}
		hi = g * s.Granule
	}
	if lo > s.N {
		lo = s.N
	}
	if hi > s.N {
		hi = s.N
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// PruneFragments derives a conservative row id range [lo, hi) from
// per-fragment min/max bounds — the chunk-granularity analogue of
// Summary.Bounds for disk-backed columns whose ColumnBM chunks record
// their value range. starts has one entry per fragment plus the total row
// count; fragments with ok[i]==false have unknown bounds and are assumed
// to match. Because a scan range is contiguous, only a non-matching prefix
// and suffix can be pruned; interior gaps still pass through the full
// predicate downstream.
func PruneFragments[T primitives.Ordered](starts []int, mins, maxs []T, ok []bool, loVal T, hasLo bool, hiVal T, hasHi bool) (lo, hi int) {
	nf := len(mins)
	cannotMatch := func(i int) bool {
		return ok[i] && ((hasLo && maxs[i] < loVal) || (hasHi && mins[i] > hiVal))
	}
	first := 0
	for first < nf && cannotMatch(first) {
		first++
	}
	last := nf
	for last > first && cannotMatch(last-1) {
		last--
	}
	return starts[first], starts[last]
}

// JoinIndex maps each row of the referencing (fact) table to the #rowId of
// its match in the referenced (dimension) table. It is the input of
// Fetch1Join.
type JoinIndex struct {
	From, To string // table names, for the catalog
	RowIDs   []int32
}

// BuildJoinIndex resolves foreign keys to referenced row ids given the
// referenced table's key column. Keys must be unique in ref.
func BuildJoinIndex[K comparable](from, to string, fk []K, refKey []K) (*JoinIndex, error) {
	pos := make(map[K]int32, len(refKey))
	for i, k := range refKey {
		if _, dup := pos[k]; dup {
			return nil, fmt.Errorf("sindex: duplicate key %v in referenced table %s", k, to)
		}
		pos[k] = int32(i)
	}
	ids := make([]int32, len(fk))
	for i, k := range fk {
		p, ok := pos[k]
		if !ok {
			return nil, fmt.Errorf("sindex: foreign key %v from %s has no match in %s", k, from, to)
		}
		ids[i] = p
	}
	return &JoinIndex{From: from, To: to, RowIDs: ids}, nil
}

// RangeIndex is the inverse join index for clustered tables: referencing
// rows of referenced row r occupy [Starts[r], Starts[r+1]). It is the input
// of FetchNJoin (e.g. orders -> lineitem when lineitem is clustered by
// order).
type RangeIndex struct {
	From, To string
	Starts   []int32
}

// BuildRangeIndex inverts a join index, requiring the referencing rows of
// each referenced row to be contiguous and in referenced-row order (i.e. the
// fact table is clustered with the dimension, as the paper keeps lineitem
// clustered with orders). A row id outside [0, refN) is an error: the join
// index was built against another row-id space of the referenced table.
func BuildRangeIndex(ji *JoinIndex, refN int) (*RangeIndex, error) {
	starts := make([]int32, refN+1)
	prev := int32(-1)
	for i, r := range ji.RowIDs {
		if r < 0 || int(r) >= refN {
			return nil, fmt.Errorf("sindex: table %s row %d references row %d of %s, which has %d rows", ji.From, i, r, ji.To, refN)
		}
		if r < prev {
			return nil, fmt.Errorf("sindex: table %s is not clustered with %s at row %d", ji.From, ji.To, i)
		}
		if r != prev {
			for x := prev + 1; x <= r; x++ {
				starts[x] = int32(i)
			}
			prev = r
		}
	}
	for x := prev + 1; x <= int32(refN); x++ {
		starts[x] = int32(len(ji.RowIDs))
	}
	return &RangeIndex{From: ji.From, To: ji.To, Starts: starts}, nil
}

// Range returns the referencing row range of referenced row r.
func (ri *RangeIndex) Range(r int32) (lo, hi int32) {
	return ri.Starts[r], ri.Starts[r+1]
}
