// Package sindex implements the summary indices of Section 4.3 of the
// paper: coarse-granularity sparse indices over (almost) sorted columns.
// Every granule records the running maximum of the column so far and the
// reversely running minimum from that point on. Range predicates use them
// to derive #rowId bounds without touching the column. Because vertical
// fragments are immutable, these indices need no maintenance.
// PruneFragments applies the same bounds to per-fragment min/max. Join
// indices are ordinary int32 row-id columns of the referencing tables
// (core.Database.RegisterJoinIndex).
package sindex

import "x100/internal/primitives"

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
