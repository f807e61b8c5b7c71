package colstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"x100/internal/vector"
)

// DefaultGranule is the default number of rows per range of a zone map
// built with BuildZoneMap (the paper's summary indices take about 1000
// entries at fixed intervals).
const DefaultGranule = 1024

// ZoneMap is the min/max summary of one column — the summary index of the
// paper's Section 4.3. The column's rows are split into ranges, and each
// range records the minimum and maximum of its values. Prune turns a range
// predicate into #rowId bounds without touching the column: the leading
// ranges whose maximum lies below the predicate's lower bound, and the
// trailing ranges whose minimum lies above its upper bound, cannot match.
// Interior ranges are never skipped, because a scan range is contiguous.
// The bounds are sound for any column and tight for clustered ones.
//
// The values are held in one of three families: int64 (int32, date and
// int64 columns), float64, or string (byte-wise order, as the engine
// compares strings). A disk column's zone map holds the per-chunk min/max
// its manifest records, one range per chunk (NewZoneMap); BuildZoneMap
// summarizes any column at a chosen granule. A column generation never
// changes, so neither does its zone map.
type ZoneMap struct {
	// starts[i] is the first row of range i; the last entry is the row
	// count.
	starts []int
	// mins and maxs are []int64, []float64 or []string, one entry per
	// range; both nil when the column holds a NaN, which has no order (the
	// zone map then prunes nothing).
	mins, maxs any
	// granule is the rows per range BuildZoneMap was asked for; 0 for a
	// disk column's chunk zone map.
	granule int
}

// Summarize appends to mins and maxs the minimum and maximum of every
// rangeRows values of vals (the last range may be shorter). It is the one
// place per-range min/max is computed: the chunk writer records its result
// in the manifest, and BuildZoneMap summarizes columns with it. ok is false
// when vals holds a NaN: NaN is unordered, so a column holding one has no
// bounds.
func Summarize[T cmp.Ordered](mins, maxs, vals []T, rangeRows int) (_, _ []T, ok bool) {
	if f, isFloat := any(vals).([]float64); isFloat && slices.ContainsFunc(f, math.IsNaN) {
		return mins, maxs, false
	}
	for lo := 0; lo < len(vals); lo += rangeRows {
		mn, mx := minMax(vals[lo:min(lo+rangeRows, len(vals))])
		mins, maxs = append(mins, mn), append(maxs, mx)
	}
	return mins, maxs, true
}

// minMax returns the least and the greatest of a non-empty run of
// NaN-free values. It is kept out of line: inlined into Summarize's loop,
// the compiler spills the running min and max to the stack on every value.
//
//go:noinline
func minMax[T cmp.Ordered](part []T) (mn, mx T) {
	mn, mx = part[0], part[0]
	for _, v := range part[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// NewZoneMap builds a zone map over consecutive ranges of counts[i] rows
// whose values lie in [mins[i], maxs[i]]. The three slices must have equal
// lengths.
func NewZoneMap[T int64 | float64 | string](counts []int, mins, maxs []T) *ZoneMap {
	starts := make([]int, len(counts)+1)
	for i, n := range counts {
		starts[i+1] = starts[i] + n
	}
	return &ZoneMap{starts: starts, mins: mins, maxs: maxs}
}

// BuildZoneMap summarizes a column at granule rows per range (granule <= 0
// selects DefaultGranule); a range never spans two fragments. It streams
// the column through a FragReader, so a disk column is read one chunk at a
// time and never pinned. An enum column is summarized over its decoded
// values. A float column holding a NaN gets a zone map that prunes
// nothing. Bool columns have no zone map.
func BuildZoneMap(c *Column, granule int) (*ZoneMap, error) {
	if granule <= 0 {
		granule = DefaultGranule
	}
	switch c.Typ.Physical() {
	case vector.Int32:
		var mins32, maxs32 []int32
		return buildZoneMap(c, granule, func(v *vector.Vector, mins, maxs []int64) ([]int64, []int64, bool) {
			mins32, maxs32, _ = Summarize(mins32[:0], maxs32[:0], v.Int32s(), granule)
			for i := range mins32 {
				mins, maxs = append(mins, int64(mins32[i])), append(maxs, int64(maxs32[i]))
			}
			return mins, maxs, true
		})
	case vector.Int64:
		return buildZoneMap(c, granule, summarizer((*vector.Vector).Int64s, granule))
	case vector.Float64:
		if c.IsEnum() {
			return buildZoneMap(c, granule, decodeSummarizer(c.Dict.Floats(), granule))
		}
		return buildZoneMap(c, granule, summarizer((*vector.Vector).Float64s, granule))
	case vector.String:
		if c.IsEnum() {
			return buildZoneMap(c, granule, decodeSummarizer(c.Dict.Strings(), granule))
		}
		return buildZoneMap(c, granule, summarizer((*vector.Vector).Strings, granule))
	}
	return nil, fmt.Errorf("colstore: no zone map over %v column %s", c.Typ, c.Name)
}

// summarizerFunc appends the per-granule min/max of one fragment's vector to
// mins and maxs; ok is false when the fragment holds a NaN.
type summarizerFunc[T any] func(v *vector.Vector, mins, maxs []T) (_, _ []T, ok bool)

// summarizer summarizes the values a vector holds in the family's type.
func summarizer[T cmp.Ordered](values func(*vector.Vector) []T, granule int) summarizerFunc[T] {
	return func(v *vector.Vector, mins, maxs []T) ([]T, []T, bool) {
		return Summarize(mins, maxs, values(v), granule)
	}
}

// decodeSummarizer summarizes a vector of enum codes over the dictionary
// values dict, decoding one granule at a time into a reused buffer.
func decodeSummarizer[T cmp.Ordered](dict []T, granule int) summarizerFunc[T] {
	var buf []T
	return func(v *vector.Vector, mins, maxs []T) ([]T, []T, bool) {
		ok := true
		for lo := 0; lo < v.Len() && ok; lo += granule {
			buf = buf[:0]
			part := v.Slice(lo, min(lo+granule, v.Len()))
			if part.Typ == vector.UInt8 {
				for _, code := range part.UInt8s() {
					buf = append(buf, dict[code])
				}
			} else {
				for _, code := range part.UInt16s() {
					buf = append(buf, dict[code])
				}
			}
			mins, maxs, ok = Summarize(mins, maxs, buf, granule)
		}
		return mins, maxs, ok
	}
}

// buildZoneMap summarizes c one fragment at a time.
func buildZoneMap[T int64 | float64 | string](c *Column, granule int, summarize summarizerFunc[T]) (*ZoneMap, error) {
	z := &ZoneMap{starts: make([]int, 0, c.n/granule+len(c.frags)+1), granule: granule}
	r := c.Reader()
	var mins, maxs []T
	for i := range c.frags {
		lo, hi := c.starts[i], c.starts[i+1]
		if lo == hi {
			continue
		}
		v, err := r.Vector(lo, hi)
		if err != nil {
			return nil, err
		}
		var ok bool
		if mins, maxs, ok = summarize(v, mins, maxs); !ok {
			z.starts = append(z.starts[:0], c.n)
			return z, nil
		}
		for ; lo < hi; lo += granule {
			z.starts = append(z.starts, lo)
		}
	}
	z.starts = append(z.starts, c.n)
	z.mins, z.maxs = mins, maxs
	return z, nil
}

// Rows returns the number of rows the zone map covers.
func (z *ZoneMap) Rows() int { return z.starts[len(z.starts)-1] }

// Granule returns the rows per range BuildZoneMap was asked for (0 for a
// zone map built from per-chunk bounds).
func (z *ZoneMap) Granule() int { return z.granule }

// Bound is one end of a predicate's value interval. A nil Val is open;
// Strict excludes Val itself. A Val whose type does not fit the zone map's
// family (int32 or int64 for integer columns, float64, string) is open too.
type Bound struct {
	Val    any
	Strict bool
}

// Prune returns the row range [lo, hi) outside of which no row holds a
// value between the bounds lo and hi.
func (z *ZoneMap) Prune(lo, hi Bound) (int, int) {
	switch mins := z.mins.(type) {
	case []int64:
		return prune(z.starts, mins, z.maxs.([]int64), lo, hi, asInt64)
	case []float64:
		return prune(z.starts, mins, z.maxs.([]float64), lo, hi, as[float64])
	case []string:
		return prune(z.starts, mins, z.maxs.([]string), lo, hi, as[string])
	}
	return 0, z.Rows()
}

func as[T any](v any) (T, bool) {
	x, ok := v.(T)
	return x, ok
}

func asInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int32:
		return int64(x), true
	case int64:
		return x, true
	}
	return 0, false
}

// prune drops the leading and trailing ranges that cannot hold a value
// between lo and hi; val converts a bound's value to the family's type.
func prune[T cmp.Ordered](starts []int, mins, maxs []T, lo, hi Bound, val func(any) (T, bool)) (int, int) {
	loVal, hasLo := val(lo.Val)
	hiVal, hasHi := val(hi.Val)
	cannotMatch := func(i int) bool {
		return (hasLo && (maxs[i] < loVal || lo.Strict && maxs[i] == loVal)) ||
			(hasHi && (mins[i] > hiVal || hi.Strict && mins[i] == hiVal))
	}
	first, last := 0, len(mins)
	for first < last && cannotMatch(first) {
		first++
	}
	for last > first && cannotMatch(last-1) {
		last--
	}
	return starts[first], starts[last]
}
