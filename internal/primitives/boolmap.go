package primitives

import "strings"

// Boolean map primitives: comparison and logical primitives producing a
// full bool result vector. These are the general fallback path for complex
// predicates (disjunctions, CASE inputs); simple conjunctive predicates use
// the select_* primitives instead, which produce position lists directly.

// MapLTColValBool computes res[i] = in[i] < v.
func MapLTColValBool[T Ordered](res []bool, in []T, v T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = in[i] < v
		}
		return
	}
	in = in[:len(res)]
	for i := range res {
		res[i] = in[i] < v
	}
}

// MapLEColValBool computes res[i] = in[i] <= v.
func MapLEColValBool[T Ordered](res []bool, in []T, v T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = in[i] <= v
		}
		return
	}
	in = in[:len(res)]
	for i := range res {
		res[i] = in[i] <= v
	}
}

// MapGTColValBool computes res[i] = in[i] > v.
func MapGTColValBool[T Ordered](res []bool, in []T, v T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = in[i] > v
		}
		return
	}
	in = in[:len(res)]
	for i := range res {
		res[i] = in[i] > v
	}
}

// MapGEColValBool computes res[i] = in[i] >= v.
func MapGEColValBool[T Ordered](res []bool, in []T, v T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = in[i] >= v
		}
		return
	}
	in = in[:len(res)]
	for i := range res {
		res[i] = in[i] >= v
	}
}

// MapEQColValBool computes res[i] = in[i] == v.
func MapEQColValBool[T comparable](res []bool, in []T, v T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = in[i] == v
		}
		return
	}
	in = in[:len(res)]
	for i := range res {
		res[i] = in[i] == v
	}
}

// MapNEColValBool computes res[i] = in[i] != v.
func MapNEColValBool[T comparable](res []bool, in []T, v T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = in[i] != v
		}
		return
	}
	in = in[:len(res)]
	for i := range res {
		res[i] = in[i] != v
	}
}

// MapLTColColBool computes res[i] = a[i] < b[i].
func MapLTColColBool[T Ordered](res []bool, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] < b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] < b[i]
	}
}

// MapLEColColBool computes res[i] = a[i] <= b[i].
func MapLEColColBool[T Ordered](res []bool, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] <= b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] <= b[i]
	}
}

// MapGTColColBool computes res[i] = a[i] > b[i].
func MapGTColColBool[T Ordered](res []bool, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] > b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] > b[i]
	}
}

// MapGEColColBool computes res[i] = a[i] >= b[i].
func MapGEColColBool[T Ordered](res []bool, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] >= b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] >= b[i]
	}
}

// MapEQColColBool computes res[i] = a[i] == b[i].
func MapEQColColBool[T comparable](res []bool, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] == b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] == b[i]
	}
}

// MapNEColColBool computes res[i] = a[i] != b[i].
func MapNEColColBool[T comparable](res []bool, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] != b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] != b[i]
	}
}

// MapAndColCol computes res[i] = a[i] && b[i].
func MapAndColCol(res, a, b []bool, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] && b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] && b[i]
	}
}

// MapOrColCol computes res[i] = a[i] || b[i].
func MapOrColCol(res, a, b []bool, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] || b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] || b[i]
	}
}

// MapNotCol computes res[i] = !a[i].
func MapNotCol(res, a []bool, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = !a[i]
		}
		return
	}
	a = a[:len(res)]
	for i := range res {
		res[i] = !a[i]
	}
}

// LikeMatcher is a compiled LIKE pattern: literal segments separated by %,
// with _ matching any single byte.
type LikeMatcher struct {
	segments    []likeSeg
	prefixBound bool // pattern does not start with %
	suffixBound bool // pattern does not end with %
}

// likeSeg is one literal segment of a LIKE pattern. A segment without _
// is found with strings.Index (vectorized in the Go runtime) and checked
// at a fixed position with a plain compare; only a segment with _ walks
// the start positions one byte at a time.
type likeSeg struct {
	lit  string
	wild bool // lit contains _
}

// CompileLike parses a SQL LIKE pattern into a matcher. Consecutive %
// collapse; the pattern is split into literal segments at % boundaries.
func CompileLike(pattern string) *LikeMatcher {
	m := &LikeMatcher{
		prefixBound: len(pattern) == 0 || pattern[0] != '%',
		suffixBound: len(pattern) == 0 || pattern[len(pattern)-1] != '%',
	}
	for _, lit := range strings.Split(pattern, "%") {
		if lit != "" {
			m.segments = append(m.segments, likeSeg{lit: lit, wild: strings.IndexByte(lit, '_') >= 0})
		}
	}
	return m
}

// Match reports whether s matches the pattern. A middle segment takes its
// leftmost match; the suffix segment must not overlap the previous match.
func (m *LikeMatcher) Match(s string) bool {
	segs := m.segments
	pos := 0
	if len(segs) == 0 {
		// Empty pattern matches only ""; an all-% pattern matches anything.
		if m.prefixBound && m.suffixBound {
			return s == ""
		}
		return true
	}
	if m.prefixBound {
		if !segs[0].at(s, 0) {
			return false
		}
		pos = len(segs[0].lit)
		segs = segs[1:]
		if len(segs) == 0 {
			// Single segment: with a trailing % anything after it is fine,
			// otherwise it must consume the whole string.
			return !m.suffixBound || pos == len(s)
		}
	}
	var last likeSeg
	if m.suffixBound {
		last = segs[len(segs)-1]
		segs = segs[:len(segs)-1]
	}
	for _, seg := range segs {
		p := seg.index(s, pos)
		if p < 0 {
			return false
		}
		pos = p + len(seg.lit)
	}
	if m.suffixBound {
		p := len(s) - len(last.lit)
		return p >= pos && last.at(s, p)
	}
	return true
}

// at reports whether the segment matches s at position p.
func (g likeSeg) at(s string, p int) bool {
	if p+len(g.lit) > len(s) {
		return false
	}
	if !g.wild {
		return s[p:p+len(g.lit)] == g.lit
	}
	for i := 0; i < len(g.lit); i++ {
		if g.lit[i] != '_' && s[p+i] != g.lit[i] {
			return false
		}
	}
	return true
}

// index returns the leftmost position at or after pos where the segment
// matches s, or -1.
func (g likeSeg) index(s string, pos int) int {
	if !g.wild {
		if i := strings.Index(s[pos:], g.lit); i >= 0 {
			return pos + i
		}
		return -1
	}
	for p := pos; p+len(g.lit) <= len(s); p++ {
		if g.at(s, p) {
			return p
		}
	}
	return -1
}

// MapSubstrCol extracts the 1-based [start, start+length) byte substring of
// each input string (SQL SUBSTRING semantics, clamped at string ends).
func MapSubstrCol(res, in []string, start, length int, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = substr(in[i], start, length)
		}
		return
	}
	in = in[:len(res)]
	for i := range res {
		res[i] = substr(in[i], start, length)
	}
}

func substr(s string, start, length int) string {
	lo := start - 1
	if lo < 0 {
		lo = 0
	}
	if lo > len(s) {
		lo = len(s)
	}
	hi := lo + length
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// MapSelectColBool chooses res[i] = t[i] if cond[i] else e[i]: the CASE
// WHEN kernel.
func MapSelectColBool[T any](res []T, cond []bool, t, e []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			if cond[i] {
				res[i] = t[i]
			} else {
				res[i] = e[i]
			}
		}
		return
	}
	cond = cond[:len(res)]
	t = t[:len(res)]
	e = e[:len(res)]
	for i := range res {
		if cond[i] {
			res[i] = t[i]
		} else {
			res[i] = e[i]
		}
	}
}
