package core

import (
	"fmt"

	"x100/internal/vector"
)

// colBuilder accumulates values of one column across batches: the
// materialization buffer used by hash-join build sides, aggregation group
// keys, and the Order operator.
type colBuilder struct {
	typ  vector.Type
	b    []bool
	u8   []uint8
	u16  []uint16
	i32  []int32
	i64  []int64
	f64  []float64
	strs []string
}

func newColBuilder(t vector.Type) *colBuilder { return &colBuilder{typ: t} }

// appendVec appends the live values of v (restricted by sel) in order.
func (cb *colBuilder) appendVec(v *vector.Vector, sel []int32, n int) {
	switch cb.typ.Physical() {
	case vector.Bool:
		d := v.Bools()
		if sel == nil {
			cb.b = append(cb.b, d[:n]...)
		} else {
			for _, i := range sel {
				cb.b = append(cb.b, d[i])
			}
		}
	case vector.UInt8:
		d := v.UInt8s()
		if sel == nil {
			cb.u8 = append(cb.u8, d[:n]...)
		} else {
			for _, i := range sel {
				cb.u8 = append(cb.u8, d[i])
			}
		}
	case vector.UInt16:
		d := v.UInt16s()
		if sel == nil {
			cb.u16 = append(cb.u16, d[:n]...)
		} else {
			for _, i := range sel {
				cb.u16 = append(cb.u16, d[i])
			}
		}
	case vector.Int32:
		d := v.Int32s()
		if sel == nil {
			cb.i32 = append(cb.i32, d[:n]...)
		} else {
			for _, i := range sel {
				cb.i32 = append(cb.i32, d[i])
			}
		}
	case vector.Int64:
		d := v.Int64s()
		if sel == nil {
			cb.i64 = append(cb.i64, d[:n]...)
		} else {
			for _, i := range sel {
				cb.i64 = append(cb.i64, d[i])
			}
		}
	case vector.Float64:
		d := v.Float64s()
		if sel == nil {
			cb.f64 = append(cb.f64, d[:n]...)
		} else {
			for _, i := range sel {
				cb.f64 = append(cb.f64, d[i])
			}
		}
	case vector.String:
		d := v.Strings()
		if sel == nil {
			cb.strs = append(cb.strs, d[:n]...)
		} else {
			for _, i := range sel {
				cb.strs = append(cb.strs, d[i])
			}
		}
	default:
		panic(fmt.Sprintf("core: colBuilder of %v", cb.typ))
	}
}

// appendValue appends one boxed value (tuple-at-a-time paths).
func (cb *colBuilder) appendValue(v any) {
	switch cb.typ.Physical() {
	case vector.Bool:
		cb.b = append(cb.b, v.(bool))
	case vector.UInt8:
		cb.u8 = append(cb.u8, v.(uint8))
	case vector.UInt16:
		cb.u16 = append(cb.u16, v.(uint16))
	case vector.Int32:
		cb.i32 = append(cb.i32, v.(int32))
	case vector.Int64:
		cb.i64 = append(cb.i64, v.(int64))
	case vector.Float64:
		cb.f64 = append(cb.f64, v.(float64))
	case vector.String:
		cb.strs = append(cb.strs, v.(string))
	}
}

// appendBuilder appends all rows accumulated in src (same type) — the
// concatenation step when per-worker partition builders merge into one.
func (cb *colBuilder) appendBuilder(src *colBuilder) {
	cb.b = append(cb.b, src.b...)
	cb.u8 = append(cb.u8, src.u8...)
	cb.u16 = append(cb.u16, src.u16...)
	cb.i32 = append(cb.i32, src.i32...)
	cb.i64 = append(cb.i64, src.i64...)
	cb.f64 = append(cb.f64, src.f64...)
	cb.strs = append(cb.strs, src.strs...)
}

// len returns the number of accumulated values.
func (cb *colBuilder) len() int {
	switch cb.typ.Physical() {
	case vector.Bool:
		return len(cb.b)
	case vector.UInt8:
		return len(cb.u8)
	case vector.UInt16:
		return len(cb.u16)
	case vector.Int32:
		return len(cb.i32)
	case vector.Int64:
		return len(cb.i64)
	case vector.Float64:
		return len(cb.f64)
	default:
		return len(cb.strs)
	}
}

// vec wraps the accumulated values as a full-length vector (zero copy).
func (cb *colBuilder) vec() *vector.Vector {
	var v *vector.Vector
	switch cb.typ.Physical() {
	case vector.Bool:
		v = vector.FromBools(cb.b)
	case vector.UInt8:
		v = vector.FromUint8s(cb.u8)
	case vector.UInt16:
		v = vector.FromUint16s(cb.u16)
	case vector.Int32:
		v = vector.FromInt32s(cb.i32)
	case vector.Int64:
		v = vector.FromInt64s(cb.i64)
	case vector.Float64:
		v = vector.FromFloat64s(cb.f64)
	default:
		v = vector.FromStrings(cb.strs)
	}
	v.Typ = cb.typ
	return v
}

// slice returns rows [lo:hi) as a vector view.
func (cb *colBuilder) slice(lo, hi int) *vector.Vector {
	return cb.vec().Slice(lo, hi)
}

// gather builds a new vector of the rows at the given indices.
func (cb *colBuilder) gather(idx []int32) *vector.Vector {
	out := vector.New(cb.typ, len(idx))
	out.Gather(cb.vec(), idx)
	out.Typ = cb.typ
	return out
}

// keepEqual narrows sel, a list of candidate pair indexes, to the pairs k
// whose values a[ia[k]] and b[ib[k]] are equal: the key verification of
// both hash tables, one key column and one typed loop at a time. a and b
// share a physical type.
func keepEqual(sel []int32, a *vector.Vector, ia []int32, b *vector.Vector, ib []int32) []int32 {
	switch a.Typ.Physical() {
	case vector.Bool:
		return eqPairs(sel, a.Bools(), ia, b.Bools(), ib)
	case vector.UInt8:
		return eqPairs(sel, a.UInt8s(), ia, b.UInt8s(), ib)
	case vector.UInt16:
		return eqPairs(sel, a.UInt16s(), ia, b.UInt16s(), ib)
	case vector.Int32:
		return eqPairs(sel, a.Int32s(), ia, b.Int32s(), ib)
	case vector.Int64:
		return eqPairs(sel, a.Int64s(), ia, b.Int64s(), ib)
	case vector.Float64:
		return eqPairs(sel, a.Float64s(), ia, b.Float64s(), ib)
	default:
		return eqPairs(sel, a.Strings(), ia, b.Strings(), ib)
	}
}

// eqPairs narrows sel in place to the pairs k with a[ia[k]] == b[ib[k]].
// Every k is written and kept by advancing n, which the compiler turns into
// a conditional move where an append would branch on the data.
func eqPairs[T comparable](sel []int32, a []T, ia []int32, b []T, ib []int32) []int32 {
	n := 0
	for _, k := range sel {
		sel[n] = k
		if a[ia[k]] == b[ib[k]] {
			n++
		}
	}
	return sel[:n]
}

// keepEqualXlat is keepEqual for a code-domain join key: a holds build-side
// dictionary codes, which x translates into the code domain of b, the probe
// side (-1 never matches).
func keepEqualXlat(sel []int32, x []int32, a *vector.Vector, ia []int32, b *vector.Vector, ib []int32) []int32 {
	if a.Typ.Physical() == vector.UInt8 {
		return xlatProbe(sel, x, a.UInt8s(), ia, b, ib)
	}
	return xlatProbe(sel, x, a.UInt16s(), ia, b, ib)
}

func xlatProbe[A uint8 | uint16](sel []int32, x []int32, a []A, ia []int32, b *vector.Vector, ib []int32) []int32 {
	if b.Typ.Physical() == vector.UInt8 {
		return eqXlatPairs(sel, x, a, ia, b.UInt8s(), ib)
	}
	return eqXlatPairs(sel, x, a, ia, b.UInt16s(), ib)
}

func eqXlatPairs[A, B uint8 | uint16](sel []int32, x []int32, a []A, ia []int32, b []B, ib []int32) []int32 {
	out := sel[:0]
	for _, k := range sel {
		if x[a[ia[k]]] == int32(b[ib[k]]) {
			out = append(out, k)
		}
	}
	return out
}

// resize returns s with length n, reusing its array when large enough; the
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// allPairs returns s holding 0..n-1: the selection of all n candidate
// pairs.
func allPairs(s []int32, n int) []int32 {
	s = resize(s, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// less compares accumulated rows i and j (sort support).
func (cb *colBuilder) less(i, j int) bool {
	switch cb.typ.Physical() {
	case vector.Bool:
		return !cb.b[i] && cb.b[j]
	case vector.UInt8:
		return cb.u8[i] < cb.u8[j]
	case vector.UInt16:
		return cb.u16[i] < cb.u16[j]
	case vector.Int32:
		return cb.i32[i] < cb.i32[j]
	case vector.Int64:
		return cb.i64[i] < cb.i64[j]
	case vector.Float64:
		return cb.f64[i] < cb.f64[j]
	default:
		return cb.strs[i] < cb.strs[j]
	}
}

// appendRow appends accumulated row i of src (same type) — the gather step
// when k-way merging sorted runs held in separate builders.
func (cb *colBuilder) appendRow(src *colBuilder, i int) {
	switch cb.typ.Physical() {
	case vector.Bool:
		cb.b = append(cb.b, src.b[i])
	case vector.UInt8:
		cb.u8 = append(cb.u8, src.u8[i])
	case vector.UInt16:
		cb.u16 = append(cb.u16, src.u16[i])
	case vector.Int32:
		cb.i32 = append(cb.i32, src.i32[i])
	case vector.Int64:
		cb.i64 = append(cb.i64, src.i64[i])
	case vector.Float64:
		cb.f64 = append(cb.f64, src.f64[i])
	case vector.String:
		cb.strs = append(cb.strs, src.strs[i])
	}
}

// lessCross compares accumulated row i against row j of another builder of
// the same type (k-way merge across sorted runs).
func (cb *colBuilder) lessCross(i int, ob *colBuilder, j int) bool {
	switch cb.typ.Physical() {
	case vector.Bool:
		return !cb.b[i] && ob.b[j]
	case vector.UInt8:
		return cb.u8[i] < ob.u8[j]
	case vector.UInt16:
		return cb.u16[i] < ob.u16[j]
	case vector.Int32:
		return cb.i32[i] < ob.i32[j]
	case vector.Int64:
		return cb.i64[i] < ob.i64[j]
	case vector.Float64:
		return cb.f64[i] < ob.f64[j]
	default:
		return cb.strs[i] < ob.strs[j]
	}
}

// equalCross compares accumulated row i against row j of another builder of
// the same type.
func (cb *colBuilder) equalCross(i int, ob *colBuilder, j int) bool {
	switch cb.typ.Physical() {
	case vector.Bool:
		return cb.b[i] == ob.b[j]
	case vector.UInt8:
		return cb.u8[i] == ob.u8[j]
	case vector.UInt16:
		return cb.u16[i] == ob.u16[j]
	case vector.Int32:
		return cb.i32[i] == ob.i32[j]
	case vector.Int64:
		return cb.i64[i] == ob.i64[j]
	case vector.Float64:
		return cb.f64[i] == ob.f64[j]
	default:
		return cb.strs[i] == ob.strs[j]
	}
}

// equalRows compares accumulated rows i and j.
func (cb *colBuilder) equalRows(i, j int) bool {
	switch cb.typ.Physical() {
	case vector.Bool:
		return cb.b[i] == cb.b[j]
	case vector.UInt8:
		return cb.u8[i] == cb.u8[j]
	case vector.UInt16:
		return cb.u16[i] == cb.u16[j]
	case vector.Int32:
		return cb.i32[i] == cb.i32[j]
	case vector.Int64:
		return cb.i64[i] == cb.i64[j]
	case vector.Float64:
		return cb.f64[i] == cb.f64[j]
	default:
		return cb.strs[i] == cb.strs[j]
	}
}
