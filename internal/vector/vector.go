package vector

import "fmt"

// DefaultBatchSize is the default number of values per vector. The paper
// finds the sweet spot around 1000 values (Figure 10); 1024 keeps vectors
// comfortably inside L1/L2 caches for typical query widths.
const DefaultBatchSize = 1024

// Vector is a typed column fragment of up to the batch size values.
// Exactly one of the typed slices is in use, selected by Typ. Hot loops in
// the primitives package extract the typed slice once per vector (not per
// value), so the dynamic dispatch cost is amortized over the whole vector.
type Vector struct {
	Typ  Type
	data any
}

// New allocates a vector of the given logical type with capacity n.
func New(t Type, n int) *Vector {
	v := &Vector{Typ: t}
	switch t.Physical() {
	case Bool:
		v.data = make([]bool, n)
	case UInt8:
		v.data = make([]uint8, n)
	case UInt16:
		v.data = make([]uint16, n)
	case Int32:
		v.data = make([]int32, n)
	case Int64:
		v.data = make([]int64, n)
	case Float64:
		v.data = make([]float64, n)
	case String:
		v.data = make([]string, n)
	default:
		panic(fmt.Sprintf("vector: cannot allocate vector of type %v", t))
	}
	return v
}

// FromAny wraps an existing typed slice in a Vector. The slice is not
// copied; it must be one of the supported physical slice types.
func FromAny(t Type, data any) *Vector {
	v := &Vector{Typ: t, data: data}
	v.Len() // validates the dynamic type
	return v
}

// FromInt32s, FromInt64s, FromFloat64s, FromStrings, FromBools, FromUint8s
// and FromUint16s wrap a typed slice without copying.
func FromInt32s(s []int32) *Vector     { return &Vector{Typ: Int32, data: s} }
func FromInt64s(s []int64) *Vector     { return &Vector{Typ: Int64, data: s} }
func FromFloat64s(s []float64) *Vector { return &Vector{Typ: Float64, data: s} }
func FromStrings(s []string) *Vector   { return &Vector{Typ: String, data: s} }
func FromBools(s []bool) *Vector       { return &Vector{Typ: Bool, data: s} }
func FromUint8s(s []uint8) *Vector     { return &Vector{Typ: UInt8, data: s} }
func FromUint16s(s []uint16) *Vector   { return &Vector{Typ: UInt16, data: s} }

// FromDates wraps a slice of day numbers as a Date vector.
func FromDates(s []int32) *Vector { return &Vector{Typ: Date, data: s} }

// Len returns the number of values currently in the vector.
func (v *Vector) Len() int {
	switch d := v.data.(type) {
	case []bool:
		return len(d)
	case []uint8:
		return len(d)
	case []uint16:
		return len(d)
	case []int32:
		return len(d)
	case []int64:
		return len(d)
	case []float64:
		return len(d)
	case []string:
		return len(d)
	default:
		panic(fmt.Sprintf("vector: unsupported payload %T", v.data))
	}
}

// Slice restricts the vector to [lo:hi) in place and returns it. The
// underlying array is shared.
func (v *Vector) Slice(lo, hi int) *Vector {
	switch d := v.data.(type) {
	case []bool:
		return &Vector{Typ: v.Typ, data: d[lo:hi]}
	case []uint8:
		return &Vector{Typ: v.Typ, data: d[lo:hi]}
	case []uint16:
		return &Vector{Typ: v.Typ, data: d[lo:hi]}
	case []int32:
		return &Vector{Typ: v.Typ, data: d[lo:hi]}
	case []int64:
		return &Vector{Typ: v.Typ, data: d[lo:hi]}
	case []float64:
		return &Vector{Typ: v.Typ, data: d[lo:hi]}
	case []string:
		return &Vector{Typ: v.Typ, data: d[lo:hi]}
	default:
		panic(fmt.Sprintf("vector: unsupported payload %T", v.data))
	}
}

// Bools returns the underlying []bool; it panics if the physical type
// differs. The same contract applies to the other typed accessors.
func (v *Vector) Bools() []bool       { return v.data.([]bool) }
func (v *Vector) UInt8s() []uint8     { return v.data.([]uint8) }
func (v *Vector) UInt16s() []uint16   { return v.data.([]uint16) }
func (v *Vector) Int32s() []int32     { return v.data.([]int32) }
func (v *Vector) Int64s() []int64     { return v.data.([]int64) }
func (v *Vector) Float64s() []float64 { return v.data.([]float64) }
func (v *Vector) Strings() []string   { return v.data.([]string) }

// Value returns the i-th value boxed as any (slow path: tests, row output,
// the tuple-at-a-time baseline engine).
func (v *Vector) Value(i int) any {
	switch d := v.data.(type) {
	case []bool:
		return d[i]
	case []uint8:
		return d[i]
	case []uint16:
		return d[i]
	case []int32:
		return d[i]
	case []int64:
		return d[i]
	case []float64:
		return d[i]
	case []string:
		return d[i]
	default:
		panic(fmt.Sprintf("vector: unsupported payload %T", v.data))
	}
}

// Set stores a boxed value at position i (slow path).
func (v *Vector) Set(i int, val any) {
	switch d := v.data.(type) {
	case []bool:
		d[i] = val.(bool)
	case []uint8:
		d[i] = val.(uint8)
	case []uint16:
		d[i] = val.(uint16)
	case []int32:
		d[i] = val.(int32)
	case []int64:
		d[i] = val.(int64)
	case []float64:
		d[i] = val.(float64)
	case []string:
		d[i] = val.(string)
	default:
		panic(fmt.Sprintf("vector: unsupported payload %T", v.data))
	}
}

// Float64At converts the i-th value to float64, for numeric types (slow
// path used by interpreters and tests).
func (v *Vector) Float64At(i int) float64 {
	switch d := v.data.(type) {
	case []uint8:
		return float64(d[i])
	case []uint16:
		return float64(d[i])
	case []int32:
		return float64(d[i])
	case []int64:
		return float64(d[i])
	case []float64:
		return d[i]
	default:
		panic(fmt.Sprintf("vector: Float64At on %v", v.Typ))
	}
}

// Bytes returns the memory footprint of the vector payload in bytes,
// counting string payloads at their actual length. Used by the bandwidth
// tracer.
func (v *Vector) Bytes() int {
	if s, ok := v.data.([]string); ok {
		total := 0
		for _, x := range s {
			total += len(x)
		}
		return total + 16*len(s)
	}
	return v.Len() * v.Typ.Width()
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	out := New(v.Typ, v.Len())
	switch d := v.data.(type) {
	case []bool:
		copy(out.data.([]bool), d)
	case []uint8:
		copy(out.data.([]uint8), d)
	case []uint16:
		copy(out.data.([]uint16), d)
	case []int32:
		copy(out.data.([]int32), d)
	case []int64:
		copy(out.data.([]int64), d)
	case []float64:
		copy(out.data.([]float64), d)
	case []string:
		copy(out.data.([]string), d)
	}
	return out
}

// CopyN copies the first n values of src into v, resizing v to n and
// reusing its buffer when large enough. v and src must share a physical
// type.
func (v *Vector) CopyN(src *Vector, n int) {
	switch d := src.data.(type) {
	case []bool:
		dst := ensureCap(v.data.([]bool), n)
		copy(dst, d[:n])
		v.data = dst
	case []uint8:
		dst := ensureCap(v.data.([]uint8), n)
		copy(dst, d[:n])
		v.data = dst
	case []uint16:
		dst := ensureCap(v.data.([]uint16), n)
		copy(dst, d[:n])
		v.data = dst
	case []int32:
		dst := ensureCap(v.data.([]int32), n)
		copy(dst, d[:n])
		v.data = dst
	case []int64:
		dst := ensureCap(v.data.([]int64), n)
		copy(dst, d[:n])
		v.data = dst
	case []float64:
		dst := ensureCap(v.data.([]float64), n)
		copy(dst, d[:n])
		v.data = dst
	case []string:
		dst := ensureCap(v.data.([]string), n)
		copy(dst, d[:n])
		v.data = dst
	default:
		panic(fmt.Sprintf("vector: unsupported payload %T", src.data))
	}
	v.Typ = src.Typ
}

// Gather copies the values of src at the given positions into v, resizing v
// to len(sel). v and src must share a physical type.
func (v *Vector) Gather(src *Vector, sel []int32) { v.gather(src, sel, false) }

// GatherOuter is Gather where a negative position yields the zero value:
// the build-side columns of a left-outer join's unmatched rows.
func (v *Vector) GatherOuter(src *Vector, sel []int32) { v.gather(src, sel, true) }

func (v *Vector) gather(src *Vector, sel []int32, outer bool) {
	switch d := src.data.(type) {
	case []bool:
		v.data = gatherInto(v.data.([]bool), d, sel, outer)
	case []uint8:
		v.data = gatherInto(v.data.([]uint8), d, sel, outer)
	case []uint16:
		v.data = gatherInto(v.data.([]uint16), d, sel, outer)
	case []int32:
		v.data = gatherInto(v.data.([]int32), d, sel, outer)
	case []int64:
		v.data = gatherInto(v.data.([]int64), d, sel, outer)
	case []float64:
		v.data = gatherInto(v.data.([]float64), d, sel, outer)
	case []string:
		v.data = gatherInto(v.data.([]string), d, sel, outer)
	default:
		panic(fmt.Sprintf("vector: unsupported payload %T", src.data))
	}
	v.Typ = src.Typ
}

func gatherInto[T any](dst, src []T, sel []int32, outer bool) []T {
	dst = ensureCap(dst, len(sel))
	if !outer {
		for j, i := range sel {
			dst[j] = src[i]
		}
		return dst
	}
	var zero T
	for j, i := range sel {
		if i < 0 {
			dst[j] = zero
			continue
		}
		dst[j] = src[i]
	}
	return dst
}

// Data returns the payload of v as a typed slice; it panics if the
// physical element type is not T. Generic code (the expression compiler)
// uses it to extract slices once per vector before entering its hot loop.
func Data[T any](v *Vector) []T { return v.data.([]T) }

func ensureCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
