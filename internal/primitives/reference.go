package primitives

import "math"

// Frozen pre-kernel implementations: the plain generic per-element loops
// (and the two-multiply mix64 hash scheme) exactly as they ran before the
// width-specialized kernel layer landed. They serve two purposes:
//
//   - differential oracles for the kernel property tests, and
//   - the generic-loop baseline that BenchmarkKernels measures each
//     generated kernel against.
//
// Nothing in the engine calls these on a query path.

const (
	refHashMult1 = 0xbf58476d1ce4e5b9
	refHashMult2 = 0x94d049bb133111eb
)

// refMix64 is the splitmix64 finalizer the hash primitives used before
// the single-multiply xmx round replaced it.
func refMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= refHashMult1
	x ^= x >> 27
	x *= refHashMult2
	x ^= x >> 31
	return x
}

// RefSelectLTColVal is the pre-kernel predicated select loop.
func RefSelectLTColVal[T Ordered](res []int32, in []T, v T, sel []int32) int {
	k := 0
	if sel != nil {
		for _, i := range sel {
			res[k] = i
			k += b2i(in[i] < v)
		}
		return k
	}
	for i := range in {
		res[k] = int32(i)
		k += b2i(in[i] < v)
	}
	return k
}

// RefSelectEQColVal is the pre-kernel predicated equality select loop.
func RefSelectEQColVal[T Ordered](res []int32, in []T, v T, sel []int32) int {
	k := 0
	if sel != nil {
		for _, i := range sel {
			res[k] = i
			k += b2i(in[i] == v)
		}
		return k
	}
	for i := range in {
		res[k] = int32(i)
		k += b2i(in[i] == v)
	}
	return k
}

// RefHashInt is the pre-kernel mix64 integer hash loop.
func RefHashInt[T ~uint8 | ~uint16 | ~int32 | ~int64](res []uint64, vals []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = refMix64(uint64(vals[i]) + hashSeed)
		}
		return
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = refMix64(uint64(vals[i]) + hashSeed)
	}
}

// RefHashCombineInt is the pre-kernel mix64 hash-combine loop.
func RefHashCombineInt[T ~uint8 | ~uint16 | ~int32 | ~int64](res []uint64, vals []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = refMix64(res[i] ^ (uint64(vals[i]) + hashSeed))
		}
		return
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = refMix64(res[i] ^ (uint64(vals[i]) + hashSeed))
	}
}

// RefHashFloat64 is the pre-kernel mix64 float hash loop.
func RefHashFloat64(res []uint64, vals []float64, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			v := vals[i]
			if v == 0 {
				v = 0
			}
			res[i] = refMix64(math.Float64bits(v) + hashSeed)
		}
		return
	}
	vals = vals[:len(res)]
	for i := range res {
		v := vals[i]
		if v == 0 {
			v = 0
		}
		res[i] = refMix64(math.Float64bits(v) + hashSeed)
	}
}

// RefAggrSum is the pre-kernel grouped sum loop.
func RefAggrSum[A, T Number](acc []A, vals []T, groups []int32, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			acc[groups[i]] += A(vals[i])
		}
		return
	}
	groups = groups[:len(vals)]
	for i := range vals {
		acc[groups[i]] += A(vals[i])
	}
}

// RefAggrCount is the pre-kernel grouped count loop.
func RefAggrCount(acc []int64, groups []int32, sel []int32, n int) {
	if sel != nil {
		for _, i := range sel {
			acc[groups[i]]++
		}
		return
	}
	groups = groups[:n]
	for i := 0; i < n; i++ {
		acc[groups[i]]++
	}
}

// RefAggrMin is the pre-kernel branchy grouped min loop (first-seen
// gating via seen flags, zero-initialized accumulators).
func RefAggrMin[T Number](acc []T, seen []bool, vals []T, groups []int32, sel []int32) {
	upd := func(i int32) {
		g := groups[i]
		if !seen[g] || vals[i] < acc[g] {
			acc[g] = vals[i]
			seen[g] = true
		}
	}
	if sel != nil {
		for _, i := range sel {
			upd(i)
		}
		return
	}
	for i := range vals {
		upd(int32(i))
	}
}

// RefAggrMax is the pre-kernel branchy grouped max loop.
func RefAggrMax[T Number](acc []T, seen []bool, vals []T, groups []int32, sel []int32) {
	upd := func(i int32) {
		g := groups[i]
		if !seen[g] || vals[i] > acc[g] {
			acc[g] = vals[i]
			seen[g] = true
		}
	}
	if sel != nil {
		for _, i := range sel {
			upd(i)
		}
		return
	}
	for i := range vals {
		upd(int32(i))
	}
}

// RefMapMulColCol is the pre-kernel per-element multiply loop.
func RefMapMulColCol[T Number](res, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] * b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] * b[i]
	}
}
