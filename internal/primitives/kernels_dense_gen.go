// Code generated by gen/main.go. DO NOT EDIT.

// Dense (sel == nil) kernel fast paths. Conventions, verified by the
// ssa/check_bce regression test (TestKernelBCE):
//
//   - unrolled loops advance the slices themselves (for len(in) >= 4
//     { ... in = in[4:] }) with a separate base counter for positions:
//     the prove pass eliminates all per-element checks for this shape,
//     whereas the classic indexed unroll (for i+4 <= n) keeps one check
//     per load because i+4 can overflow. Tails re-slice companions to
//     len of the ranged slice so tail loads are check-free too. Map
//     kernels skip the unroll: a re-sliced range loop is already
//     check-free and store-bound, and the slice-advance bookkeeping
//     (three pointer updates per four elements) measurably slows it;
//   - select kernels pre-size res to len(in) and write the compacted
//     output through storeIdx (an unsafe, pre-bounded store): the output
//     cursor k is data-dependent, so this is the one store the compiler
//     could never prove in bounds, yet k <= i < len(res) holds by
//     construction;
//   - aggregate kernels index accumulators by group id (acc[g], cnt[g],
//     seen[g]); those indices are data-dependent by nature and keep their
//     bounds checks deliberately -- a corrupt group id must panic, not
//     corrupt memory. The BCE test allowlists exactly those patterns;
//   - uint8 compares run word-parallel (SWAR): 8 lanes per uint64 load, a
//     per-lane MSB match mask, and bit-iterated emit of match positions.
//     Bit iteration costs per match, so the kernels probe the first
//     swarProbe values and fall back to the predicated scalar loop when
//     the vector turns out dense (>1/8 matches).

package primitives

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"
)

func selectLTColValDenseU8(res []int32, in []uint8, v uint8) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	vv := swarL8 * uint64(v)
	k := 0
	base := 0
	// Probe: SWAR bit-extraction over the first swarProbe values. Its cost
	// scales with the match count, so it beats the predicated scalar loop
	// only on sparse masks.
	for len(in) >= 8 && base < swarProbe {
		word := binary.LittleEndian.Uint64(in)
		m := swarLTU8(word, vv)
		for m != 0 {
			storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
			k++
			m &= m - 1
		}
		in = in[8:]
		base += 8
	}
	// Commit: stay word-parallel when the probe saw <=1/8 matches,
	// otherwise fall through to the predicated scalar loop, whose cost is
	// selectivity-independent.
	if k*8 <= base {
		for len(in) >= 8 {
			word := binary.LittleEndian.Uint64(in)
			m := swarLTU8(word, vv)
			for m != 0 {
				storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
				k++
				m &= m - 1
			}
			in = in[8:]
			base += 8
		}
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x < v)
		base++
	}
	return k
}

func selectLEColValDenseU8(res []int32, in []uint8, v uint8) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x <= v)
		base++
	}
	return k
}

func selectGTColValDenseU8(res []int32, in []uint8, v uint8) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x > v)
		base++
	}
	return k
}

func selectGEColValDenseU8(res []int32, in []uint8, v uint8) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	vv := swarL8 * uint64(v)
	k := 0
	base := 0
	// Probe: SWAR bit-extraction over the first swarProbe values. Its cost
	// scales with the match count, so it beats the predicated scalar loop
	// only on sparse masks.
	for len(in) >= 8 && base < swarProbe {
		word := binary.LittleEndian.Uint64(in)
		m := ^swarLTU8(word, vv) & swarH8
		for m != 0 {
			storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
			k++
			m &= m - 1
		}
		in = in[8:]
		base += 8
	}
	// Commit: stay word-parallel when the probe saw <=1/8 matches,
	// otherwise fall through to the predicated scalar loop, whose cost is
	// selectivity-independent.
	if k*8 <= base {
		for len(in) >= 8 {
			word := binary.LittleEndian.Uint64(in)
			m := ^swarLTU8(word, vv) & swarH8
			for m != 0 {
				storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
				k++
				m &= m - 1
			}
			in = in[8:]
			base += 8
		}
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= v)
		base++
	}
	return k
}

func selectEQColValDenseU8(res []int32, in []uint8, v uint8) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	vv := swarL8 * uint64(v)
	k := 0
	base := 0
	// Probe: SWAR bit-extraction over the first swarProbe values. Its cost
	// scales with the match count, so it beats the predicated scalar loop
	// only on sparse masks.
	for len(in) >= 8 && base < swarProbe {
		word := binary.LittleEndian.Uint64(in)
		m := swarZeroU8(word ^ vv)
		for m != 0 {
			storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
			k++
			m &= m - 1
		}
		in = in[8:]
		base += 8
	}
	// Commit: stay word-parallel when the probe saw <=1/8 matches,
	// otherwise fall through to the predicated scalar loop, whose cost is
	// selectivity-independent.
	if k*8 <= base {
		for len(in) >= 8 {
			word := binary.LittleEndian.Uint64(in)
			m := swarZeroU8(word ^ vv)
			for m != 0 {
				storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
				k++
				m &= m - 1
			}
			in = in[8:]
			base += 8
		}
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x == v)
		base++
	}
	return k
}

func selectNEColValDenseU8(res []int32, in []uint8, v uint8) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	vv := swarL8 * uint64(v)
	k := 0
	base := 0
	// Probe: SWAR bit-extraction over the first swarProbe values. Its cost
	// scales with the match count, so it beats the predicated scalar loop
	// only on sparse masks.
	for len(in) >= 8 && base < swarProbe {
		word := binary.LittleEndian.Uint64(in)
		m := ^swarZeroU8(word^vv) & swarH8
		for m != 0 {
			storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
			k++
			m &= m - 1
		}
		in = in[8:]
		base += 8
	}
	// Commit: stay word-parallel when the probe saw <=1/8 matches,
	// otherwise fall through to the predicated scalar loop, whose cost is
	// selectivity-independent.
	if k*8 <= base {
		for len(in) >= 8 {
			word := binary.LittleEndian.Uint64(in)
			m := ^swarZeroU8(word^vv) & swarH8
			for m != 0 {
				storeIdx(rp, k, int32(base+bits.TrailingZeros64(m)>>3))
				k++
				m &= m - 1
			}
			in = in[8:]
			base += 8
		}
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x != v)
		base++
	}
	return k
}

func selectLTColValDenseU16(res []int32, in []uint16, v uint16) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x < v)
		base++
	}
	return k
}

func selectLEColValDenseU16(res []int32, in []uint16, v uint16) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x <= v)
		base++
	}
	return k
}

func selectGTColValDenseU16(res []int32, in []uint16, v uint16) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x > v)
		base++
	}
	return k
}

func selectGEColValDenseU16(res []int32, in []uint16, v uint16) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= v)
		base++
	}
	return k
}

func selectEQColValDenseU16(res []int32, in []uint16, v uint16) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x == v)
		base++
	}
	return k
}

func selectNEColValDenseU16(res []int32, in []uint16, v uint16) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x != v)
		base++
	}
	return k
}

func selectLTColValDenseI32(res []int32, in []int32, v int32) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x < v)
		base++
	}
	return k
}

func selectLEColValDenseI32(res []int32, in []int32, v int32) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x <= v)
		base++
	}
	return k
}

func selectGTColValDenseI32(res []int32, in []int32, v int32) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x > v)
		base++
	}
	return k
}

func selectGEColValDenseI32(res []int32, in []int32, v int32) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= v)
		base++
	}
	return k
}

func selectEQColValDenseI32(res []int32, in []int32, v int32) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x == v)
		base++
	}
	return k
}

func selectNEColValDenseI32(res []int32, in []int32, v int32) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x != v)
		base++
	}
	return k
}

func selectLTColValDenseI64(res []int32, in []int64, v int64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x < v)
		base++
	}
	return k
}

func selectLEColValDenseI64(res []int32, in []int64, v int64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x <= v)
		base++
	}
	return k
}

func selectGTColValDenseI64(res []int32, in []int64, v int64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x > v)
		base++
	}
	return k
}

func selectGEColValDenseI64(res []int32, in []int64, v int64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= v)
		base++
	}
	return k
}

func selectEQColValDenseI64(res []int32, in []int64, v int64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x == v)
		base++
	}
	return k
}

func selectNEColValDenseI64(res []int32, in []int64, v int64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x != v)
		base++
	}
	return k
}

func selectLTColValDenseF64(res []int32, in []float64, v float64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x < v)
		base++
	}
	return k
}

func selectLEColValDenseF64(res []int32, in []float64, v float64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x <= v)
		base++
	}
	return k
}

func selectGTColValDenseF64(res []int32, in []float64, v float64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x > v)
		base++
	}
	return k
}

func selectGEColValDenseF64(res []int32, in []float64, v float64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= v)
		base++
	}
	return k
}

func selectEQColValDenseF64(res []int32, in []float64, v float64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x == v)
		base++
	}
	return k
}

func selectNEColValDenseF64(res []int32, in []float64, v float64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x != v)
		base++
	}
	return k
}

func selectLTColColDenseU8(res []int32, a, b []uint8) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x < b[i])
	}
	return k
}

func selectLEColColDenseU8(res []int32, a, b []uint8) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x <= b[i])
	}
	return k
}

func selectGTColColDenseU8(res []int32, a, b []uint8) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x > b[i])
	}
	return k
}

func selectGEColColDenseU8(res []int32, a, b []uint8) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x >= b[i])
	}
	return k
}

func selectEQColColDenseU8(res []int32, a, b []uint8) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x == b[i])
	}
	return k
}

func selectNEColColDenseU8(res []int32, a, b []uint8) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x != b[i])
	}
	return k
}

func selectLTColColDenseU16(res []int32, a, b []uint16) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x < b[i])
	}
	return k
}

func selectLEColColDenseU16(res []int32, a, b []uint16) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x <= b[i])
	}
	return k
}

func selectGTColColDenseU16(res []int32, a, b []uint16) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x > b[i])
	}
	return k
}

func selectGEColColDenseU16(res []int32, a, b []uint16) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x >= b[i])
	}
	return k
}

func selectEQColColDenseU16(res []int32, a, b []uint16) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x == b[i])
	}
	return k
}

func selectNEColColDenseU16(res []int32, a, b []uint16) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x != b[i])
	}
	return k
}

func selectLTColColDenseI32(res []int32, a, b []int32) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x < b[i])
	}
	return k
}

func selectLEColColDenseI32(res []int32, a, b []int32) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x <= b[i])
	}
	return k
}

func selectGTColColDenseI32(res []int32, a, b []int32) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x > b[i])
	}
	return k
}

func selectGEColColDenseI32(res []int32, a, b []int32) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x >= b[i])
	}
	return k
}

func selectEQColColDenseI32(res []int32, a, b []int32) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x == b[i])
	}
	return k
}

func selectNEColColDenseI32(res []int32, a, b []int32) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x != b[i])
	}
	return k
}

func selectLTColColDenseI64(res []int32, a, b []int64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x < b[i])
	}
	return k
}

func selectLEColColDenseI64(res []int32, a, b []int64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x <= b[i])
	}
	return k
}

func selectGTColColDenseI64(res []int32, a, b []int64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x > b[i])
	}
	return k
}

func selectGEColColDenseI64(res []int32, a, b []int64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x >= b[i])
	}
	return k
}

func selectEQColColDenseI64(res []int32, a, b []int64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x == b[i])
	}
	return k
}

func selectNEColColDenseI64(res []int32, a, b []int64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x != b[i])
	}
	return k
}

func selectLTColColDenseF64(res []int32, a, b []float64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 < y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 < y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 < y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 < y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x < b[i])
	}
	return k
}

func selectLEColColDenseF64(res []int32, a, b []float64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 <= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 <= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 <= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 <= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x <= b[i])
	}
	return k
}

func selectGTColColDenseF64(res []int32, a, b []float64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 > y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 > y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 > y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 > y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x > b[i])
	}
	return k
}

func selectGEColColDenseF64(res []int32, a, b []float64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x >= b[i])
	}
	return k
}

func selectEQColColDenseF64(res []int32, a, b []float64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 == y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 == y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 == y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 == y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x == b[i])
	}
	return k
}

func selectNEColColDenseF64(res []int32, a, b []float64) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	res = res[:n]
	b = b[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(a) >= 4 && len(b) >= 4 {
		x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
		y0, y1, y2, y3 := b[0], b[1], b[2], b[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 != y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 != y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 != y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 != y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x != b[i])
	}
	return k
}

func selectBetweenColValDenseU8(res []int32, in []uint8, lo, hi uint8) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= lo && x0 <= hi)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= lo && x1 <= hi)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= lo && x2 <= hi)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= lo && x3 <= hi)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= lo && x <= hi)
		base++
	}
	return k
}

func selectBetweenColValDenseU16(res []int32, in []uint16, lo, hi uint16) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= lo && x0 <= hi)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= lo && x1 <= hi)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= lo && x2 <= hi)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= lo && x3 <= hi)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= lo && x <= hi)
		base++
	}
	return k
}

func selectBetweenColValDenseI32(res []int32, in []int32, lo, hi int32) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= lo && x0 <= hi)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= lo && x1 <= hi)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= lo && x2 <= hi)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= lo && x3 <= hi)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= lo && x <= hi)
		base++
	}
	return k
}

func selectBetweenColValDenseI64(res []int32, in []int64, lo, hi int64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= lo && x0 <= hi)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= lo && x1 <= hi)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= lo && x2 <= hi)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= lo && x3 <= hi)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= lo && x <= hi)
		base++
	}
	return k
}

func selectBetweenColValDenseF64(res []int32, in []float64, lo, hi float64) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	res = res[:n]
	rp := unsafe.Pointer(unsafe.SliceData(res))
	k := 0
	base := 0
	for len(in) >= 4 {
		x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
		storeIdx(rp, k, int32(base))
		k += b2i(x0 >= lo && x0 <= hi)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 >= lo && x1 <= hi)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 >= lo && x2 <= hi)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 >= lo && x3 <= hi)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x >= lo && x <= hi)
		base++
	}
	return k
}

func hashColDenseU8(res []uint64, vals []uint8) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = xmx(uint64(vals[0]) + hashSeed)
		res[1] = xmx(uint64(vals[1]) + hashSeed)
		res[2] = xmx(uint64(vals[2]) + hashSeed)
		res[3] = xmx(uint64(vals[3]) + hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

func hashCombineColDenseU8(res []uint64, vals []uint8) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = rotl27(res[0]) ^ xmx(uint64(vals[0])+hashSeed)
		res[1] = rotl27(res[1]) ^ xmx(uint64(vals[1])+hashSeed)
		res[2] = rotl27(res[2]) ^ xmx(uint64(vals[2])+hashSeed)
		res[3] = rotl27(res[3]) ^ xmx(uint64(vals[3])+hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

func hashColDenseU16(res []uint64, vals []uint16) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = xmx(uint64(vals[0]) + hashSeed)
		res[1] = xmx(uint64(vals[1]) + hashSeed)
		res[2] = xmx(uint64(vals[2]) + hashSeed)
		res[3] = xmx(uint64(vals[3]) + hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

func hashCombineColDenseU16(res []uint64, vals []uint16) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = rotl27(res[0]) ^ xmx(uint64(vals[0])+hashSeed)
		res[1] = rotl27(res[1]) ^ xmx(uint64(vals[1])+hashSeed)
		res[2] = rotl27(res[2]) ^ xmx(uint64(vals[2])+hashSeed)
		res[3] = rotl27(res[3]) ^ xmx(uint64(vals[3])+hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

func hashColDenseI32(res []uint64, vals []int32) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = xmx(uint64(vals[0]) + hashSeed)
		res[1] = xmx(uint64(vals[1]) + hashSeed)
		res[2] = xmx(uint64(vals[2]) + hashSeed)
		res[3] = xmx(uint64(vals[3]) + hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

func hashCombineColDenseI32(res []uint64, vals []int32) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = rotl27(res[0]) ^ xmx(uint64(vals[0])+hashSeed)
		res[1] = rotl27(res[1]) ^ xmx(uint64(vals[1])+hashSeed)
		res[2] = rotl27(res[2]) ^ xmx(uint64(vals[2])+hashSeed)
		res[3] = rotl27(res[3]) ^ xmx(uint64(vals[3])+hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

func hashColDenseI64(res []uint64, vals []int64) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = xmx(uint64(vals[0]) + hashSeed)
		res[1] = xmx(uint64(vals[1]) + hashSeed)
		res[2] = xmx(uint64(vals[2]) + hashSeed)
		res[3] = xmx(uint64(vals[3]) + hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

func hashCombineColDenseI64(res []uint64, vals []int64) {
	vals = vals[:len(res)]
	for len(res) >= 4 && len(vals) >= 4 {
		res[0] = rotl27(res[0]) ^ xmx(uint64(vals[0])+hashSeed)
		res[1] = rotl27(res[1]) ^ xmx(uint64(vals[1])+hashSeed)
		res[2] = rotl27(res[2]) ^ xmx(uint64(vals[2])+hashSeed)
		res[3] = rotl27(res[3]) ^ xmx(uint64(vals[3])+hashSeed)
		res, vals = res[4:], vals[4:]
	}
	vals = vals[:len(res)]
	for i := range res {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

func hashColDenseF64(res []uint64, vals []float64) {
	n := len(res)
	vals = vals[:n]
	for i := 0; i < n; i++ {
		v := vals[i]
		if v == 0 {
			v = 0 // normalize -0 so it hashes like +0
		}
		res[i] = xmx(math.Float64bits(v) + hashSeed)
	}
}

func hashCombineColDenseF64(res []uint64, vals []float64) {
	n := len(res)
	vals = vals[:n]
	for i := 0; i < n; i++ {
		v := vals[i]
		if v == 0 {
			v = 0
		}
		res[i] = rotl27(res[i]) ^ xmx(math.Float64bits(v)+hashSeed)
	}
}

func aggrSumI64FromU8Dense(acc []int64, vals []uint8, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		acc[g1] += int64(v1)
		acc[g2] += int64(v2)
		acc[g3] += int64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += int64(v)
	}
}

func aggrSumCountI64FromU8Dense(acc []int64, cnt []int64, vals []uint8, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		cnt[g0]++
		acc[g1] += int64(v1)
		cnt[g1]++
		acc[g2] += int64(v2)
		cnt[g2]++
		acc[g3] += int64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += int64(v)
		cnt[g]++
	}
}

func aggrSumI64FromU16Dense(acc []int64, vals []uint16, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		acc[g1] += int64(v1)
		acc[g2] += int64(v2)
		acc[g3] += int64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += int64(v)
	}
}

func aggrSumCountI64FromU16Dense(acc []int64, cnt []int64, vals []uint16, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		cnt[g0]++
		acc[g1] += int64(v1)
		cnt[g1]++
		acc[g2] += int64(v2)
		cnt[g2]++
		acc[g3] += int64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += int64(v)
		cnt[g]++
	}
}

func aggrSumI64FromI32Dense(acc []int64, vals []int32, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		acc[g1] += int64(v1)
		acc[g2] += int64(v2)
		acc[g3] += int64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += int64(v)
	}
}

func aggrSumCountI64FromI32Dense(acc []int64, cnt []int64, vals []int32, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		cnt[g0]++
		acc[g1] += int64(v1)
		cnt[g1]++
		acc[g2] += int64(v2)
		cnt[g2]++
		acc[g3] += int64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += int64(v)
		cnt[g]++
	}
}

func aggrSumI64FromI64Dense(acc []int64, vals []int64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		acc[g1] += int64(v1)
		acc[g2] += int64(v2)
		acc[g3] += int64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += int64(v)
	}
}

func aggrSumCountI64FromI64Dense(acc []int64, cnt []int64, vals []int64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += int64(v0)
		cnt[g0]++
		acc[g1] += int64(v1)
		cnt[g1]++
		acc[g2] += int64(v2)
		cnt[g2]++
		acc[g3] += int64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += int64(v)
		cnt[g]++
	}
}

func aggrSumF64FromU8Dense(acc []float64, vals []uint8, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		acc[g1] += float64(v1)
		acc[g2] += float64(v2)
		acc[g3] += float64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += float64(v)
	}
}

func aggrSumCountF64FromU8Dense(acc []float64, cnt []int64, vals []uint8, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		cnt[g0]++
		acc[g1] += float64(v1)
		cnt[g1]++
		acc[g2] += float64(v2)
		cnt[g2]++
		acc[g3] += float64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += float64(v)
		cnt[g]++
	}
}

func aggrSumF64FromU16Dense(acc []float64, vals []uint16, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		acc[g1] += float64(v1)
		acc[g2] += float64(v2)
		acc[g3] += float64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += float64(v)
	}
}

func aggrSumCountF64FromU16Dense(acc []float64, cnt []int64, vals []uint16, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		cnt[g0]++
		acc[g1] += float64(v1)
		cnt[g1]++
		acc[g2] += float64(v2)
		cnt[g2]++
		acc[g3] += float64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += float64(v)
		cnt[g]++
	}
}

func aggrSumF64FromI32Dense(acc []float64, vals []int32, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		acc[g1] += float64(v1)
		acc[g2] += float64(v2)
		acc[g3] += float64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += float64(v)
	}
}

func aggrSumCountF64FromI32Dense(acc []float64, cnt []int64, vals []int32, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		cnt[g0]++
		acc[g1] += float64(v1)
		cnt[g1]++
		acc[g2] += float64(v2)
		cnt[g2]++
		acc[g3] += float64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += float64(v)
		cnt[g]++
	}
}

func aggrSumF64FromI64Dense(acc []float64, vals []int64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		acc[g1] += float64(v1)
		acc[g2] += float64(v2)
		acc[g3] += float64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += float64(v)
	}
}

func aggrSumCountF64FromI64Dense(acc []float64, cnt []int64, vals []int64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		cnt[g0]++
		acc[g1] += float64(v1)
		cnt[g1]++
		acc[g2] += float64(v2)
		cnt[g2]++
		acc[g3] += float64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += float64(v)
		cnt[g]++
	}
}

func aggrSumF64FromF64Dense(acc []float64, vals []float64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		acc[g1] += float64(v1)
		acc[g2] += float64(v2)
		acc[g3] += float64(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += float64(v)
	}
}

func aggrSumCountF64FromF64Dense(acc []float64, cnt []int64, vals []float64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += float64(v0)
		cnt[g0]++
		acc[g1] += float64(v1)
		cnt[g1]++
		acc[g2] += float64(v2)
		cnt[g2]++
		acc[g3] += float64(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += float64(v)
		cnt[g]++
	}
}

func aggrMinI32Dense(acc []int32, seen []bool, vals []int32, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] = min(acc[g0], v0)
		seen[g0] = true
		acc[g1] = min(acc[g1], v1)
		seen[g1] = true
		acc[g2] = min(acc[g2], v2)
		seen[g2] = true
		acc[g3] = min(acc[g3], v3)
		seen[g3] = true
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] = min(acc[g], v)
		seen[g] = true
	}
}

func aggrMaxI32Dense(acc []int32, seen []bool, vals []int32, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] = max(acc[g0], v0)
		seen[g0] = true
		acc[g1] = max(acc[g1], v1)
		seen[g1] = true
		acc[g2] = max(acc[g2], v2)
		seen[g2] = true
		acc[g3] = max(acc[g3], v3)
		seen[g3] = true
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] = max(acc[g], v)
		seen[g] = true
	}
}

func aggrMinI64Dense(acc []int64, seen []bool, vals []int64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] = min(acc[g0], v0)
		seen[g0] = true
		acc[g1] = min(acc[g1], v1)
		seen[g1] = true
		acc[g2] = min(acc[g2], v2)
		seen[g2] = true
		acc[g3] = min(acc[g3], v3)
		seen[g3] = true
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] = min(acc[g], v)
		seen[g] = true
	}
}

func aggrMaxI64Dense(acc []int64, seen []bool, vals []int64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] = max(acc[g0], v0)
		seen[g0] = true
		acc[g1] = max(acc[g1], v1)
		seen[g1] = true
		acc[g2] = max(acc[g2], v2)
		seen[g2] = true
		acc[g3] = max(acc[g3], v3)
		seen[g3] = true
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] = max(acc[g], v)
		seen[g] = true
	}
}

func aggrMinF64Dense(acc []float64, seen []bool, vals []float64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] = min(acc[g0], v0)
		seen[g0] = true
		acc[g1] = min(acc[g1], v1)
		seen[g1] = true
		acc[g2] = min(acc[g2], v2)
		seen[g2] = true
		acc[g3] = min(acc[g3], v3)
		seen[g3] = true
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] = min(acc[g], v)
		seen[g] = true
	}
}

func aggrMaxF64Dense(acc []float64, seen []bool, vals []float64, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] = max(acc[g0], v0)
		seen[g0] = true
		acc[g1] = max(acc[g1], v1)
		seen[g1] = true
		acc[g2] = max(acc[g2], v2)
		seen[g2] = true
		acc[g3] = max(acc[g3], v3)
		seen[g3] = true
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] = max(acc[g], v)
		seen[g] = true
	}
}

func aggrCountDense(cnt []int64, groups []int32, n int) {
	groups = groups[:n]
	for len(groups) >= 4 {
		cnt[groups[0]]++
		cnt[groups[1]]++
		cnt[groups[2]]++
		cnt[groups[3]]++
		groups = groups[4:]
	}
	for _, g := range groups {
		cnt[g]++
	}
}

func mapAddColColDenseI64(res, a, b []int64) {
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] + b[i]
	}
}

func mapAddColValDenseI64(res, a []int64, v int64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = a[i] + v
	}
}

func mapSubColColDenseI64(res, a, b []int64) {
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] - b[i]
	}
}

func mapSubColValDenseI64(res, a []int64, v int64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = a[i] - v
	}
}

func mapMulColColDenseI64(res, a, b []int64) {
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] * b[i]
	}
}

func mapMulColValDenseI64(res, a []int64, v int64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = a[i] * v
	}
}

func mapSubValColDenseI64(res []int64, v int64, a []int64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = v - a[i]
	}
}

func mapAddColColDenseF64(res, a, b []float64) {
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] + b[i]
	}
}

func mapAddColValDenseF64(res, a []float64, v float64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = a[i] + v
	}
}

func mapSubColColDenseF64(res, a, b []float64) {
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] - b[i]
	}
}

func mapSubColValDenseF64(res, a []float64, v float64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = a[i] - v
	}
}

func mapMulColColDenseF64(res, a, b []float64) {
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] * b[i]
	}
}

func mapMulColValDenseF64(res, a []float64, v float64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = a[i] * v
	}
}

func mapSubValColDenseF64(res []float64, v float64, a []float64) {
	a = a[:len(res)]
	for i := range res {
		res[i] = v - a[i]
	}
}
