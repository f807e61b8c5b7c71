// Command gen generates the width-specialized kernel set for package
// primitives (kernels_dense_gen.go and kernels_sel_gen.go).
//
// The dense file holds the sel==nil fast paths: 4x-unrolled slice-advance
// loops (for len(in) >= 4 { ... in = in[4:] }) — the one unrolled shape
// Go's prove pass actually eliminates bounds checks for; indexed unrolls
// like `for i+4 <= n` keep a check per load because the condition can
// overflow — an unsafe pre-bounded compaction store for select (the
// output index k is data-dependent, so the compiler can never eliminate
// its bounds check; the store is issued through a pointer after res is
// pre-sized to the input length, under the invariant k <= i < len(res)),
// and SWAR word-parallel uint8 compares.
// The sel file holds the selection-vector variants (gather-bound, kept as
// plain predicated loops) plus the exported per-width entry points.
//
// Regenerate with: go generate ./internal/primitives
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

type width struct {
	Suf string // exported suffix, e.g. "I32"
	T   string // Go element type
}

// The widths are the element types of internal/vector (the Number and
// Ordered constraints): a kernel for any other width would be unreachable.
var selWidths = []width{
	{"U8", "uint8"}, {"U16", "uint16"}, {"I32", "int32"}, {"I64", "int64"}, {"F64", "float64"},
}

var hashWidths = []width{
	{"U8", "uint8"}, {"U16", "uint16"}, {"I32", "int32"}, {"I64", "int64"},
}

var sumFrom = hashWidths

var minMaxWidths = []width{{"I32", "int32"}, {"I64", "int64"}, {"F64", "float64"}}

var mapWidths = []width{{"I64", "int64"}, {"F64", "float64"}}

type cmpOp struct {
	Name string // LT
	Op   string // <
	Desc string // "in[i] < v"
}

var cmpOps = []cmpOp{
	{"LT", "<", "a < b"},
	{"LE", "<=", "a <= b"},
	{"GT", ">", "a > b"},
	{"GE", ">=", "a >= b"},
	{"EQ", "==", "a == b"},
	{"NE", "!=", "a != b"},
}

// swarMask returns the mask expression computing the per-lane MSB match
// mask for a u8 SWAR compare, or "" when the op has no SWAR form.
func swarMask(op string) string {
	switch op {
	case "EQ":
		return "m := swarZeroU8(word ^ vv)"
	case "NE":
		return "m := ^swarZeroU8(word^vv) & swarH8"
	case "LT":
		return "m := swarLTU8(word, vv)"
	case "GE":
		return "m := ^swarLTU8(word, vv) & swarH8"
	}
	return ""
}

type mapFn struct {
	Name string // Add
	Op   string // +
}

var mapFns = []mapFn{{"Add", "+"}, {"Sub", "-"}, {"Mul", "*"}}

// t substitutes $KEY tokens and appends to buf.
func t(buf *bytes.Buffer, tmpl string, kv ...string) {
	r := strings.NewReplacer(kv...)
	buf.WriteString(r.Replace(tmpl))
	buf.WriteString("\n")
}

func main() {
	writeFile("kernels_dense_gen.go", genDense())
	writeFile("kernels_sel_gen.go", genSel())
}

func writeFile(name string, src []byte) {
	out, err := format.Source(src)
	if err != nil {
		os.WriteFile(name+".bad", src, 0o644)
		log.Fatalf("format %s: %v (raw written to %s.bad)", name, err, name)
	}
	if err := os.WriteFile(name, out, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", name, len(out))
}

const denseHeader = `// Code generated by gen/main.go. DO NOT EDIT.

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
`

func genDense() []byte {
	buf := &bytes.Buffer{}
	buf.WriteString(denseHeader)

	// --- select col-val ---
	for _, w := range selWidths {
		for _, op := range cmpOps {
			if w.Suf == "U8" {
				if m := swarMask(op.Name); m != "" {
					t(buf, `
func select$OPColValDenseU8(res []int32, in []uint8, v uint8) int {
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
		$MEXPR
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
			$MEXPR
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
		k += b2i(x $CMP v)
		base++
	}
	return k
}`, "$OP", op.Name, "$MEXPR", m, "$CMP", op.Op)
					continue
				}
			}
			t(buf, `
func select$OPColValDense$W(res []int32, in []$T, v $T) int {
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
		k += b2i(x0 $CMP v)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 $CMP v)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 $CMP v)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 $CMP v)
		in = in[4:]
		base += 4
	}
	for _, x := range in {
		storeIdx(rp, k, int32(base))
		k += b2i(x $CMP v)
		base++
	}
	return k
}`, "$OP", op.Name, "$W", w.Suf, "$T", w.T, "$CMP", op.Op)
		}
	}

	// --- select col-col ---
	for _, w := range selWidths {
		for _, op := range cmpOps {
			t(buf, `
func select$OPColColDense$W(res []int32, a, b []$T) int {
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
		k += b2i(x0 $CMP y0)
		storeIdx(rp, k, int32(base+1))
		k += b2i(x1 $CMP y1)
		storeIdx(rp, k, int32(base+2))
		k += b2i(x2 $CMP y2)
		storeIdx(rp, k, int32(base+3))
		k += b2i(x3 $CMP y3)
		a, b = a[4:], b[4:]
		base += 4
	}
	b = b[:len(a)]
	for i, x := range a {
		storeIdx(rp, k, int32(base+i))
		k += b2i(x $CMP b[i])
	}
	return k
}`, "$OP", op.Name, "$W", w.Suf, "$T", w.T, "$CMP", op.Op)
		}
	}

	// --- select between ---
	for _, w := range selWidths {
		t(buf, `
func selectBetweenColValDense$W(res []int32, in []$T, lo, hi $T) int {
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
}`, "$W", w.Suf, "$T", w.T)
	}

	// --- hash ---
	for _, w := range hashWidths {
		t(buf, `
func hashColDense$W(res []uint64, vals []$T) {
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

func hashCombineColDense$W(res []uint64, vals []$T) {
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
}`, "$W", w.Suf, "$T", w.T)
	}
	t(buf, `
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
}`)

	// --- aggregates: sum and fused sum+count ---
	for _, acc := range []width{{"I64", "int64"}, {"F64", "float64"}} {
		from := sumFrom
		if acc.Suf == "F64" {
			from = append(append([]width{}, sumFrom...), width{"F64", "float64"})
		}
		for _, w := range from {
			t(buf, `
func aggrSum$AFrom$WDense(acc []$AT, vals []$T, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += $AT(v0)
		acc[g1] += $AT(v1)
		acc[g2] += $AT(v2)
		acc[g3] += $AT(v3)
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		acc[groups[i]] += $AT(v)
	}
}

func aggrSumCount$AFrom$WDense(acc []$AT, cnt []int64, vals []$T, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] += $AT(v0)
		cnt[g0]++
		acc[g1] += $AT(v1)
		cnt[g1]++
		acc[g2] += $AT(v2)
		cnt[g2]++
		acc[g3] += $AT(v3)
		cnt[g3]++
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] += $AT(v)
		cnt[g]++
	}
}`, "$AT", acc.T, "$A", acc.Suf, "$W", w.Suf, "$T", w.T)
		}
	}

	// --- aggregates: branchless min/max ---
	for _, w := range minMaxWidths {
		for _, mm := range []string{"min", "max"} {
			name := "Min"
			if mm == "max" {
				name = "Max"
			}
			t(buf, `
func aggr$NM$WDense(acc []$T, seen []bool, vals []$T, groups []int32) {
	groups = groups[:len(vals)]
	for len(vals) >= 4 && len(groups) >= 4 {
		g0, g1, g2, g3 := groups[0], groups[1], groups[2], groups[3]
		v0, v1, v2, v3 := vals[0], vals[1], vals[2], vals[3]
		acc[g0] = $MM(acc[g0], v0)
		seen[g0] = true
		acc[g1] = $MM(acc[g1], v1)
		seen[g1] = true
		acc[g2] = $MM(acc[g2], v2)
		seen[g2] = true
		acc[g3] = $MM(acc[g3], v3)
		seen[g3] = true
		vals, groups = vals[4:], groups[4:]
	}
	groups = groups[:len(vals)]
	for i, v := range vals {
		g := groups[i]
		acc[g] = $MM(acc[g], v)
		seen[g] = true
	}
}`, "$NM", name, "$W", w.Suf, "$T", w.T, "$MM", mm)
		}
	}

	// --- count ---
	t(buf, `
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
}`)

	// --- map ---
	for _, w := range mapWidths {
		for _, fn := range mapFns {
			t(buf, `
func map$FNColColDense$W(res, a, b []$T) {
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = a[i] $OP b[i]
	}
}

func map$FNColValDense$W(res, a []$T, v $T) {
	a = a[:len(res)]
	for i := range res {
		res[i] = a[i] $OP v
	}
}`, "$FN", fn.Name, "$OP", fn.Op, "$W", w.Suf, "$T", w.T)
		}
		t(buf, `
func mapSubValColDense$W(res []$T, v $T, a []$T) {
	a = a[:len(res)]
	for i := range res {
		res[i] = v - a[i]
	}
}`, "$W", w.Suf, "$T", w.T)
	}

	return buf.Bytes()
}

const selHeader = `// Code generated by gen/main.go. DO NOT EDIT.

// Selection-vector variants and the exported per-width kernel entry
// points. Sel paths gather through data-dependent positions, so they stay
// plain predicated loops; the dense fast paths live in
// kernels_dense_gen.go. Every exported kernel picks the path itself, so
// callers pass sel (possibly nil) straight through.

package primitives
`

func genSel() []byte {
	buf := &bytes.Buffer{}
	buf.WriteString(selHeader)

	// --- select ---
	for _, w := range selWidths {
		for _, op := range cmpOps {
			t(buf, `
func select$OPColValSel$W(res []int32, in []$T, v $T, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] $CMP v)
	}
	return k
}

// Select$OPColVal$W writes the positions i (or sel entries) where
// in[i] $CMP v holds into res and returns how many matched.
func Select$OPColVal$W(res []int32, in []$T, v $T, sel []int32) int {
	if sel == nil {
		return select$OPColValDense$W(res, in, v)
	}
	return select$OPColValSel$W(res, in, v, sel)
}

func select$OPColColSel$W(res []int32, a, b []$T, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] $CMP b[i])
	}
	return k
}

// Select$OPColCol$W writes the positions where a[i] $CMP b[i] holds into
// res and returns how many matched.
func Select$OPColCol$W(res []int32, a, b []$T, sel []int32) int {
	if sel == nil {
		return select$OPColColDense$W(res, a, b)
	}
	return select$OPColColSel$W(res, a, b, sel)
}`, "$OP", op.Name, "$W", w.Suf, "$T", w.T, "$CMP", op.Op)
		}
		t(buf, `
func selectBetweenColValSel$W(res []int32, in []$T, lo, hi $T, sel []int32) int {
	k := 0
	for _, i := range sel {
		x := in[i]
		res[k] = i
		k += b2i(x >= lo && x <= hi)
	}
	return k
}

// SelectBetweenColVal$W writes the positions where lo <= in[i] <= hi
// holds into res and returns how many matched.
func SelectBetweenColVal$W(res []int32, in []$T, lo, hi $T, sel []int32) int {
	if sel == nil {
		return selectBetweenColValDense$W(res, in, lo, hi)
	}
	return selectBetweenColValSel$W(res, in, lo, hi, sel)
}`, "$W", w.Suf, "$T", w.T)
	}

	// --- hash ---
	for _, w := range hashWidths {
		t(buf, `
// HashCol$W seeds res with the hash of each live vals position.
func HashCol$W(res []uint64, vals []$T, sel []int32) {
	if sel == nil {
		hashColDense$W(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

// HashCombineCol$W folds each live vals position into the running hash
// in res.
func HashCombineCol$W(res []uint64, vals []$T, sel []int32) {
	if sel == nil {
		hashCombineColDense$W(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}`, "$W", w.Suf, "$T", w.T)
	}
	t(buf, `
// HashColF64 seeds res with the hash of each live vals position,
// normalizing -0 to +0 first.
func HashColF64(res []uint64, vals []float64, sel []int32) {
	if sel == nil {
		hashColDenseF64(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = HashCombineValueF64(0, vals[i])
	}
}

// HashCombineColF64 folds each live vals position into the running hash.
func HashCombineColF64(res []uint64, vals []float64, sel []int32) {
	if sel == nil {
		hashCombineColDenseF64(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = HashCombineValueF64(res[i], vals[i])
	}
}`)

	// --- aggregates ---
	for _, acc := range []width{{"I64", "int64"}, {"F64", "float64"}} {
		from := sumFrom
		if acc.Suf == "F64" {
			from = append(append([]width{}, sumFrom...), width{"F64", "float64"})
		}
		for _, w := range from {
			t(buf, `
// AggrSum$AFrom$W adds each live vals position into acc at its group id.
func AggrSum$AFrom$W(acc []$AT, vals []$T, groups, sel []int32) {
	if sel == nil {
		aggrSum$AFrom$WDense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += $AT(vals[i])
	}
}

// AggrSumCount$AFrom$W is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCount$AFrom$W(acc []$AT, cnt []int64, vals []$T, groups, sel []int32) {
	if sel == nil {
		aggrSumCount$AFrom$WDense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += $AT(vals[i])
		cnt[g]++
	}
}`, "$AT", acc.T, "$A", acc.Suf, "$W", w.Suf, "$T", w.T)
		}
	}
	for _, w := range minMaxWidths {
		for _, nm := range []struct{ N, MM string }{{"Min", "min"}, {"Max", "max"}} {
			t(buf, `
// Aggr$NMBranchless$W is the branch-free grouped $MM kernel. Unlike the
// generic Aggr$NM it requires acc pre-initialized to the $MM identity
// sentinel for unseen groups (MinMaxSentinel); seen is still maintained
// for merge bookkeeping, via unconditional stores.
func Aggr$NMBranchless$W(acc []$T, seen []bool, vals []$T, groups, sel []int32) {
	if sel == nil {
		aggr$NM$WDense(acc, seen, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] = $MM(acc[g], vals[i])
		seen[g] = true
	}
}`, "$NM", nm.N, "$MM", nm.MM, "$W", w.Suf, "$T", w.T)
		}
	}
	t(buf, `
// AggrCountKernel bumps the per-group row count for each live position;
// n is the vector length when sel is nil.
func AggrCountKernel(cnt []int64, groups []int32, sel []int32, n int) {
	if sel == nil {
		aggrCountDense(cnt, groups, n)
		return
	}
	for _, i := range sel {
		cnt[groups[i]]++
	}
}`)

	// --- map ---
	for _, w := range mapWidths {
		for _, fn := range mapFns {
			t(buf, `
// Map$FNColCol$W computes res[i] = a[i] $OP b[i] at the live positions.
func Map$FNColCol$W(res, a, b []$T, sel []int32) {
	if sel == nil {
		map$FNColColDense$W(res, a, b)
		return
	}
	for _, i := range sel {
		res[i] = a[i] $OP b[i]
	}
}

// Map$FNColVal$W computes res[i] = a[i] $OP v at the live positions.
func Map$FNColVal$W(res, a []$T, v $T, sel []int32) {
	if sel == nil {
		map$FNColValDense$W(res, a, v)
		return
	}
	for _, i := range sel {
		res[i] = a[i] $OP v
	}
}`, "$FN", fn.Name, "$OP", fn.Op, "$W", w.Suf, "$T", w.T)
		}
		t(buf, `
// MapSubValCol$W computes res[i] = v - a[i] at the live positions.
func MapSubValCol$W(res []$T, v $T, a []$T, sel []int32) {
	if sel == nil {
		mapSubValColDense$W(res, v, a)
		return
	}
	for _, i := range sel {
		res[i] = v - a[i]
	}
}`, "$W", w.Suf, "$T", w.T)
	}

	return buf.Bytes()
}
