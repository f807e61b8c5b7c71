package primitives

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests pitting every width-specialized kernel against a
// naive scalar reference, across element widths, selection-vector shapes
// (nil / dense / sparse / empty), and boundary lengths around the unroll
// factors (0, 1, 3..5, 7..9, 15..17).

var kernelLengths = []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1023}

// selShapes returns the selection-vector shapes to exercise for length n.
func selShapes(n int) [][]int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	var sparse []int32
	for i := 0; i < n; i += 3 {
		sparse = append(sparse, int32(i))
	}
	if sparse == nil {
		sparse = []int32{}
	}
	return [][]int32{nil, all, sparse, {}}
}

func testSelectWidth[T Number](t *testing.T, name string, mk func(r *rand.Rand) T) {
	t.Helper()
	type cmpFn = func(a, b T) bool
	ops := []struct {
		name string
		cmp  cmpFn
		cv   func(res []int32, in []T, v T, sel []int32) int
		cc   func(res []int32, a, b []T, sel []int32) int
	}{
		{"lt", func(a, b T) bool { return a < b }, SelectLTColVal[T], SelectLTColCol[T]},
		{"le", func(a, b T) bool { return a <= b }, SelectLEColVal[T], SelectLEColCol[T]},
		{"gt", func(a, b T) bool { return a > b }, SelectGTColVal[T], SelectGTColCol[T]},
		{"ge", func(a, b T) bool { return a >= b }, SelectGEColVal[T], SelectGEColCol[T]},
		{"eq", func(a, b T) bool { return a == b }, SelectEQColVal[T], SelectEQColCol[T]},
		{"ne", func(a, b T) bool { return a != b }, SelectNEColVal[T], SelectNEColCol[T]},
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range kernelLengths {
		a := make([]T, n)
		b := make([]T, n)
		for i := range a {
			a[i] = mk(r)
			b[i] = mk(r)
		}
		pivots := []T{mk(r), mk(r)}
		if n > 0 {
			pivots = append(pivots, a[0], a[n/2], a[n-1])
		}
		for _, sel := range selShapes(n) {
			for _, op := range ops {
				for _, v := range pivots {
					res := make([]int32, n)
					k := op.cv(res, a, v, sel)
					want := oracleSel(a, sel, func(x T) bool { return op.cmp(x, v) })
					checkSelResult(t, name+"/"+op.name+"/colval", k, res, want)
				}
				res := make([]int32, n)
				k := op.cc(res, a, b, sel)
				want := oracleSelCC(a, b, sel, op.cmp)
				checkSelResult(t, name+"/"+op.name+"/colcol", k, res, want)
			}
			// between
			if n > 0 {
				lo, hi := a[n/3], a[2*n/3]
				if hi < lo {
					lo, hi = hi, lo
				}
				res := make([]int32, n)
				k := SelectBetweenColVal(res, a, lo, hi, sel)
				want := oracleSel(a, sel, func(x T) bool { return x >= lo && x <= hi })
				checkSelResult(t, name+"/between", k, res, want)
			}
		}
	}
}

func oracleSel[T any](in []T, sel []int32, pred func(T) bool) []int32 {
	out := []int32{}
	if sel != nil {
		for _, i := range sel {
			if pred(in[i]) {
				out = append(out, i)
			}
		}
		return out
	}
	for i := range in {
		if pred(in[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}

func oracleSelCC[T any](a, b []T, sel []int32, cmp func(x, y T) bool) []int32 {
	out := []int32{}
	if sel != nil {
		for _, i := range sel {
			if cmp(a[i], b[i]) {
				out = append(out, i)
			}
		}
		return out
	}
	for i := range a {
		if cmp(a[i], b[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}

func checkSelResult(t *testing.T, name string, k int, res []int32, want []int32) {
	t.Helper()
	if k != len(want) {
		t.Fatalf("%s: count %d, want %d", name, k, len(want))
	}
	for i := 0; i < k; i++ {
		if res[i] != want[i] {
			t.Fatalf("%s: res[%d]=%d, want %d", name, i, res[i], want[i])
		}
	}
}

func TestKernelSelectDifferential(t *testing.T) {
	// Small value ranges force collisions so EQ/NE see real matches, and
	// the uint8 range crosses the SWAR lane boundary values.
	testSelectWidth(t, "u8", func(r *rand.Rand) uint8 { return uint8(r.Intn(256)) })
	testSelectWidth(t, "u8narrow", func(r *rand.Rand) uint8 { return uint8(r.Intn(8)) })
	testSelectWidth(t, "u16", func(r *rand.Rand) uint16 { return uint16(r.Intn(1000)) })
	testSelectWidth(t, "i32", func(r *rand.Rand) int32 { return int32(r.Intn(200) - 100) })
	testSelectWidth(t, "i64", func(r *rand.Rand) int64 { return int64(r.Intn(200) - 100) })
	testSelectWidth(t, "f64", func(r *rand.Rand) float64 { return math.Round(r.Float64()*100) / 4 })
}

func testHashWidth[T ~uint8 | ~uint16 | ~int32 | ~int64](t *testing.T, name string, mk func(r *rand.Rand) T) {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	for _, n := range kernelLengths {
		a := make([]T, n)
		b := make([]T, n)
		for i := range a {
			a[i] = mk(r)
			b[i] = mk(r)
		}
		for _, sel := range selShapes(n) {
			// vectorized == scalar fold from 0
			got := make([]uint64, n)
			HashInt(got, a, sel)
			iterPositions(n, sel, func(i int32) {
				want := HashCombineValueInt(0, uint64(a[i]))
				if got[i] != want {
					t.Fatalf("%s: hash[%d] = %x, want %x", name, i, got[i], want)
				}
			})
			// combine == scalar fold
			HashCombineInt(got, b, sel)
			iterPositions(n, sel, func(i int32) {
				want := HashCombineValueInt(HashCombineValueInt(0, uint64(a[i])), uint64(b[i]))
				if got[i] != want {
					t.Fatalf("%s: combine[%d] mismatch", name, i)
				}
			})
		}
	}
}

func iterPositions(n int, sel []int32, f func(int32)) {
	if sel != nil {
		for _, i := range sel {
			f(i)
		}
		return
	}
	for i := 0; i < n; i++ {
		f(int32(i))
	}
}

func TestKernelHashDifferential(t *testing.T) {
	testHashWidth(t, "u8", func(r *rand.Rand) uint8 { return uint8(r.Intn(256)) })
	testHashWidth(t, "u16", func(r *rand.Rand) uint16 { return uint16(r.Intn(1 << 16)) })
	testHashWidth(t, "i32", func(r *rand.Rand) int32 { return int32(r.Uint32()) })
	testHashWidth(t, "i64", func(r *rand.Rand) int64 { return int64(r.Uint64()) })
}

func TestKernelAggrSumCountDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const nGroups = 13
	for _, n := range kernelLengths {
		groups := make([]int32, n)
		f64s := make([]float64, n)
		i32s := make([]int32, n)
		for i := range groups {
			groups[i] = int32(r.Intn(nGroups))
			f64s[i] = math.Round(r.Float64()*1000) / 8
			i32s[i] = int32(r.Intn(2000) - 1000)
		}
		for _, sel := range selShapes(n) {
			// f64 sum
			got := make([]float64, nGroups)
			want := make([]float64, nGroups)
			AggrSum(got, f64s, groups, sel)
			RefAggrSum(want, f64s, groups, sel)
			for g := range got {
				if got[g] != want[g] {
					t.Fatalf("sum f64 g=%d: %v vs %v", g, got[g], want[g])
				}
			}
			// i32 -> i64 sum
			gotI := make([]int64, nGroups)
			wantI := make([]int64, nGroups)
			AggrSum(gotI, i32s, groups, sel)
			RefAggrSum(wantI, i32s, groups, sel)
			for g := range gotI {
				if gotI[g] != wantI[g] {
					t.Fatalf("sum i32 g=%d: %v vs %v", g, gotI[g], wantI[g])
				}
			}
			// count
			gotC := make([]int64, nGroups)
			wantC := make([]int64, nGroups)
			AggrCount(gotC, groups, sel, n)
			RefAggrCount(wantC, groups, sel, n)
			for g := range gotC {
				if gotC[g] != wantC[g] {
					t.Fatalf("count g=%d: %v vs %v", g, gotC[g], wantC[g])
				}
			}
			// fused sum+count == separate sum and count
			fa := make([]float64, nGroups)
			fc := make([]int64, nGroups)
			AggrSumCountF64FromF64(fa, fc, f64s, groups, sel)
			for g := range fa {
				if fa[g] != want[g] || fc[g] != wantC[g] {
					t.Fatalf("fused g=%d: (%v,%v) vs (%v,%v)", g, fa[g], fc[g], want[g], wantC[g])
				}
			}
		}
	}
}

func TestKernelAggrMinMaxBranchless(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	const nGroups = 9
	for _, n := range kernelLengths {
		groups := make([]int32, n)
		f64s := make([]float64, n)
		i64s := make([]int64, n)
		for i := range groups {
			groups[i] = int32(r.Intn(nGroups))
			f64s[i] = math.Round(r.Float64()*100) / 4
			i64s[i] = int64(r.Intn(1000) - 500)
		}
		for _, sel := range selShapes(n) {
			// float64: sentinel-initialized branchless vs branchy reference
			gotMin := make([]float64, nGroups)
			gotMax := make([]float64, nGroups)
			for g := range gotMin {
				gotMin[g] = math.Inf(1)
				gotMax[g] = math.Inf(-1)
			}
			gotSeen := make([]bool, nGroups)
			gotSeen2 := make([]bool, nGroups)
			AggrMinBranchlessF64(gotMin, gotSeen, f64s, groups, sel)
			AggrMaxBranchlessF64(gotMax, gotSeen2, f64s, groups, sel)

			wantMin := make([]float64, nGroups)
			wantMax := make([]float64, nGroups)
			wantSeen := make([]bool, nGroups)
			wantSeen2 := make([]bool, nGroups)
			RefAggrMin(wantMin, wantSeen, f64s, groups, sel)
			RefAggrMax(wantMax, wantSeen2, f64s, groups, sel)
			for g := range wantMin {
				if gotSeen[g] != wantSeen[g] {
					t.Fatalf("min f64 seen[%d]: %v vs %v", g, gotSeen[g], wantSeen[g])
				}
				if wantSeen[g] && (gotMin[g] != wantMin[g] || gotMax[g] != wantMax[g]) {
					t.Fatalf("minmax f64 g=%d: (%v,%v) vs (%v,%v)", g, gotMin[g], gotMax[g], wantMin[g], wantMax[g])
				}
			}

			// int64 with MaxInt64/MinInt64 sentinels
			gotMinI := make([]int64, nGroups)
			gotMaxI := make([]int64, nGroups)
			for g := range gotMinI {
				gotMinI[g] = math.MaxInt64
				gotMaxI[g] = math.MinInt64
			}
			seenI := make([]bool, nGroups)
			seenI2 := make([]bool, nGroups)
			AggrMinBranchlessI64(gotMinI, seenI, i64s, groups, sel)
			AggrMaxBranchlessI64(gotMaxI, seenI2, i64s, groups, sel)
			wantMinI := make([]int64, nGroups)
			wantMaxI := make([]int64, nGroups)
			wsI := make([]bool, nGroups)
			wsI2 := make([]bool, nGroups)
			RefAggrMin(wantMinI, wsI, i64s, groups, sel)
			RefAggrMax(wantMaxI, wsI2, i64s, groups, sel)
			for g := range wantMinI {
				if wsI[g] && (gotMinI[g] != wantMinI[g] || gotMaxI[g] != wantMaxI[g]) {
					t.Fatalf("minmax i64 g=%d: (%v,%v) vs (%v,%v)", g, gotMinI[g], gotMaxI[g], wantMinI[g], wantMaxI[g])
				}
			}
		}
	}
}

func TestKernelMapDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range kernelLengths {
		a := make([]float64, n)
		b := make([]float64, n)
		ai := make([]int64, n)
		bi := make([]int64, n)
		for i := range a {
			a[i] = r.Float64() * 100
			b[i] = r.Float64() * 100
			ai[i] = int64(r.Intn(1000))
			bi[i] = int64(r.Intn(1000))
		}
		for _, sel := range selShapes(n) {
			res := make([]float64, n)
			MapMulColCol(res, a, b, sel)
			want := make([]float64, n)
			RefMapMulColCol(want, a, b, sel)
			iterPositions(n, sel, func(i int32) {
				if res[i] != want[i] {
					t.Fatalf("mul f64 [%d]: %v vs %v", i, res[i], want[i])
				}
			})
			resI := make([]int64, n)
			MapAddColCol(resI, ai, bi, sel)
			iterPositions(n, sel, func(i int32) {
				if resI[i] != ai[i]+bi[i] {
					t.Fatalf("add i64 [%d]", i)
				}
			})
			MapSubValCol(res, 1.0, a, sel)
			iterPositions(n, sel, func(i int32) {
				if res[i] != 1-a[i] {
					t.Fatalf("subvalcol [%d]", i)
				}
			})
		}
	}
}

// TestKernelSWARHelpers locks the SWAR lane formulas down at the bit level
// across all byte values, including the borrow/zero-detect corner cases.
func TestKernelSWARHelpers(t *testing.T) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			// lane 0 carries x,y; lane 3 carries the complements to catch
			// cross-lane borrows; remaining lanes are zero.
			wx := uint64(x) | uint64(255-x)<<24
			wy := uint64(y) | uint64(255-y)<<24
			lt := swarLTU8(wx, wy)
			if got, want := lt&0x80 != 0, x < y; got != want {
				t.Fatalf("swarLTU8 lane0 x=%d y=%d: %v", x, y, got)
			}
			if got, want := lt&0x80000000 != 0, 255-x < 255-y; got != want {
				t.Fatalf("swarLTU8 lane3 x=%d y=%d: %v", x, y, got)
			}
			z := swarZeroU8(wx ^ wy)
			if got, want := z&0x80 != 0, x == y; got != want {
				t.Fatalf("swarZeroU8 lane0 x=%d y=%d: %v", x, y, got)
			}
		}
	}
}
