package primitives

import "testing"

// BenchmarkKernels measures each generated width-specialized kernel
// against the frozen scalar reference it replaced (reference.go):
//
//	go test -run '^$' -bench Kernels ./internal/primitives
//
// Every case runs a "gen" and a "ref" sub-benchmark over the same
// cache-resident input (the paper sizes vectors to the cache for the same
// reason) and reports ns/value. The numbers tracked across versions are
// the benchmark module's primitives.* per-layer metrics.
func BenchmarkKernels(b *testing.B) {
	const n = 1 << 16
	r := uint64(42)
	next := func() uint64 {
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		return r * 0x2545F4914F6CDD1D
	}
	i32 := make([]int32, n)
	i64 := make([]int64, n)
	f64 := make([]float64, n)
	u8 := make([]uint8, n)
	groups := make([]int32, n)
	for i := range i32 {
		x := next()
		i32[i] = int32(x % 100)
		i64[i] = int64(x)
		f64[i] = float64(x%1000) * 0.25
		u8[i] = uint8(x)
		groups[i] = int32(next() % 64)
	}
	selRes := make([]int32, n)
	hashRes := make([]uint64, n)
	mulRes := make([]float64, n)
	accF := make([]float64, 64)
	accI := make([]int64, 64)
	cnt := make([]int64, 64)
	seen := make([]bool, 64)

	cases := []struct {
		name     string
		gen, ref func()
	}{
		{"select_lt_i32",
			func() { SelectLTColValI32(selRes, i32, 50, nil) },
			func() { RefSelectLTColVal(selRes, i32, 50, nil) }},
		{"select_eq_u8_swar",
			func() { SelectEQColValU8(selRes, u8, 7, nil) },
			func() { RefSelectEQColVal(selRes, u8, 7, nil) }},
		// ~5% selectivity: the SWAR probe commits to word-parallel bit
		// extraction. ~39%: the probe falls back to the predicated scalar
		// loop, so gen should stay near ref rather than beat it.
		{"select_lt_u8_swar_sparse",
			func() { SelectLTColValU8(selRes, u8, 12, nil) },
			func() { RefSelectLTColVal(selRes, u8, 12, nil) }},
		{"select_lt_u8_swar_dense",
			func() { SelectLTColValU8(selRes, u8, 100, nil) },
			func() { RefSelectLTColVal(selRes, u8, 100, nil) }},
		{"hash_i64",
			func() { HashColI64(hashRes, i64, nil) },
			func() { RefHashInt(hashRes, i64, nil) }},
		{"hash_combine_i32",
			func() { HashCombineColI32(hashRes, i32, nil) },
			func() { RefHashCombineInt(hashRes, i32, nil) }},
		{"hash_f64",
			func() { HashColF64(hashRes, f64, nil) },
			func() { RefHashFloat64(hashRes, f64, nil) }},
		{"aggr_sum_f64",
			func() { AggrSumF64FromF64(accF, f64, groups, nil) },
			func() { RefAggrSum(accF, f64, groups, nil) }},
		{"aggr_sumcount_f64",
			func() { AggrSumCountF64FromF64(accF, cnt, f64, groups, nil) },
			func() {
				RefAggrSum(accF, f64, groups, nil)
				RefAggrCount(cnt, groups, nil, n)
			}},
		{"aggr_min_i64_branchless",
			func() { AggrMinBranchlessI64(accI, seen, i64, groups, nil) },
			func() { RefAggrMin(accI, seen, i64, groups, nil) }},
		{"map_mul_f64",
			func() { MapMulColColF64(mulRes, f64, f64, nil) },
			func() { RefMapMulColCol(mulRes, f64, f64, nil) }},
	}
	for _, c := range cases {
		for _, side := range []struct {
			name string
			fn   func()
		}{{"gen", c.gen}, {"ref", c.ref}} {
			b.Run(c.name+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					side.fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
			})
		}
	}
}
