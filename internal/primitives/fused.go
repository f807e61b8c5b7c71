package primitives

// Compound (fused) primitives. Section 4.2 of the paper compiles whole
// expression sub-trees into a single primitive ("compound primitive
// signatures") and reports them roughly twice as fast as chains of
// single-function primitives, because intermediate results stay in CPU
// registers instead of being stored to and re-loaded from a vector.
//
// The expression compiler pattern-matches these shapes; the root
// BenchmarkAblation_Mahalanobis* and BenchmarkAblation_Q1* benchmarks
// measure fused vs unfused directly.

// FusedSubMulValColCol computes res[i] = (v - a[i]) * b[i], the
// discountprice = (1 - l_discount) * l_extendedprice kernel of Query 1.
func FusedSubMulValColCol[T Number](res []T, v T, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = (v - a[i]) * b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = (v - a[i]) * b[i]
	}
}

// FusedAddMulValColCol computes res[i] = (v + a[i]) * b[i], the
// sum_charge = (1 + l_tax) * discountprice kernel of Query 1.
func FusedAddMulValColCol[T Number](res []T, v T, a, b []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = (v + a[i]) * b[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	for i := range res {
		res[i] = (v + a[i]) * b[i]
	}
}

// FusedMulColColCol computes res[i] = a[i] * b[i] * c[i].
func FusedMulColColCol[T Number](res, a, b, c []T, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			res[i] = a[i] * b[i] * c[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	c = c[:len(res)]
	for i := range res {
		res[i] = a[i] * b[i] * c[i]
	}
}

// FusedMahalanobis computes res[i] = square(a[i]-b[i]) / c[i], the
// /(square(-(double*, double*)), double*) compound signature the paper
// quotes as performance-critical for multimedia retrieval.
func FusedMahalanobis(res, a, b, c []float64, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			d := a[i] - b[i]
			res[i] = d * d / c[i]
		}
		return
	}
	a = a[:len(res)]
	b = b[:len(res)]
	c = c[:len(res)]
	for i := range res {
		d := a[i] - b[i]
		res[i] = d * d / c[i]
	}
}

// MahalanobisUnfused is the three-primitive equivalent of FusedMahalanobis
// (sub, square-as-mul, div) retained for the compound-primitive ablation.
func MahalanobisUnfused(res, a, b, c, tmp1, tmp2 []float64, sel []int32) {
	MapSubColCol(tmp1, a, b, sel)
	MapMulColCol(tmp2, tmp1, tmp1, sel)
	MapDivColCol(res, tmp2, c, sel)
}

// FusedSumSubMulValColCol computes sum((v - a[i]) * b[i]) without storing
// the products: the fully fused aggregate used by the compound ablation.
func FusedSumSubMulValColCol[T Number](v T, a, b []T, sel []int32) T {
	var s T
	if sel != nil {
		for _, i := range sel {
			s += (v - a[i]) * b[i]
		}
		return s
	}
	b = b[:len(a)]
	for i := range a {
		s += (v - a[i]) * b[i]
	}
	return s
}
