package primitives

// Aggregation primitives (aggr_* in the paper). Grouped variants take a
// groups vector assigning each live input position a dense group index
// (the "position in hash table" vector of Figure 6) and update per-group
// accumulator arrays in place. The paper specifies each aggregate as an
// init/update/epilogue triple; here init is the zero value of the
// accumulator slice (or seen[] for min/max) and the epilogue (e.g. avg =
// sum/count) is performed by the aggregation operator.

// AggrSum accumulates acc[groups[i]] += vals[i] with a widening conversion
// into the accumulator type A (float64 for floats, int64 for integers).
// Native accumulator/value width pairs route to the generated 4x-unrolled
// kernels; derived types fall through to the plain loop.
func AggrSum[A, T Number](acc []A, vals []T, groups []int32, sel []int32) {
	switch acc := any(acc).(type) {
	case []int64:
		switch vs := any(vals).(type) {
		case []uint8:
			AggrSumI64FromU8(acc, vs, groups, sel)
			return
		case []uint16:
			AggrSumI64FromU16(acc, vs, groups, sel)
			return
		case []int32:
			AggrSumI64FromI32(acc, vs, groups, sel)
			return
		case []int64:
			AggrSumI64FromI64(acc, vs, groups, sel)
			return
		}
	case []float64:
		switch vs := any(vals).(type) {
		case []uint8:
			AggrSumF64FromU8(acc, vs, groups, sel)
			return
		case []uint16:
			AggrSumF64FromU16(acc, vs, groups, sel)
			return
		case []int32:
			AggrSumF64FromI32(acc, vs, groups, sel)
			return
		case []int64:
			AggrSumF64FromI64(acc, vs, groups, sel)
			return
		case []float64:
			AggrSumF64FromF64(acc, vs, groups, sel)
			return
		}
	}
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

// AggrCount increments acc[groups[i]] for every live position.
func AggrCount(acc []int64, groups []int32, sel []int32, n int) {
	AggrCountKernel(acc, groups, sel, n)
}

// AggrMin folds the per-group minimum. seen tracks whether a group has
// received any value yet.
func AggrMin[T Ordered](acc []T, seen []bool, vals []T, groups []int32, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			g := groups[i]
			if !seen[g] || vals[i] < acc[g] {
				acc[g] = vals[i]
				seen[g] = true
			}
		}
		return
	}
	groups = groups[:len(vals)]
	for i := range vals {
		g := groups[i]
		if !seen[g] || vals[i] < acc[g] {
			acc[g] = vals[i]
			seen[g] = true
		}
	}
}

// AggrMax folds the per-group maximum.
func AggrMax[T Ordered](acc []T, seen []bool, vals []T, groups []int32, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			g := groups[i]
			if !seen[g] || vals[i] > acc[g] {
				acc[g] = vals[i]
				seen[g] = true
			}
		}
		return
	}
	groups = groups[:len(vals)]
	for i := range vals {
		g := groups[i]
		if !seen[g] || vals[i] > acc[g] {
			acc[g] = vals[i]
			seen[g] = true
		}
	}
}

// SumCol computes an ungrouped sum with a widening conversion; used by
// scalar-aggregate plans (e.g. TPC-H Q6) where no grouping is present.
func SumCol[A, T Number](vals []T, sel []int32) A {
	var s A
	if sel != nil {
		for _, i := range sel {
			s += A(vals[i])
		}
		return s
	}
	for i := range vals {
		s += A(vals[i])
	}
	return s
}

// MinCol computes an ungrouped minimum; ok reports whether any value was
// present.
func MinCol[T Ordered](vals []T, sel []int32) (m T, ok bool) {
	if sel != nil {
		for _, i := range sel {
			if !ok || vals[i] < m {
				m, ok = vals[i], true
			}
		}
		return m, ok
	}
	for i := range vals {
		if !ok || vals[i] < m {
			m, ok = vals[i], true
		}
	}
	return m, ok
}

// MaxCol computes an ungrouped maximum.
func MaxCol[T Ordered](vals []T, sel []int32) (m T, ok bool) {
	if sel != nil {
		for _, i := range sel {
			if !ok || vals[i] > m {
				m, ok = vals[i], true
			}
		}
		return m, ok
	}
	for i := range vals {
		if !ok || vals[i] > m {
			m, ok = vals[i], true
		}
	}
	return m, ok
}

// DirectGroupI32 is map_directgrp over one int32 key whose dense domain is
// [0, n) — a join index's row ids: the group index of an in-domain key is
// the key itself. It returns the largest in-domain key of the live rows
// (-1 when there is none) and the number of live rows whose key lies
// outside the domain; their group indexes are left for the caller to set.
func DirectGroupI32(groups, keys []int32, sel []int32, n int32) (maxKey int32, outside int) {
	maxKey = -1
	if sel != nil {
		for _, i := range sel {
			k := keys[i]
			groups[i] = k
			if uint32(k) < uint32(n) {
				maxKey = max(maxKey, k)
			} else {
				outside++
			}
		}
		return maxKey, outside
	}
	keys = keys[:len(groups)]
	for i, k := range keys {
		groups[i] = k
		if uint32(k) < uint32(n) {
			maxKey = max(maxKey, k)
		} else {
			outside++
		}
	}
	return maxKey, outside
}

// DirectGroupU8 computes the direct-aggregation group index for one or two
// single-byte key columns: (a<<8)+b, mirroring the hard-coded Query 1 UDF
// (Figure 4) and the map_directgrp primitive of Table 5. With b nil the
// group index is a itself.
func DirectGroupU8(groups []int32, a, b []uint8, sel []int32) {
	if b == nil {
		if sel != nil {
			for _, i := range sel {
				groups[i] = int32(a[i])
			}
			return
		}
		a = a[:len(groups)]
		for i := range groups {
			groups[i] = int32(a[i])
		}
		return
	}
	if sel != nil {
		for _, i := range sel {
			groups[i] = int32(a[i])<<8 | int32(b[i])
		}
		return
	}
	a = a[:len(groups)]
	b = b[:len(groups)]
	for i := range groups {
		groups[i] = int32(a[i])<<8 | int32(b[i])
	}
}
