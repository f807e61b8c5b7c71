package primitives

import (
	"math"
	"testing"
	"testing/quick"
)

// naive reference implementations for differential/property testing.

func naiveSelLT(in []int32, v int32, sel []int32) []int32 {
	var out []int32
	iter(in, sel, func(i int32) {
		if in[i] < v {
			out = append(out, i)
		}
	})
	return out
}

func iter[T any](in []T, sel []int32, f func(int32)) {
	if sel != nil {
		for _, i := range sel {
			f(i)
		}
		return
	}
	for i := range in {
		f(int32(i))
	}
}

func TestSelectBranchEqualsPredicated(t *testing.T) {
	f := func(vals []int32, pivot int32) bool {
		resA := make([]int32, len(vals))
		resB := make([]int32, len(vals))
		ka := SelectLTColValBranch(resA, vals, pivot, nil)
		kb := SelectLTColVal(resB, vals, pivot, nil)
		if ka != kb {
			return false
		}
		for i := 0; i < ka; i++ {
			if resA[i] != resB[i] {
				return false
			}
		}
		want := naiveSelLT(vals, pivot, nil)
		if len(want) != ka {
			return false
		}
		for i := range want {
			if want[i] != resA[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectWithSelectionVector(t *testing.T) {
	vals := []float64{5, 1, 9, 3, 7, 2, 8}
	sel := []int32{1, 2, 4, 6} // candidates: 1,9,7,8
	res := make([]int32, len(vals))
	k := SelectGTColVal(res, vals, 6.0, sel)
	if k != 3 || res[0] != 2 || res[1] != 4 || res[2] != 6 {
		t.Fatalf("got k=%d res=%v", k, res[:k])
	}
}

func TestSelectOps(t *testing.T) {
	in := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	res := make([]int32, len(in))
	cases := []struct {
		name string
		k    int
		fn   func() int
	}{
		{"lt", 4, func() int { return SelectLTColVal(res, in, int64(4), nil) }},
		{"le", 5, func() int { return SelectLEColVal(res, in, int64(4), nil) }},
		{"gt", 3, func() int { return SelectGTColVal(res, in, int64(4), nil) }},
		{"ge", 4, func() int { return SelectGEColVal(res, in, int64(4), nil) }},
		{"eq", 1, func() int { return SelectEQColVal(res, in, int64(4), nil) }},
		{"ne", 7, func() int { return SelectNEColVal(res, in, int64(4), nil) }},
	}
	for _, tc := range cases {
		if got := tc.fn(); got != tc.k {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.k)
		}
	}
}

func TestSelectColCol(t *testing.T) {
	a := []int32{1, 5, 3, 7}
	b := []int32{2, 4, 3, 6}
	res := make([]int32, 4)
	if k := SelectLTColCol(res, a, b, nil); k != 1 || res[0] != 0 {
		t.Fatalf("lt: %d %v", k, res[:k])
	}
	if k := SelectEQColCol(res, a, b, nil); k != 1 || res[0] != 2 {
		t.Fatalf("eq: %d %v", k, res[:k])
	}
	if k := SelectGEColCol(res, a, b, nil); k != 3 {
		t.Fatalf("ge: %d", k)
	}
}

func TestSelectBetween(t *testing.T) {
	in := []float64{0.02, 0.05, 0.06, 0.07, 0.08}
	res := make([]int32, len(in))
	k := SelectBetweenColVal(res, in, 0.05, 0.07, nil)
	if k != 3 || res[0] != 1 || res[2] != 3 {
		t.Fatalf("between: %d %v", k, res[:k])
	}
}

func TestMapArithmeticAgainstScalar(t *testing.T) {
	f := func(a, b []float64) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		res := make([]float64, n)
		MapAddColCol(res, a, b, nil)
		for i := 0; i < n; i++ {
			if res[i] != a[i]+b[i] && !(math.IsNaN(res[i]) && math.IsNaN(a[i]+b[i])) {
				return false
			}
		}
		MapMulColCol(res, a, b, nil)
		for i := 0; i < n; i++ {
			if res[i] != a[i]*b[i] && !(math.IsNaN(res[i]) && math.IsNaN(a[i]*b[i])) {
				return false
			}
		}
		MapSubValCol(res, 1.0, a, nil)
		for i := 0; i < n; i++ {
			if res[i] != 1-a[i] && !(math.IsNaN(res[i]) && math.IsNaN(1-a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapWithSelectionLeavesOtherPositionsAlone(t *testing.T) {
	a := []int64{1, 2, 3, 4, 5}
	b := []int64{10, 20, 30, 40, 50}
	res := []int64{-1, -1, -1, -1, -1}
	MapAddColCol(res, a, b, []int32{1, 3})
	want := []int64{-1, 22, -1, 44, -1}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res=%v", res)
		}
	}
}

func TestFusedEqualsUnfused(t *testing.T) {
	f := func(a, b []float64, v float64) bool {
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		fused := make([]float64, n)
		manual := make([]float64, n)
		tmp := make([]float64, n)
		FusedSubMulValColCol(fused, v, a, b, nil)
		MapSubValCol(tmp, v, a, nil)
		MapMulColCol(manual, tmp, b, nil)
		for i := range fused {
			if fused[i] != manual[i] && !(math.IsNaN(fused[i]) && math.IsNaN(manual[i])) {
				return false
			}
		}
		FusedAddMulValColCol(fused, v, a, b, nil)
		MapAddColVal(tmp, a, v, nil)
		MapMulColCol(manual, tmp, b, nil)
		for i := range fused {
			if fused[i] != manual[i] && !(math.IsNaN(fused[i]) && math.IsNaN(manual[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFusedMahalanobis(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{0.5, 1, 4}
	c := []float64{2, 4, 8}
	fused := make([]float64, 3)
	manual := make([]float64, 3)
	t1 := make([]float64, 3)
	t2 := make([]float64, 3)
	FusedMahalanobis(fused, a, b, c, nil)
	MahalanobisUnfused(manual, a, b, c, t1, t2, nil)
	for i := range fused {
		if fused[i] != manual[i] {
			t.Fatalf("fused=%v manual=%v", fused, manual)
		}
	}
	if fused[0] != 0.125 {
		t.Fatalf("fused[0]=%v", fused[0])
	}
}

func TestFusedSumSubMul(t *testing.T) {
	a := []float64{0.1, 0.2}
	b := []float64{100, 200}
	got := FusedSumSubMulValColCol(1.0, a, b, nil)
	want := 0.9*100 + 0.8*200
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAggrPrimitives(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6}
	groups := []int32{0, 1, 0, 1, 0, 1}
	acc := make([]float64, 2)
	AggrSum(acc, vals, groups, nil)
	if acc[0] != 9 || acc[1] != 12 {
		t.Fatalf("sum: %v", acc)
	}
	cnt := make([]int64, 2)
	AggrCount(cnt, groups, nil, len(vals))
	if cnt[0] != 3 || cnt[1] != 3 {
		t.Fatalf("count: %v", cnt)
	}
	mn := make([]float64, 2)
	seen := make([]bool, 2)
	AggrMin(mn, seen, vals, groups, nil)
	if mn[0] != 1 || mn[1] != 2 {
		t.Fatalf("min: %v", mn)
	}
	mx := make([]float64, 2)
	seen2 := make([]bool, 2)
	AggrMax(mx, seen2, vals, groups, nil)
	if mx[0] != 5 || mx[1] != 6 {
		t.Fatalf("max: %v", mx)
	}
}

func TestAggrWithSelection(t *testing.T) {
	vals := []int64{10, 20, 30, 40}
	groups := []int32{0, 0, 1, 1}
	sel := []int32{0, 3}
	acc := make([]int64, 2)
	AggrSum(acc, vals, groups, sel)
	if acc[0] != 10 || acc[1] != 40 {
		t.Fatalf("sum: %v", acc)
	}
}

func TestSumMinMaxCol(t *testing.T) {
	vals := []int64{4, 2, 9, 1}
	if s := SumCol[int64](vals, nil); s != 16 {
		t.Fatalf("sum %d", s)
	}
	if s := SumCol[int64](vals, []int32{1, 3}); s != 3 {
		t.Fatalf("sel sum %d", s)
	}
	if m, ok := MinCol(vals, nil); !ok || m != 1 {
		t.Fatalf("min %d %v", m, ok)
	}
	if m, ok := MaxCol(vals, nil); !ok || m != 9 {
		t.Fatalf("max %d %v", m, ok)
	}
	if _, ok := MinCol([]int64{}, nil); ok {
		t.Fatal("min of empty should report !ok")
	}
}

func TestDirectGroupU8(t *testing.T) {
	a := []uint8{1, 2, 1}
	b := []uint8{3, 4, 5}
	g := make([]int32, 3)
	DirectGroupU8(g, a, b, nil)
	if g[0] != (1<<8|3) || g[1] != (2<<8|4) || g[2] != (1<<8|5) {
		t.Fatalf("groups: %v", g)
	}
	DirectGroupU8(g, a, nil, nil)
	if g[0] != 1 || g[1] != 2 || g[2] != 1 {
		t.Fatalf("single: %v", g)
	}
}

func TestHashConsistency(t *testing.T) {
	// Scalar fold starting from 0 must equal the vectorized path.
	vals := []int64{0, 1, -5, 1 << 40}
	res := make([]uint64, len(vals))
	HashInt(res, vals, nil)
	for i, v := range vals {
		if got := HashCombineValueInt(0, uint64(v)); got != res[i] {
			t.Fatalf("int %d: %x vs %x", v, got, res[i])
		}
	}
	f64s := []float64{0, -0.0, 3.14}
	HashFloat64(res[:3], f64s, nil)
	if res[0] != res[1] {
		t.Fatal("0 and -0 must hash equal")
	}
	for i, v := range f64s {
		if got := HashCombineValueF64(0, v); got != res[i] {
			t.Fatalf("float %v mismatch", v)
		}
	}
	strs := []string{"", "a", "hello"}
	HashString(res[:3], strs, nil)
	for i, s := range strs {
		if got := HashCombineValueStr(0, s); got != res[i] {
			t.Fatalf("string %q mismatch", s)
		}
	}
	// Combining two columns vectorized == scalar fold.
	h2 := make([]uint64, len(vals))
	HashInt(h2, vals, nil)
	HashCombineInt(h2, vals, nil)
	for i, v := range vals {
		want := HashCombineValueInt(HashCombineValueInt(0, uint64(v)), uint64(v))
		if h2[i] != want {
			t.Fatalf("combine mismatch at %d", i)
		}
	}
}

// likeCases is the LIKE table shared by TestLikeMatcher and the seed corpus
// of FuzzLikeMatch.
var likeCases = []struct {
	pattern string
	s       string
	want    bool
}{
	{"%BRASS", "LARGE POLISHED BRASS", true},
	{"%BRASS", "BRASS PLATED TIN", false},
	{"PROMO%", "PROMO BURNISHED COPPER", true},
	{"PROMO%", "STANDARD PROMO", false},
	{"PROMO%", "PROMO TIN", true},
	{"PROMO%", "STANDARD TIN", false},
	{"%green%", "slate green powder", true},
	{"%green%", "greenish", true},
	{"%green%", "gren", false},
	{"%special%requests%", "the special final requests nag", true},
	{"%special%requests%", "requests special", false},
	{"MEDIUM POLISHED%", "MEDIUM POLISHED COPPER", true},
	{"MEDIUM POLISHED%", "MEDIUM PLATED COPPER", false},
	{"abc", "abc", true},
	{"abc", "abcd", false},
	{"a_c", "abc", true},
	{"a_c", "ac", false},
	{"_b%", "abc", true},
	{"_b%", "bbc", true},
	{"_b%", "bcb", false},
	{"%", "anything", true},
	{"%", "", true},
	{"", "", true},
	{"", "x", false},
	{"%%", "x", true},
	{"a%b%c", "aXbYc", true},
	{"a%b%c", "acb", false},
	// A later segment must not overlap an earlier match.
	{"%aa%aa%", "aaa", false},
	{"%aa%aa%", "aaaa", true},
	{"%ab%b", "ab", false},
	{"%ab%b", "abb", true},
	{"a%a", "a", false},
	{"a%a", "aa", true},
	// _ next to %.
	{"_%_", "a", false},
	{"_%_", "ab", true},
	{"%_a_%", "xay", true},
	{"%_a_%", "ay", false},
	{"%a_", "ab", true},
	{"%a_", "ba", false},
	// NUL bytes and multi-byte UTF-8: _ matches one byte.
	{"a\x00%", "a\x00b", true},
	{"%\x00", "\x00", true},
	{"_", "é", false},
	{"__", "é", true},
	{"%é%", "café au lait", true},
	{"caf_", "café", false},
}

func TestLikeMatcher(t *testing.T) {
	for _, tc := range likeCases {
		m := CompileLike(tc.pattern)
		if got := m.Match(tc.s); got != tc.want {
			t.Errorf("like(%q, %q) = %v, want %v", tc.s, tc.pattern, got, tc.want)
		}
	}
}

// TestMapLikeColVal applies one compiled matcher across a string column,
// densely and under a selection vector, as the map_like_str_col primitive
// does; positions outside the selection stay untouched.
func TestMapLikeColVal(t *testing.T) {
	in := []string{"PROMO TIN", "STANDARD TIN", "PROMO BRASS"}
	m := CompileLike("PROMO%")
	res := make([]bool, len(in))
	for i := range res {
		res[i] = m.Match(in[i])
	}
	if !res[0] || res[1] || !res[2] {
		t.Fatalf("dense res=%v", res)
	}
	res = make([]bool, len(in))
	for _, i := range []int32{1, 2} {
		res[i] = m.Match(in[i])
	}
	if res[0] || res[1] || !res[2] {
		t.Fatalf("selected res=%v", res)
	}
}

// likeOracle is a byte-wise dynamic-programming LIKE reference:
// m[j] reports whether the pattern prefix consumed so far matches s[:j].
// It is O(len(s)·len(p)) and shares no code with LikeMatcher.
func likeOracle(p, s string) bool {
	m := make([]bool, len(s)+1)
	m[0] = true
	for i := 0; i < len(p); i++ {
		next := make([]bool, len(s)+1)
		switch p[i] {
		case '%':
			next[0] = m[0]
			for j := 1; j <= len(s); j++ {
				next[j] = m[j] || next[j-1]
			}
		default:
			for j := 1; j <= len(s); j++ {
				next[j] = m[j-1] && (p[i] == '_' || p[i] == s[j-1])
			}
		}
		m = next
	}
	return m[len(s)]
}

// FuzzLikeMatch checks the compiled matcher against likeOracle.
func FuzzLikeMatch(f *testing.F) {
	for _, tc := range likeCases {
		f.Add(tc.pattern, tc.s)
	}
	f.Add("", "")
	f.Add("%", "")
	f.Add("_", "")
	f.Add("%%_%%", "")
	f.Add("%ab_ba%ab", "abxbaab")
	f.Add("%a_a%", "aaa")
	f.Add("%_%_%", "\x00")
	f.Add("%\x00_\x00%", "\x00\xff\x00")
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if len(pattern)*len(s) > 1<<20 {
			return
		}
		want := likeOracle(pattern, s)
		if got := CompileLike(pattern).Match(s); got != want {
			t.Fatalf("like(%q, %q) = %v, oracle says %v", s, pattern, got, want)
		}
	})
}

func TestSubstrAndCase(t *testing.T) {
	in := []string{"13-555", "29-444", "7"}
	res := make([]string, 3)
	MapSubstrCol(res, in, 1, 2, nil)
	if res[0] != "13" || res[1] != "29" || res[2] != "7" {
		t.Fatalf("substr: %v", res)
	}
	cond := []bool{true, false, true}
	a := []int64{1, 2, 3}
	b := []int64{10, 20, 30}
	out := make([]int64, 3)
	MapSelectColBool(out, cond, a, b, nil)
	if out[0] != 1 || out[1] != 20 || out[2] != 3 {
		t.Fatalf("case: %v", out)
	}
}

func TestBoolMapPrimitives(t *testing.T) {
	a := []int32{1, 2, 3}
	res := make([]bool, 3)
	MapLTColValBool(res, a, int32(2), nil)
	if !res[0] || res[1] || res[2] {
		t.Fatalf("lt: %v", res)
	}
	b := []bool{true, false, true}
	c := []bool{true, true, false}
	out := make([]bool, 3)
	MapAndColCol(out, b, c, nil)
	if !out[0] || out[1] || out[2] {
		t.Fatalf("and: %v", out)
	}
	MapOrColCol(out, b, c, nil)
	if !out[0] || !out[1] || !out[2] {
		t.Fatalf("or: %v", out)
	}
	MapNotCol(out, b, nil)
	if out[0] || !out[1] || out[2] {
		t.Fatalf("not: %v", out)
	}
}

func TestGatherPrimitives(t *testing.T) {
	base := []string{"a", "b", "c", "d"}
	idx := []int32{3, 0, 2}
	res := make([]string, 3)
	GatherCol(res, base, idx, nil)
	if res[0] != "d" || res[1] != "a" || res[2] != "c" {
		t.Fatalf("gather: %v", res)
	}
	codes := []uint8{1, 1, 0}
	dict := []float64{0.5, 0.7}
	fres := make([]float64, 3)
	GatherColU8(fres, dict, codes, nil)
	if fres[0] != 0.7 || fres[2] != 0.5 {
		t.Fatalf("gatherU8: %v", fres)
	}
	codes16 := []uint16{1, 0}
	sres := make([]string, 2)
	GatherColU16(sres, base, codes16, nil)
	if sres[0] != "b" || sres[1] != "a" {
		t.Fatalf("gatherU16: %v", sres)
	}
}

func TestMapConvert(t *testing.T) {
	in := []int32{1, -2, 3}
	out := make([]float64, 3)
	MapConvert(out, in, nil)
	if out[0] != 1 || out[1] != -2 || out[2] != 3 {
		t.Fatalf("convert: %v", out)
	}
	back := make([]int64, 3)
	MapConvert(back, out, nil)
	if back[1] != -2 {
		t.Fatalf("convert back: %v", back)
	}
}
