package sindex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"x100/internal/primitives"
)

func TestSummaryBoundsOnSorted(t *testing.T) {
	col := make([]int32, 1000)
	for i := range col {
		col[i] = int32(i)
	}
	s := BuildSummary(col, 100)
	lo, hi := s.Bounds(250, true, 349, true)
	if lo > 250 || hi < 350 {
		t.Fatalf("bounds [%d,%d) exclude matches", lo, hi)
	}
	// Bounds must be tight to within a granule on sorted data.
	if lo < 200 || hi > 400 {
		t.Fatalf("bounds [%d,%d) too loose", lo, hi)
	}
	// One-sided predicates.
	lo, hi = s.Bounds(900, true, 0, false)
	if lo < 800 || hi != 1000 {
		t.Fatalf(">=900: [%d,%d)", lo, hi)
	}
	lo, hi = s.Bounds(0, false, 99, true)
	if lo != 0 || hi > 200 {
		t.Fatalf("<=99: [%d,%d)", lo, hi)
	}
	// Empty range clamps sanely.
	lo, hi = s.Bounds(5000, true, 6000, true)
	if lo != hi {
		t.Fatalf("no-match range should be empty, got [%d,%d)", lo, hi)
	}
}

func TestSummaryEmptyAndSmall(t *testing.T) {
	s := BuildSummary([]int32{}, 10)
	lo, hi := s.Bounds(1, true, 2, true)
	if lo != 0 || hi != 0 {
		t.Fatal("empty column")
	}
	s2 := BuildSummary([]float64{3.5}, 10)
	lo, hi = s2.Bounds(0, false, 10, true)
	if lo != 0 || hi != 1 {
		t.Fatalf("single value: [%d,%d)", lo, hi)
	}
}

// Property: bounds are sound for arbitrary (unsorted) data — every row
// matching lo <= v <= hi lies inside the returned range.
func TestSummarySoundness(t *testing.T) {
	f := func(col []int32, a, b int32) bool {
		if a > b {
			a, b = b, a
		}
		s := BuildSummary(col, 4)
		lo, hi := s.Bounds(a, true, b, true)
		for i, v := range col {
			if v >= a && v <= b {
				if i < lo || i >= hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// twoPassSummary is the reference BuildSummary: a forward running max and a
// backward running min, element by element.
func twoPassSummary[T primitives.Ordered](col []T, granule int) *Summary[T] {
	n := len(col)
	ng := (n + granule - 1) / granule
	s := &Summary[T]{Granule: granule, N: n, RunMax: make([]T, ng+1), RevMin: make([]T, ng+1)}
	if n == 0 {
		return s
	}
	var runMax T
	for g := 0; g < ng; g++ {
		lo, hi := g*granule, min((g+1)*granule, n)
		for i := lo; i < hi; i++ {
			if i == 0 || col[i] > runMax {
				runMax = col[i]
			}
		}
		s.RunMax[g+1] = runMax
	}
	var revMin T
	for g := ng - 1; g >= 0; g-- {
		lo, hi := g*granule, min((g+1)*granule, n)
		for i := hi - 1; i >= lo; i-- {
			if g == ng-1 && i == hi-1 {
				revMin = col[i]
			} else if col[i] < revMin {
				revMin = col[i]
			}
		}
		s.RevMin[g] = revMin
	}
	return s
}

// TestBuildSummaryDifferential pins the one-sweep BuildSummary to the
// two-pass reference, bit for bit, on sorted, reverse, random and constant
// columns of lengths around granule boundaries, and on float columns with
// NaN (first, last, at granule starts, inside), -0/+0 ties and ±Inf.
func TestBuildSummaryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, granule := range []int{1, 4, DefaultGranule} {
		for _, n := range []int{0, 1, granule - 1, granule, granule + 1, 3 * granule, 3*granule + 1} {
			if n < 0 {
				continue
			}
			shapes := map[string]func(i int) int32{
				"sorted":   func(i int) int32 { return int32(i) },
				"reverse":  func(i int) int32 { return int32(n - i) },
				"random":   func(int) int32 { return rng.Int31n(50) - 25 },
				"constant": func(int) int32 { return 7 },
			}
			for name, gen := range shapes {
				col := make([]int32, n)
				for i := range col {
					col[i] = gen(i)
				}
				checkSummary(t, name, col, granule, func(a, b int32) bool { return a == b })
			}
		}
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	special := []float64{nan, inf, -inf, negZero, 0, 1, -1}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, granule := range []int{1, 4, 16} {
		for _, n := range []int{1, 2, granule - 1, granule, granule + 1, 3 * granule, 3*granule + 1} {
			if n <= 0 {
				continue
			}
			for trial := 0; trial < 50; trial++ {
				col := make([]float64, n)
				for i := range col {
					col[i] = special[rng.Intn(len(special))]
				}
				checkSummary(t, "special", col, granule, sameBits)
			}
			for _, at := range []int{0, n - 1, min(granule, n-1), n / 2} {
				col := make([]float64, n)
				for i := range col {
					col[i] = float64(i % 5)
				}
				col[at] = nan
				checkSummary(t, "nan", col, granule, sameBits)
				col[at] = negZero
				checkSummary(t, "negzero", col, granule, sameBits)
			}
		}
	}
}

func checkSummary[T primitives.Ordered](t *testing.T, name string, col []T, granule int, same func(a, b T) bool) {
	t.Helper()
	got, want := BuildSummary(col, granule), twoPassSummary(col, granule)
	if got.N != want.N || len(got.RunMax) != len(want.RunMax) || len(got.RevMin) != len(want.RevMin) {
		t.Fatalf("%s n=%d granule=%d: shape %d/%d/%d, want %d/%d/%d", name, len(col), granule,
			got.N, len(got.RunMax), len(got.RevMin), want.N, len(want.RunMax), len(want.RevMin))
	}
	for g := range want.RunMax {
		if !same(got.RunMax[g], want.RunMax[g]) || !same(got.RevMin[g], want.RevMin[g]) {
			t.Fatalf("%s n=%d granule=%d %v: granule %d RunMax %v RevMin %v, want %v %v", name, len(col), granule,
				col, g, got.RunMax[g], got.RevMin[g], want.RunMax[g], want.RevMin[g])
		}
	}
}
