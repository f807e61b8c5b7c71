// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark name carries the paper artifact it reproduces; run
//
//	go test -run '^$' -bench . -benchmem
//
// for the full sweep. The printed renditions are examples/tpch_q1
// (Tables 2, 3 and 5) and examples/vectorsize (Figure 10); the per-kernel
// table is BenchmarkKernels in internal/primitives, and the numbers
// tracked across versions come from benchmark/run.sh.
package x100_test

import (
	"fmt"
	"sync"
	"testing"

	"x100/internal/algebra"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/expr"
	"x100/internal/mil"
	"x100/internal/primitives"
	"x100/internal/tpch"
	"x100/internal/trace"
	"x100/internal/volcano"
)

const benchSF = 0.02

var (
	benchOnce sync.Once
	benchDB   *core.Database
)

func getBenchDB(b *testing.B) *core.Database {
	b.Helper()
	benchOnce.Do(func() {
		db, err := tpch.Generate(tpch.Config{SF: benchSF, Seed: 1})
		if err != nil {
			panic(err)
		}
		benchDB = db
	})
	return benchDB
}

// --- Figure 2: branch vs predicated selection across selectivities ---

func benchSelInput() ([]int32, []int32) {
	n := 1 << 16
	in := make([]int32, n)
	r := uint64(42)
	for i := range in {
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		in[i] = int32(r % 100)
	}
	return in, make([]int32, n)
}

func BenchmarkFig2_SelectBranch(b *testing.B) {
	in, res := benchSelInput()
	for _, sel := range []int32{10, 50, 90} {
		b.Run(fmt.Sprintf("selectivity%d", sel), func(b *testing.B) {
			b.SetBytes(int64(4 * len(in)))
			for i := 0; i < b.N; i++ {
				primitives.SelectLTColValBranch(res, in, sel, nil)
			}
		})
	}
}

func BenchmarkFig2_SelectPredicated(b *testing.B) {
	in, res := benchSelInput()
	for _, sel := range []int32{10, 50, 90} {
		b.Run(fmt.Sprintf("selectivity%d", sel), func(b *testing.B) {
			b.SetBytes(int64(4 * len(in)))
			for i := 0; i < b.N; i++ {
				primitives.SelectLTColVal(res, in, sel, nil)
			}
		})
	}
}

// --- Table 1: Q1 across the four architectures ---

func BenchmarkTable1_Q1_Volcano(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	eng := volcano.New(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Q1_MIL(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	eng := mil.New(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Q1_X100(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(db, plan, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Q1_Hardcoded(b *testing.B) {
	db := getBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tpch.HardcodedQ1(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_Q1_X100Parallel measures the multi-core scan-aggregate
// path (morsel-partitioned scan, parallel partial aggregation) at several
// worker counts; compare against BenchmarkTable1_Q1_X100 for the speedup.
func BenchmarkTable1_Q1_X100Parallel(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism%d", p), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(db, plan, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: profiled tuple-at-a-time Q1 ---

func BenchmarkTable2_Q1_VolcanoProfiled(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := &volcano.Engine{DB: db, Profile: volcano.NewProfile()}
		if _, err := eng.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: MIL statement trace of Q1 ---

func BenchmarkTable3_Q1_MILTraced(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := &mil.Engine{DB: db, Trace: &mil.Trace{}}
		if _, err := eng.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4: all 22 queries, MIL vs X100 ---

func BenchmarkTable4_MIL(b *testing.B) {
	db := getBenchDB(b)
	eng := mil.New(db)
	for q := 1; q <= tpch.NumQueries; q++ {
		plan, err := tpch.Query(q, benchSF)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4_X100(b *testing.B) {
	db := getBenchDB(b)
	for q := 1; q <= tpch.NumQueries; q++ {
		plan, err := tpch.Query(q, benchSF)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(db, plan, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 5: traced X100 Q1 ---

func BenchmarkTable5_Q1_X100Traced(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		opts.Tracer = trace.New()
		if _, err := core.Run(db, plan, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: Q1 vs vector size ---

func BenchmarkFig10_VectorSize(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1, 16, 256, 1024, 16 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.BatchSize = size
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(db, plan, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 4.2 ablation: compound primitives ---

func BenchmarkAblation_MahalanobisFused(b *testing.B) {
	n := 1 << 16
	a := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	res := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], c[i], d[i] = float64(i%97), float64(i%89), float64(i%83)+1
	}
	b.SetBytes(int64(8 * 4 * n))
	for i := 0; i < b.N; i++ {
		primitives.FusedMahalanobis(res, a, c, d, nil)
	}
}

func BenchmarkAblation_MahalanobisUnfused(b *testing.B) {
	n := 1 << 16
	a := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	res := make([]float64, n)
	t1 := make([]float64, n)
	t2 := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], c[i], d[i] = float64(i%97), float64(i%89), float64(i%83)+1
	}
	b.SetBytes(int64(8 * 4 * n))
	for i := 0; i < b.N; i++ {
		primitives.MahalanobisUnfused(res, a, c, d, t1, t2, nil)
	}
}

func BenchmarkAblation_Q1Fused(b *testing.B) {
	benchQ1Fusion(b, true)
}

func BenchmarkAblation_Q1Unfused(b *testing.B) {
	benchQ1Fusion(b, false)
}

func benchQ1Fusion(b *testing.B, fuse bool) {
	db := getBenchDB(b)
	plan, err := tpch.Query(1, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Fuse = fuse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(db, plan, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 4.3 ablation: summary-index pruning ---

func BenchmarkAblation_SummaryIndex(b *testing.B) {
	db := getBenchDB(b)
	plan, err := tpch.Query(6, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.NoSummaryIndex = disabled
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(db, plan, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 4.3 ablation: code-domain execution ---

// BenchmarkAblation_CodeDomain runs a string predicate and a string
// group-by over a disk-attached, enum-free lineitem, whose low-cardinality
// string columns land as dictionary-coded chunks, with code-domain
// execution on and off (off is the decode-first baseline of
// x100.WithoutCodeDomain). The chunks stay in the buffer pool after the
// first run, so this measures decode and engine work, not I/O.
func BenchmarkAblation_CodeDomain(b *testing.B) {
	mem, err := tpch.Generate(tpch.Config{SF: benchSF, Seed: 1, PlainColumns: true})
	if err != nil {
		b.Fatal(err)
	}
	lt, err := mem.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	store, err := columnbm.NewStore(dir, 1<<13, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.SaveTable(lt); err != nil {
		b.Fatal(err)
	}
	db := core.NewDatabase()
	if _, err := core.AttachDiskTable(db, store, "lineitem"); err != nil {
		b.Fatal(err)
	}
	c := expr.C
	plans := []struct {
		name string
		plan algebra.Node
	}{
		{"strpred_eq", algebra.NewAggr(
			algebra.NewSelect(
				algebra.NewScan("lineitem", "l_shipinstruct", "l_extendedprice"),
				expr.EQE(c("l_shipinstruct"), expr.Str("DELIVER IN PERSON"))),
			nil,
			[]algebra.AggExpr{algebra.Count("n"), algebra.Sum("s", c("l_extendedprice"))})},
		{"strgroup_shipmode", algebra.NewAggr(
			algebra.NewScan("lineitem", "l_shipmode", "l_extendedprice"),
			[]algebra.NamedExpr{algebra.NE("l_shipmode", c("l_shipmode"))},
			[]algebra.AggExpr{algebra.Sum("s", c("l_extendedprice")), algebra.Count("n")})},
	}
	for _, p := range plans {
		for _, off := range []bool{false, true} {
			name := p.name + "/on"
			if off {
				name = p.name + "/off"
			}
			b.Run(name, func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.NoCodeDomain = off
				for i := 0; i < b.N; i++ {
					if _, err := core.Run(db, p.plan, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
