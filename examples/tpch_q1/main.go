// tpch_q1 runs the paper's flagship microbenchmark — TPC-H Query 1 — on
// all three execution architectures and prints one profile per engine at
// laptop scale: the gprof-style profile of the tuple-at-a-time run (Table
// 2), the per-statement trace of the column-at-a-time run (Table 3) and
// the per-primitive trace of the vectorized run (Table 5).
//
//	go run ./examples/tpch_q1 -sf 0.05
//
// Table 3 contrasts a working set larger than the CPU caches with a
// cache-resident one; run again with -sf 0.001 for the cache-resident half.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"x100"
)

func main() {
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	flag.Parse()

	fmt.Printf("generating TPC-H at SF=%g ...\n", *sf)
	db, err := x100.GenerateTPCH(*sf)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := x100.TPCHQuery(1, *sf)
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string, opts ...x100.ExecOption) *x100.Result {
		t0 := time.Now()
		res, err := db.Exec(plan, opts...)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-28s %10.4fs\n", name, time.Since(t0).Seconds())
		return res
	}

	fmt.Println("\nTPC-H Query 1:")
	run("Volcano (tuple-at-a-time)", x100.WithEngine(x100.Volcano))
	run("MIL (column-at-a-time)", x100.WithEngine(x100.MIL))
	res := run("X100 (vectorized)", x100.WithEngine(x100.Vectorized))

	fmt.Println("\nresult:")
	fmt.Print(res.Format(10))

	prof := x100.NewProfile()
	if _, err := db.Exec(plan, x100.WithEngine(x100.Volcano), x100.WithProfile(prof)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntuple-at-a-time profile (paper Table 2 format):")
	fmt.Print(prof.Render())

	milTrace := x100.NewMILTrace()
	if _, err := db.Exec(plan, x100.WithEngine(x100.MIL), x100.WithMILTrace(milTrace)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncolumn-at-a-time statement trace (paper Table 3 format):")
	fmt.Print(milTrace.Render())

	tr := x100.NewTracer()
	if _, err := db.Exec(plan, x100.WithTracer(tr)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvectorized primitive trace (paper Table 5 format):")
	fmt.Print(tr.Render())
}
