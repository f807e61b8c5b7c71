// vectorsize demonstrates Figure 10 of the paper interactively: the same
// query run with vector sizes from 1 (tuple-at-a-time interpretation
// overhead) through the cache-resident sweet spot (~1K) to table-sized
// vectors (full materialization, MIL behavior). Each size reports the
// fastest of five runs, the noise-robust estimate for a deterministic
// query: preemption and frequency changes only ever add time.
//
//	go run ./examples/vectorsize -sf 0.05
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"x100"
)

// trials is the number of runs per vector size; the fastest is reported.
const trials = 5

func main() {
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	flag.Parse()

	db, err := x100.GenerateTPCH(*sf)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := x100.TPCHQuery(1, *sf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-H Q1 at SF=%g, varying vector size, best of %d (paper Figure 10):\n\n", *sf, trials)
	fmt.Printf("%12s %12s %16s\n", "vector size", "seconds", "vs best")
	type point struct {
		size int
		d    time.Duration
	}
	var pts []point
	best := time.Duration(1<<62 - 1)
	for _, size := range []int{1, 4, 16, 64, 256, 1024, 4096, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		d := time.Duration(1<<62 - 1)
		for i := 0; i < trials; i++ {
			t0 := time.Now()
			if _, err := db.Exec(plan, x100.WithVectorSize(size)); err != nil {
				log.Fatal(err)
			}
			d = min(d, time.Since(t0))
		}
		pts = append(pts, point{size, d})
		best = min(best, d)
	}
	for _, p := range pts {
		fmt.Printf("%12d %12.4f %15.1fx\n", p.size, p.d.Seconds(), p.d.Seconds()/best.Seconds())
	}
	fmt.Println("\nThe sweet spot sits where all vectors of the query fit the CPU caches;")
	fmt.Println("size 1 pays interpretation overhead per tuple, table-sized vectors pay")
	fmt.Println("materialization bandwidth — the two architectures the paper improves on.")
}
