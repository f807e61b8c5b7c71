// Command benchmark is the repository's one benchmark: four workloads over
// the whole engine, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. README.md describes it; BENCHMARK.json at the
// repository root names every workload and metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	runChildIfAsked()
	var (
		workload = flag.String("workload", "", "workload to run; empty runs all four, each in a process of its own")
		seed     = flag.Uint64("seed", 1, "seed of the generated data, the query order and the write stream")
		seconds  = flag.Float64("seconds", 0, "length of the timed window; 0 selects run_seconds of BENCHMARK.json")
		trace    = flag.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
		out      = flag.String("out", filepath.Join("benchmark", "out"), "directory of the result and span files")
		list     = flag.Bool("list", false, "print the workload and metric names the program reports")
		compare  = flag.Bool("compare", false, "compare two sets of result files: -compare A B (files or directories)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out, *list, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace int, out string, list, compare bool, args []string) error {
	man, err := loadManifest()
	if err != nil {
		return err
	}
	switch {
	case list:
		printNames(man)
		return nil
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files or directories")
		}
		return compareSets(os.Stdout, man, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(man.RunSeconds)
	}
	if workload == "" {
		// One process per workload, so no workload inherits another's heap.
		for _, w := range workloads {
			cmd := exec.Command(os.Args[0], "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
		}
		return nil
	}
	def := workloadByName(workload)
	if def == nil {
		return fmt.Errorf("no workload %q; -list prints the names", workload)
	}
	o := options{seed: seed, seconds: seconds, trace: trace == 1, scale: 1, out: out, man: man}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	res, err := runWorkload(def, o)
	if err != nil {
		return err
	}
	path, err := res.write(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: result written to", path)
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed or returned a wrong result", res.Failed, res.Attempted)
	}
	return nil
}

// printNames lists what the program reports, one name per line, in the
// sections of BENCHMARK.json. The manifest test compares the two.
func printNames(man *manifest) {
	for _, w := range workloads {
		fmt.Println("workload", w.name)
	}
	for _, d := range man.EndToEnd {
		fmt.Println("end_to_end", d.Name, d.Unit)
	}
	for _, d := range man.PerLayer {
		moves := "moves nothing end to end"
		if in := interactionOf(d.Name); in != nil && in.metric != "" {
			moves = "moves " + in.metric + " on " + in.workload
		}
		fmt.Println("per_layer", d.Name, d.Unit, moves)
	}
}
