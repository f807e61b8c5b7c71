package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads the untraced result files of one set of runs: a directory of
// them or a single file.
func loadSet(path string) (map[string][]*runResult, error) {
	paths := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*-trace0.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	set := make(map[string][]*runResult)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := new(runResult)
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no result files in %s", path)
	}
	return set, nil
}

func values(runs []*runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareSets prints, per workload and end-to-end metric, the median and
// quartiles of set A and of set B, B's median as a ratio of A's, each set's
// run-to-run spread, and a verdict against the bound of BENCHMARK.json:
// regressed when B's median is worse than A's by more than the bound,
// unresolved when a set's own spread exceeds the bound, otherwise ok.
func compareSets(w io.Writer, man *manifest, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\nratio = median B / median A; spread = (q3 - q1) / median\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-18s %-6s %3s %12s %12s %12s %7s %3s %12s %12s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "nA", "q1 A", "median A", "q3 A", "sprd A", "nB", "q1 B", "median B", "q3 B", "sprd B", "ratio", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range man.EndToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			sa, sb := spread(va), spread(vb)
			worse := mb/ma - 1
			if d.Better == "higher" {
				worse = 1 - mb/ma
			}
			verdict := "ok"
			switch {
			case worse > *d.Bound:
				verdict = "regressed"
				regressed++
			case d.Name != "setup_s" && max(sa, sb) > *d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-18s %-6s %3d %12.5g %12.5g %12.5g %7.3f %3d %12.5g %12.5g %12.5g %7.3f %8.4f %6.2f  %s\n",
				wl.name, d.Name, d.Unit, len(va), q1a, ma, q3a, sa, len(vb), q1b, mb, q3b, sb, mb/ma, *d.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
