package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The limits of the contract BENCHMARK.json is written to.
const (
	maxWorkloads, maxEndToEnd, maxPerLayer = 8, 16, 128
	maxBound                               = 0.25
	maxManifestBytes                       = 64 << 10
	// budgetSeconds is what all the gate's runs may take together, and
	// perRunOverhead what one run spends outside its window (three
	// set-ups, the oracle gate, the recovery check), rounded up from the
	// slowest workload on the 2-core reference host.
	budgetSeconds  = 3420
	perRunOverhead = 18
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, what string, raw json.RawMessage, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := keysOf(t, raw); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s has keys %v, want exactly %v", what, got, want)
	}
}

// TestManifestShape fails unless BENCHMARK.json has exactly the shape the
// regression gate accepts: a manifest it refuses measures nothing.
func TestManifestShape(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > maxManifestBytes {
		t.Errorf("BENCHMARK.json is %d bytes, limit %d", len(raw), maxManifestBytes)
	}
	wantKeys(t, "BENCHMARK.json", raw, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	var top struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, w := range top.Workloads {
		wantKeys(t, "a workload", w, "name", "why")
	}
	for _, m := range top.EndToEnd {
		wantKeys(t, "an end-to-end metric", m, "name", "unit", "better", "bound")
	}
	for _, m := range top.PerLayer {
		wantKeys(t, "a per-layer metric", m, "name", "unit", "better")
	}

	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Workloads); n < 2 || n > maxWorkloads {
		t.Errorf("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(man.EndToEnd); n < 1 || n > maxEndToEnd {
		t.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(man.PerLayer); n < 1 || n > maxPerLayer {
		t.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", man.RunSeconds)
	}
	runs := 4 + 22*len(man.Workloads)
	if total := runs * (man.RunSeconds + perRunOverhead); total > budgetSeconds {
		t.Errorf("%d runs of %d+%d s take %d s, budget %d s", runs, man.RunSeconds, perRunOverhead, total, budgetSeconds)
	}

	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range man.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, defs := range [][]metricDef{man.EndToEnd, man.PerLayer} {
		for _, d := range defs {
			name(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound == nil || *d.Bound < 0 || *d.Bound > maxBound {
			t.Errorf("%s: bound must be in 0..%g", d.Name, maxBound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range man.EndToEnd {
				if *o.Bound > *d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", o.Name, *o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s with unit s and better lower")
	}
	for _, d := range man.PerLayer {
		if d.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}

	if n := len(man.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range man.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if info, err := os.Stat(filepath.Join("..", p)); err != nil || !info.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if n := len(man.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, arg := range man.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q is too long or leaves the checkout", arg)
		}
		if strings.Contains(arg, "/") {
			inside := false
			for _, p := range man.Paths {
				inside = inside || strings.HasPrefix(arg, p+"/")
			}
			if !inside {
				t.Errorf("command names %q, which is outside paths", arg)
			}
		}
	}
}

// TestManifestMatchesProgram checks the names BENCHMARK.json lists against
// what the program runs and against the interaction table.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
	}
	endToEnd := make(map[string]bool)
	for _, d := range man.EndToEnd {
		endToEnd[d.Name] = true
	}
	for _, d := range man.PerLayer {
		in := interactionOf(d.Name)
		switch {
		case in == nil:
			t.Errorf("%s: no entry in the interaction table", d.Name)
		case in.metric == "":
			// A reference measurement; moves nothing.
		case !endToEnd[in.metric]:
			t.Errorf("%s: should move %q, which is no end-to-end metric", d.Name, in.metric)
		case workloadByName(in.workload) == nil:
			t.Errorf("%s: should move %s on %q, which is no workload", d.Name, in.metric, in.workload)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, m, q3 := quartiles(c.in)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
