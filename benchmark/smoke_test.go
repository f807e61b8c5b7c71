package main

import (
	"io"
	"math"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	runChildIfAsked()
	os.Exit(m.Run())
}

// TestSmoke runs every workload's traced run at a twentieth of its size
// with a half-second window, and checks that it fails no operation and has
// a finite value for every metric BENCHMARK.json names: the untraced half of
// the cycles gives the end-to-end metrics, the traced half and the probes
// the per-layer ones.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	// Chunk directories go under the working directory, like a real run's.
	t.Chdir(t.TempDir())
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			if def.writes && testing.Short() {
				t.Skip("the kill test starts a child process")
			}
			o := options{seed: 7, seconds: 0.5, trace: true, scale: 0.05, out: t.TempDir(), man: man}
			res, err := runWorkload(def, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, defs := range [][]metricDef{man.EndToEnd, man.PerLayer} {
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("no finite value for %s", d.Name)
					}
				}
			}
			for _, d := range man.EndToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %g, must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			// Both report lines can be formed from this one run.
			for _, traced := range []bool{true, false} {
				res.Trace = traced
				if err := res.print(io.Discard); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
