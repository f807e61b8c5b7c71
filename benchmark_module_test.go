package x100_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule runs the tests of the benchmark module (benchmark/,
// a Go module of its own, so `go test ./...` here does not reach it): the
// BENCHMARK.json manifest contract, the interaction table and a short smoke
// run of all four workloads. It is skipped when no go tool is on PATH.
func TestBenchmarkModule(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "test", "-C", "benchmark", "-short", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -C benchmark -short ./...: %v\n%s", err, out)
	}
}
