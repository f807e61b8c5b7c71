package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// manifest mirrors BENCHMARK.json, which is the one list of workload and
// metric names: the program reads it, takes every unit from it, and refuses
// to report a run that lacks a value for a metric it names.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the checkout root, which is the
// working directory of a run and the parent directory of a test.
func loadManifest() (*manifest, error) {
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		var b []byte
		if b, err = os.ReadFile(path); err != nil {
			continue
		}
		var m manifest
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, err
}

func (m *manifest) def(name string) *metricDef {
	for _, defs := range [][]metricDef{m.EndToEnd, m.PerLayer} {
		for i := range defs {
			if defs[i].Name == name {
				return &defs[i]
			}
		}
	}
	return nil
}

// options are the settings of one run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale multiplies every workload's scale factor; the smoke test runs
	// at a twentieth of the size.
	scale float64
	out   string
	man   *manifest
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value.
	N    int    `json:"n,omitempty"`
	Note string `json:"note,omitempty"`
}

// hostStamp is written into every result, so a number is never read without
// the machine it was taken on.
type hostStamp struct {
	Nproc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitRevision string  `json:"git_revision"`
	MemmoveGBs  float64 `json:"primitives.memmove_gb_s"`
	Note        string  `json:"note,omitempty"`
}

func newHostStamp() hostStamp {
	h := hostStamp{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRevision: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitRevision = strings.TrimSpace(string(out))
	}
	if h.Nproc == 1 {
		h.Note = "1-core host: numbers at parallelism 2 or with 2 clients measure overhead, not scaling"
	}
	return h
}

// runResult is the result file of one run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Scale     float64                `json:"scale"`
	Time      string                 `json:"time"`
	Host      hostStamp              `json:"host"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// QueryMs is each distinct query's median latency over the untraced
	// executions of the window, and WorkingSetBytes the decoded-width size
	// of the distinct columns the workload's scans read.
	QueryMs         map[string]float64 `json:"query_ms"`
	WorkingSetBytes int64              `json:"working_set_bytes"`
	// SelfMs is, per span name of a traced run, the time spent in the span
	// and not in its children.
	SelfMs map[string]float64 `json:"span_self_ms,omitempty"`

	man *manifest
}

func newRunResult(workload string, o options) *runResult {
	return &runResult{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale,
		Time:    time.Now().UTC().Format(time.RFC3339),
		Metrics: make(map[string]metricValue),
		Host:    newHostStamp(), man: o.man,
	}
}

// set records a metric. The name must be one BENCHMARK.json lists.
func (r *runResult) set(name string, v float64, n int) {
	r.setNote(name, v, n, "")
}

func (r *runResult) setNote(name string, v float64, n int, note string) {
	d := r.man.def(name)
	if d == nil {
		panic("benchmark: metric " + name + " is not in BENCHMARK.json")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit, N: n, Note: note}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// windowMetrics reduces a window's query samples to the latency and
// throughput metrics. writeOps is the number of acknowledged write rows of
// the same window.
func (r *runResult) windowMetrics(e *env, samples []sample, elapsed time.Duration, writeOps int) {
	var plain, traced []sample
	var bytes int64
	for _, s := range samples {
		bytes += e.plans[s.query].bytes
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	p50, p95, gm, perQuery := latencySummary(plain, len(e.plans))
	r.QueryMs = make(map[string]float64)
	for i, ms := range perQuery {
		r.QueryMs[e.plans[i].name] = ms
	}
	r.set("query_ms_p50", p50, len(plain))
	r.set("query_ms_p95", p95, len(plain))
	r.set("query_ms_geomean", gm, len(plain))
	sec := elapsed.Seconds()
	r.set("queries_per_s", float64(len(samples))/sec, len(samples))
	r.set("ops_per_s", float64(len(samples)+writeOps)/sec, len(samples)+writeOps)
	r.set("scan_gb_s", float64(bytes)/1e9/sec, len(samples))
	if r.Trace {
		_, _, gmT, _ := latencySummary(traced, len(e.plans))
		r.set("trace.overhead_ratio", gmT/gm, len(traced))
	}
}

// counterMetrics turns counter deltas of a window, and in a traced run the
// collectors' sums, into the per-layer ratios.
func (r *runResult) counterMetrics(c engineCounters, t traceSums, allocKB float64, queries, lineitemRows int) {
	q := int64(max(queries, 1))
	r.set("columnbm.pool_hit_ratio", ratio(c.PoolHits, c.PoolHits+c.PoolMisses), int(c.PoolHits+c.PoolMisses))
	r.set("columnbm.dcache_hit_ratio", ratio(c.CacheHits, c.CacheHits+c.CacheMisses), int(c.CacheHits+c.CacheMisses))
	r.set("columnbm.dcache_evictions", float64(c.CacheEvictions), 1)
	r.set("columnbm.retried_reads", float64(c.RetriedReads), 1)
	r.set("columnbm.checksum_failures", float64(c.ChecksumFailures), 1)
	r.set("columnbm.wal_appends_per_sync", ratio(c.WalAppends, c.WalSyncs), int(c.WalSyncs))
	r.set("columnbm.fsyncs_per_1k_rows", 1000*ratio(c.WalSyncs, c.WalAppends), int(c.WalAppends))
	r.set("sched.wait_ratio", ratio(c.SchedWaits, c.SchedAdmitted), int(c.SchedAdmitted))
	r.set("sched.yields_per_query", ratio(c.SchedYields, q), queries)
	r.set("sched.admitted_per_query", ratio(c.SchedAdmitted, q), queries)
	r.set("core.compaction_runs", float64(c.CompactionRuns), 1)
	r.set("core.compaction_rows_absorbed", float64(c.CompactionRowsAbsorbed), 1)
	r.set("core.alloc_kb_per_query", allocKB/float64(q), queries)
	if !r.Trace {
		return
	}
	share := ratio(t.PrimNs, t.TotalNs)
	r.set("primitives.time_share", share, queries/2)
	r.set("core.operator_share", 1-share, queries/2)
	r.set("columnbm.decoded_bytes_per_query", ratio(t.DecodedBytes, int64(max(queries/2, 1))), queries/2)
	r.set("columnbm.skipped_bytes_ratio", ratio(t.SkippedBytes, t.SkippedBytes+t.DecodedBytes), queries/2)
	// Table 5's unit: primitive time of one Q1 per input tuple, at the
	// collector's nominal clock.
	nsPerTuple := float64(ratio(t.Q1PrimNs, t.Q1Runs)) / float64(max(lineitemRows, 1))
	r.set("primitives.q1_cycles_per_tuple", nsPerTuple*nominalGHz(), int(t.Q1Runs))
}

// write stores the result file and returns its path.
func (r *runResult) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := 0
	if r.Trace {
		mode = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, mode))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every measured metric by name with its unit and sample
// count, then, as the last line, the one JSON object the regression gate
// reads: the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func (r *runResult) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %v  nproc %d  GOMAXPROCS %d  %s  rev %s  memmove %.2f GB/s  working set %.1f MB\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Host.Nproc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GitRevision, r.Host.MemmoveGBs, float64(r.WorkingSetBytes)/1e6)
	if r.Host.Note != "" {
		fmt.Fprintln(w, "note:", r.Host.Note)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-42s %16.6g %-8s n=%-6d %s\n", n, m.Value, m.Unit, m.N, m.Note)
	}
	if len(r.SelfMs) > 0 {
		fmt.Fprintln(w, "span self time:")
		names = names[:0]
		for n := range r.SelfMs {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfMs[names[i]] > r.SelfMs[names[j]] })
		for _, n := range names {
			fmt.Fprintf(w, "  %-42s %16.3f ms\n", n, r.SelfMs[n])
		}
	}

	want := r.man.EndToEnd
	if r.Trace {
		want = r.man.PerLayer
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]wire)}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s has no finite value for %s", r.Workload, d.Name)
		}
		line.Metrics[d.Name] = wire{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
