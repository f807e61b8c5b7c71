package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// namedPlan is one distinct query of a workload.
type namedPlan struct {
	name  string
	node  plan
	bytes int64 // decoded-width bytes of the columns its scans read
}

// workloadDef fixes what a workload runs. README.md gives the reason for
// every size here; the short version is in each comment.
type workloadDef struct {
	name string
	// sf is the TPC-H scale factor the generator is called with.
	sf float64
	// disk lists the tables saved to a chunk directory and attached from
	// it; nil keeps the workload on the generated, resident tables.
	disk []string
	// queries builds the distinct queries a client cycles through.
	queries func(sf float64) ([]namedPlan, error)
	// clients is the number of closed-loop client goroutines, each sending
	// its next query when the previous one returns. Never above nproc = 2.
	clients     int
	parallelism int
	// shuffle draws a fresh order of the queries for every cycle from the
	// seed. Without it every cycle runs the list in order, which keeps the
	// reuse distance of every chunk, and so what the cache does, the same
	// from cycle to cycle and from seed to seed.
	shuffle bool
	// writes adds the durable writer and the crash-recovery check.
	writes bool
}

func tpchQueries(qs ...int) func(float64) ([]namedPlan, error) {
	return func(sf float64) ([]namedPlan, error) {
		var out []namedPlan
		for _, q := range qs {
			p, err := tpchPlan(q, sf)
			if err != nil {
				return nil, err
			}
			out = append(out, namedPlan{name: fmt.Sprintf("q%02d", q), node: p})
		}
		return out, nil
	}
}

// with appends the benchmark's own scan plans to a list of TPC-H queries.
func with(base func(float64) ([]namedPlan, error), extra ...namedPlan) func(float64) ([]namedPlan, error) {
	return func(sf float64) ([]namedPlan, error) {
		out, err := base(sf)
		return append(out, extra...), err
	}
}

var workloads = []workloadDef{
	{
		// All of core's operators and the primitives, no storage layer:
		// the 22 queries on resident tables, one client, one pipeline.
		name: "tpch_mem", sf: 0.1, clients: 1, parallelism: 1, shuffle: true,
		queries: tpchQueries(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22),
	},
	{
		// A scan-bound list whose columns decode to more than the default
		// 64 MiB decoded-chunk cache holds, so chunks are read and decoded
		// over and over. Nine queries: the overall median lies inside one
		// query's latencies, not between two.
		name: "scan_disk_cold", sf: 0.2, clients: 1, parallelism: 1,
		disk: []string{"lineitem", "orders", "part"},
		queries: with(tpchQueries(1, 6, 12, 14),
			namedPlan{name: "strscan", node: strScanPlan()},
			namedPlan{name: "like", node: likePlan()},
			namedPlan{name: "wide", node: widePlan()},
			namedPlan{name: "olike", node: ordersLikePlan()},
			namedPlan{name: "narrow", node: narrowPlan()}),
	},
	{
		// The same scan path with a working set that fits the cache, two
		// clients and two pipelines each: cache hits, scan sharing, the
		// exchange and scheduler slots instead of reads and decodes.
		name: "serve_disk_warm", sf: 0.1, clients: 2, parallelism: 2, shuffle: true,
		disk:    []string{"lineitem", "orders", "customer", "part"},
		queries: tpchQueries(1, 3, 6, 12, 14, 19),
	},
	{
		// Durable writes beside reads on one table. Three reader queries,
		// for the same reason scan_disk_cold has nine.
		name: "htap_disk", sf: 0.1, clients: 1, parallelism: 1, shuffle: true, writes: true,
		disk:    []string{"lineitem"},
		queries: with(tpchQueries(1, 6), namedPlan{name: "strscan", node: strScanPlan()}),
	},
}

// order returns the order of the queries in one cycle.
func (d *workloadDef) order(rng *rand.Rand, n int) []int {
	if d.shuffle {
		return rng.Perm(n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupReps is how often a run sets the workload up from nothing; setup_s is
// the median, so one slow file system flush does not decide it. A traced run
// reports no setup_s and sets up once.
const setupReps = 3

// warmPasses is how often every distinct query runs before the timed window
// (the first pass is part of set-up).
const warmPasses = 3

// env is one set-up instance of a workload.
type env struct {
	def   *workloadDef
	sf    float64
	mem   *memDB
	disk  *diskDB
	dir   string
	exec  execFn
	plans []namedPlan
	genS  float64
	// lineitemRows is the size of the generated lineitem, workingSet the
	// decoded-width bytes of the distinct columns the queries' scans read.
	lineitemRows int
	workingSet   int64
}

func (e *env) close() {
	if e.disk != nil {
		e.disk.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// dataRoot is where chunk directories live: inside the checkout, under the
// build directory the wrapper script already ignores.
func dataRoot() string { return filepath.Join(".bench_build", "data") }

// setupOnce generates the tables, saves and attaches them for a disk
// workload, and runs every distinct query once.
func setupOnce(def *workloadDef, sf float64, seed uint64, sp *spanLog) (*env, error) {
	e := &env{def: def, sf: sf}
	root := sp.start(0, "setup", "")
	defer sp.end(root)

	id := sp.start(root, "tpch.Generate", "")
	t0 := time.Now()
	mem, err := generate(sf, seed)
	e.genS = time.Since(t0).Seconds()
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	e.mem, e.exec = mem, memExec(mem)
	if e.lineitemRows, err = tableRows(mem, "lineitem"); err != nil {
		return nil, err
	}
	if e.plans, err = def.queries(sf); err != nil {
		return nil, err
	}
	sizes := make(map[string]int64) // every scanned column, measured once
	for i := range e.plans {
		own := make(map[string]int64)
		scanColumns(e.plans[i].node, mem, own)
		for col := range own {
			if _, ok := sizes[col]; !ok {
				sizes[col] = own[col]
			}
			e.plans[i].bytes += sizes[col]
		}
	}
	for _, b := range sizes {
		e.workingSet += b
	}
	if def.disk != nil {
		if err := os.MkdirAll(dataRoot(), 0o755); err != nil {
			return nil, err
		}
		if e.dir, err = os.MkdirTemp(dataRoot(), def.name+"-"); err != nil {
			return nil, err
		}
		id = sp.start(root, "columnbm.SaveTable", "")
		err = saveTables(e.dir, mem, def.disk)
		sp.end(id)
		if err != nil {
			e.close()
			return nil, err
		}
		id = sp.start(root, "DB.AttachDisk", "")
		e.disk, err = attachDisk(e.dir, false)
		sp.end(id)
		if err != nil {
			e.close()
			return nil, err
		}
		e.exec = diskExec(e.disk)
	}
	id = sp.start(root, "warm-up", "")
	err = e.warm()
	sp.end(id)
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) warm() error {
	for _, p := range e.plans {
		if _, err := e.exec(p.node, execCfg{parallelism: e.def.parallelism}); err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	return nil
}

// gate runs every distinct query on the vectorized engine of the workload
// and on the MIL engine over the resident tables, and compares the results.
// It returns the vectorized fingerprints and the number of mismatches.
func (e *env) gate() (want []fingerprint, failed int, err error) {
	for _, p := range e.plans {
		got, err := e.exec(p.node, execCfg{parallelism: e.def.parallelism})
		if err != nil {
			return nil, 0, fmt.Errorf("gate %s: %w", p.name, err)
		}
		ref, err := milMem(e.mem, p.node)
		if err != nil {
			return nil, 0, fmt.Errorf("gate %s on MIL: %w", p.name, err)
		}
		fp := fingerprintOf(got)
		if !fp.equal(fingerprintOf(ref)) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s differs from the MIL engine (%d rows vs %d)\n",
				e.def.name, p.name, got.NumRows(), ref.NumRows())
			failed++
		}
		want = append(want, fp)
	}
	return want, failed, nil
}

// coldAttachMs times a fresh database handle up to its first Q6 result,
// before that handle has run anything: NewDB + AttachDisk + Q6 on a chunk
// directory; on resident tables a new catalog, its summary index, and Q6.
func (e *env) coldAttachMs(sp *spanLog) ([]float64, error) {
	q6, err := tpchPlan(6, e.sf)
	if err != nil {
		return nil, err
	}
	root := sp.start(0, "cold-attach", "")
	defer sp.end(root)
	ns, err := timeReps(5, 51, time.Second, func() error {
		if e.disk == nil {
			db, err := attachMem(e.mem, tpchTables)
			if err != nil {
				return err
			}
			_, err = memExec(db)(q6, execCfg{})
			return err
		}
		id := sp.start(root, "DB.AttachDisk", "q06")
		db, err := attachDisk(e.dir, false)
		sp.end(id)
		if err != nil {
			return err
		}
		defer db.Close()
		id = sp.start(root, "DB.Exec", "q06")
		_, err = diskExec(db)(q6, execCfg{})
		sp.end(id)
		return err
	})
	for i := range ns {
		ns[i] /= 1e6
	}
	return ns, err
}

// windowOut is what a timed window produced.
type windowOut struct {
	samples   []sample
	last      []*result // per distinct query, the last result seen
	attempted int
	failed    int
	elapsed   time.Duration
	sums      traceSums
	allocKB   float64
	peakRSS   float64
	before    engineCounters
	after     engineCounters
}

// runWindow drives the closed-loop clients for at least seconds, stopping
// each client at the end of a whole cycle so every distinct query is sampled
// equally often. In a traced run every other cycle carries a collector and
// spans; the cycles between them give the untraced latencies the tracing
// overhead is a ratio of.
func runWindow(e *env, seconds float64, seed uint64, want []fingerprint, sp *spanLog) windowOut {
	def := e.def
	out := windowOut{last: make([]*result, len(e.plans))}
	root := sp.start(0, "window", "")
	var mu sync.Mutex
	var wg sync.WaitGroup

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	out.before = countersOf(e.disk)
	rss := startRSSSampler(os.Getpid())
	start := time.Now()
	for c := 0; c < def.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)*31 + int64(c)))
			var local []sample
			var sums traceSums
			last := make([]*result, len(e.plans))
			attempted, failed := 0, 0
			for cycle := 0; time.Since(start).Seconds() < seconds; cycle++ {
				traced := sp != nil && cycle%2 == 0
				for _, qi := range def.order(rng, len(e.plans)) {
					p := e.plans[qi]
					cfg := execCfg{parallelism: def.parallelism}
					var col *collector
					var qs, es int
					if traced {
						col = newCollector()
						cfg.tracer = col
						qs = sp.start(root, "query", p.name)
						es = sp.start(qs, "DB.Exec", p.name)
					}
					t0 := time.Now()
					res, err := e.exec(p.node, cfg)
					ns := time.Since(t0).Nanoseconds()
					sp.end(es)
					attempted++
					ok := err == nil && res.NumRows() == want[qi].rows
					if ok && traced {
						rs := sp.start(qs, "Result.Rows", p.name)
						ok = fingerprintOf(res).equal(want[qi])
						sp.end(rs)
						sums.add(col, def.parallelism, p.name == "q01")
					}
					sp.end(qs)
					if !ok {
						failed++
						fmt.Fprintf(os.Stderr, "benchmark: %s: %s failed: %v\n", def.name, p.name, err)
						continue
					}
					last[qi] = res
					local = append(local, sample{query: qi, ns: ns, rows: res.NumRows(), traced: traced})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.samples = append(out.samples, local...)
			out.attempted += attempted
			out.failed += failed
			out.sums.merge(sums)
			for i, r := range last {
				if r != nil {
					out.last[i] = r
				}
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.peakRSS = rss.Stop()
	out.after = countersOf(e.disk)
	runtime.ReadMemStats(&ms)
	out.allocKB = float64(ms.TotalAlloc-alloc0) / 1024
	sp.end(root)

	// The window compared row counts; compare the last result of every
	// distinct query in full.
	for qi, r := range out.last {
		if r != nil && !fingerprintOf(r).equal(want[qi]) {
			out.failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s returned a wrong result in the window\n", def.name, e.plans[qi].name)
		}
	}
	return out
}

// runWorkload sets a workload up, checks it, measures it and returns every
// metric it has a value for.
func runWorkload(def *workloadDef, o options) (*runResult, error) {
	res := newRunResult(def.name, o)
	var sp *spanLog
	if o.trace {
		sp = newSpanLog()
	}
	sf := def.sf * o.scale

	reps := setupReps
	if o.trace {
		reps = 1
	}
	var e *env
	var setupS []float64
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			e.close()
			e = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if e, err = setupOnce(def, sf, o.seed, sp); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { e.close() }()
	for pass := 1; pass < warmPasses; pass++ {
		if err := e.warm(); err != nil {
			return nil, err
		}
	}
	res.WorkingSetBytes = e.workingSet
	res.set("setup_s", median(setupS), len(setupS))
	res.set("tpch.gen_s", e.genS, 1)

	want, gateFailed, err := e.gate()
	if err != nil {
		return nil, err
	}
	res.Attempted += len(e.plans)
	res.Failed += gateFailed

	cold, err := e.coldAttachMs(sp)
	if err != nil {
		return nil, err
	}
	res.set("cold_attach_ms", median(cold), len(cold))

	if def.writes {
		if err := runHTAP(e, o, want, sp, res); err != nil {
			return nil, err
		}
	} else {
		if def.disk != nil && !o.trace {
			// The resident copy is the oracle's input and the layer probes';
			// an untraced disk run needs neither any more, and serving from
			// disk does not hold it.
			e.mem = nil
		}
		debug.FreeOSMemory()
		w := runWindow(e, o.seconds, o.seed, want, sp)
		res.Attempted += w.attempted
		res.Failed += w.failed
		res.windowMetrics(e, w.samples, w.elapsed, 0)
		res.set("peak_rss_mb", w.peakRSS, 1)
		res.counterMetrics(w.after.sub(w.before), w.sums, w.allocKB, len(w.samples), e.lineitemRows)
		for _, name := range []string{"htap.insert_rows_per_s", "htap.insert_ack_us_p50",
			"htap.acked_rows_recovered_ratio", "htap.written_bytes_per_user_byte"} {
			res.setNote(name, 0, 0, "this workload has no writer")
		}
	}

	if o.trace {
		if err := runProbes(e, sp, res); err != nil {
			return nil, err
		}
		res.SelfMs = sp.selfMs()
		if err := sp.write(filepath.Join(o.out, def.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	res.Host.MemmoveGBs = memmoveGBs()
	return res, nil
}
