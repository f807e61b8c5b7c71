package main

// The layer probes of a traced run: small measurements around one layer's
// exported functions, on the tables the workload generated. With probe.go
// this is all of the benchmark that imports the engine.

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"x100/internal/colstore"
	"x100/internal/delta"
	"x100/internal/primitives"
	"x100/internal/sched"
	"x100/internal/vector"
)

// prober times probes, each inside a span, and records the median with its
// quartiles.
type prober struct {
	sp   *spanLog
	root int
	res  *runResult
}

// run calls fn between minReps and maxReps times within budget and records
// under name the median of per(duration in ns).
func (p *prober) run(name, note string, minReps, maxReps int, budget time.Duration, per func(ns float64) float64, fn func() error) error {
	id := p.sp.start(p.root, name, "")
	ns, err := timeReps(minReps, maxReps, budget, fn)
	p.sp.end(id)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	for i := range ns {
		ns[i] = per(ns[i])
	}
	q1, med, q3 := quartiles(ns)
	if note != "" {
		note += " "
	}
	p.res.setNote(name, med, len(ns), fmt.Sprintf("%sq1 %.4g q3 %.4g", note, q1, q3))
	return nil
}

func perMs(ns float64) float64 { return ns / 1e6 }

func divBy(n float64) func(float64) float64 { return func(ns float64) float64 { return ns / n } }

// Sinks keep the compiler from discarding the probes' reads.
var (
	sinkI int64
	sinkF float64
)

// sweep streams a whole column through a fragment reader in vector-sized
// steps, folding the values into a sink.
func sweep(c *colstore.Column) error {
	r := c.Reader()
	var si int64
	var sf float64
	for lo := 0; lo < c.Len(); {
		_, fe := c.FragSpan(lo)
		hi := min(lo+vector.DefaultBatchSize, fe)
		v, err := r.Vector(lo, hi)
		if err != nil {
			return err
		}
		switch v.Typ.Physical() {
		case vector.Int32:
			for _, x := range v.Int32s() {
				si += int64(x)
			}
		case vector.Int64:
			for _, x := range v.Int64s() {
				si += x
			}
		case vector.UInt8:
			for _, x := range v.UInt8s() {
				si += int64(x)
			}
		case vector.UInt16:
			for _, x := range v.UInt16s() {
				si += int64(x)
			}
		case vector.Float64:
			for _, x := range v.Float64s() {
				sf += x
			}
		case vector.String:
			for _, x := range v.Strings() {
				si += int64(len(x))
			}
		}
		lo = hi
	}
	sinkI, sinkF = si, sf
	return nil
}

// memmoveGBs copies a 64 MiB buffer, far beyond any cache of the host, and
// returns the median rate: the ceiling every GB/s figure is a share of.
func memmoveGBs() float64 {
	const size = 64 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the destination in
	ns, _ := timeReps(5, 5, 0, func() error {
		copy(dst, src)
		return nil
	})
	sinkI = int64(dst[size-1])
	return size / median(ns)
}

// diskColumn attaches dir afresh and returns a column of its lineitem.
func diskColumn(dir, column string) (*diskDB, *colstore.Column, error) {
	db, err := attachDisk(dir, false)
	if err != nil {
		return nil, nil, err
	}
	t, err := db.Internal().Table("lineitem")
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	c := t.Col(column)
	if c == nil {
		db.Close()
		return nil, nil, fmt.Errorf("lineitem has no column %s", column)
	}
	return db, c, nil
}

// runProbes measures every per-layer metric that does not come from the
// workload's own window.
func runProbes(e *env, sp *spanLog, res *runResult) error {
	p := &prober{sp: sp, res: res}
	p.root = sp.start(0, "probes", "")
	defer sp.end(p.root)
	mem, sf := e.mem, e.sf
	exec := memExec(mem)

	// tpch and core: plan construction, operator-tree build, every query.
	plans := make([]plan, 22)
	err := p.run("tpch.plan_us", "", 11, 11, 0, divBy(22*1e3), func() error {
		for q := range plans {
			var err error
			if plans[q], err = tpchPlan(q+1, sf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = p.run("core.build_us", "", 11, 11, 0, divBy(22*1e3), func() error {
		for _, pl := range plans {
			if err := buildOnly(mem, pl); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for q, pl := range plans {
		name := fmt.Sprintf("core.q%02d_ms", q+1)
		if err := p.run(name, "", 3, 7, 200*time.Millisecond, perMs, func() error {
			_, err := exec(pl, execCfg{})
			return err
		}); err != nil {
			return err
		}
	}
	for _, v := range []struct {
		name string
		cfg  execCfg
	}{
		{"core.q1_ms.vec64", execCfg{vectorSize: 64}},
		{"core.q1_ms.vec1024", execCfg{vectorSize: 1024}},
		{"core.q1_ms.vec65536", execCfg{vectorSize: 65536}},
		{"core.q1_ms.p2", execCfg{parallelism: 2}},
	} {
		if err := p.run(v.name, "", 5, 11, 300*time.Millisecond, perMs, func() error {
			_, err := exec(plans[0], v.cfg)
			return err
		}); err != nil {
			return err
		}
	}

	// The baseline engines, one pass each.
	var milMs []float64
	id := sp.start(p.root, "mil.tpch_geomean_ms", "")
	for _, pl := range plans {
		t0 := time.Now()
		if _, err := milMem(mem, pl); err != nil {
			return fmt.Errorf("probe mil: %w", err)
		}
		milMs = append(milMs, perMs(float64(time.Since(t0).Nanoseconds())))
	}
	sp.end(id)
	res.set("mil.tpch_geomean_ms", geomean(milMs), len(milMs))
	if err := p.run("volcano.q1_ms", "", 1, 3, time.Second, perMs, func() error {
		_, err := volcanoMem(mem, plans[0])
		return err
	}); err != nil {
		return err
	}

	if err := probePrimitives(p); err != nil {
		return err
	}
	id = sp.start(p.root, "primitives.memmove_gb_s", "")
	res.set("primitives.memmove_gb_s", memmoveGBs(), 5)
	sp.end(id)

	if err := probeStorage(p, e); err != nil {
		return err
	}
	return probeDeltaSched(p, e)
}

// probePrimitives times the generic kernels on 1024-value vectors, which
// stay in the first-level cache: nanoseconds per value.
func probePrimitives(p *prober) error {
	const n, calls = 1024, 2000
	rng := rand.New(rand.NewSource(1))
	i32, i64 := make([]int32, n), make([]int64, n)
	a, b, out := make([]float64, n), make([]float64, n), make([]float64, n)
	idx, groups, sel := make([]int32, n), make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		i32[i], i64[i] = int32(rng.Intn(1000)), rng.Int63()
		a[i], b[i] = rng.Float64(), rng.Float64()
		idx[i], groups[i] = int32(rng.Intn(n)), int32(rng.Intn(4))
	}
	acc, hashes := make([]float64, 4), make([]uint64, n)
	per := divBy(n * calls)
	kernels := []struct {
		name string
		fn   func()
	}{
		{"primitives.select_lt_i32_ns", func() { sinkI += int64(primitives.SelectLTColVal(sel, i32, 500, nil)) }},
		{"primitives.map_mul_f64_ns", func() { primitives.MapMulColCol(out, a, b, nil) }},
		{"primitives.fused_submul_f64_ns", func() { primitives.FusedSubMulValColCol(out, 1.0, a, b, nil) }},
		{"primitives.aggr_sum_f64_ns", func() { primitives.AggrSum(acc, a, groups, nil) }},
		{"primitives.hash_i64_ns", func() { primitives.HashInt(hashes, i64, nil) }},
		{"primitives.gather_f64_ns", func() { primitives.GatherCol(out, a, idx, nil) }},
	}
	for _, k := range kernels {
		if err := p.run(k.name, "", 11, 11, 0, per, func() error {
			for c := 0; c < calls; c++ {
				k.fn()
			}
			return nil
		}); err != nil {
			return err
		}
	}
	sinkF = out[0] + acc[0] + float64(hashes[0])
	return nil
}

// probeStorage saves the resident lineitem to a directory of its own and
// measures the chunk store, the fragment reader and the locator on it.
func probeStorage(p *prober, e *env) error {
	lt, err := e.mem.Table("lineitem")
	if err != nil {
		return err
	}
	rawMB := float64(lt.Bytes()) / 1e6
	if err := os.MkdirAll(dataRoot(), 0o755); err != nil {
		return err
	}
	var dir string
	defer func() { os.RemoveAll(dir) }()
	err = p.run("columnbm.save_mb_s", "", 1, 3, 2*time.Second, func(ns float64) float64 { return rawMB / (ns / 1e9) }, func() error {
		os.RemoveAll(dir)
		if dir, err = os.MkdirTemp(dataRoot(), "probe-"); err != nil {
			return err
		}
		return saveTables(dir, e.mem, []string{"lineitem"})
	})
	if err != nil {
		return err
	}
	stored, err := dirBytes(dir)
	if err != nil {
		return err
	}
	p.res.set("columnbm.disk_bytes_per_raw_byte", float64(stored)/float64(lt.Bytes()), 1)
	if err := p.run("columnbm.attach_ms", "", 11, 11, 0, perMs, func() error {
		db, err := attachDisk(dir, false)
		if err != nil {
			return err
		}
		return db.Close()
	}); err != nil {
		return err
	}

	// One column read through a fresh store (file read and decode), then
	// again through the same store (its caches filled).
	price := lt.Col("l_extendedprice")
	priceMB := float64(price.PhysType().Width()*price.Len()) / 1e6
	mbs := func(ns float64) float64 { return priceMB / (ns / 1e9) }
	var warmDB *diskDB
	var warmCol *colstore.Column
	defer func() {
		if warmDB != nil {
			warmDB.Close()
		}
	}()
	if err := p.run("columnbm.cold_scan_mb_s", "", 5, 5, 0, mbs, func() error {
		if warmDB != nil {
			warmDB.Close()
		}
		if warmDB, warmCol, err = diskColumn(dir, "l_extendedprice"); err != nil {
			return err
		}
		return sweep(warmCol)
	}); err != nil {
		return err
	}
	if err := p.run("columnbm.warm_scan_mb_s", "", 5, 5, 0, mbs, func() error { return sweep(warmCol) }); err != nil {
		return err
	}
	// One column per codec family, each through a fresh store.
	for _, column := range []string{"l_orderkey", "l_shipdate", "l_extendedprice", "l_returnflag", "l_comment"} {
		codec := codecOf(warmDB, "lineitem", column)
		if err := p.run("columnbm.scan_ns_per_val."+column, codec, 3, 3, 0, divBy(float64(lt.N)), func() error {
			db, c, err := diskColumn(dir, column)
			if err != nil {
				return err
			}
			defer db.Close()
			return sweep(c)
		}); err != nil {
			return err
		}
	}

	if err := p.run("colstore.reader_ns_per_val", "", 11, 11, 0, divBy(float64(lt.N)), func() error { return sweep(price) }); err != nil {
		return err
	}
	const batch, batches = 1024, 100
	rng := rand.New(rand.NewSource(int64(p.res.Seed)))
	ids := make([]int32, batch*batches)
	for i := range ids {
		ids[i] = int32(rng.Intn(lt.N))
	}
	dst := vector.New(vector.Float64, batch)
	return p.run("colstore.locator_gather_ns_per_val", "", 5, 5, 0, divBy(batch*batches), func() error {
		loc := warmCol.Locator(0)
		for b := 0; b < batches; b++ {
			if err := loc.Gather(dst, ids[b*batch:(b+1)*batch], nil, batch); err != nil {
				return err
			}
		}
		return nil
	})
}

// probeDeltaSched measures the delta store without a log under it, a query
// over an unmerged delta, and an uncontended scheduler slot.
func probeDeltaSched(p *prober, e *env) error {
	lt, err := e.mem.Table("lineitem")
	if err != nil {
		return err
	}
	row, err := lineitemRow(e.mem, 0)
	if err != nil {
		return err
	}
	const inserts = 20000
	if err := p.run("delta.insert_ns_per_row", "", 5, 5, 0, divBy(inserts), func() error {
		ds := delta.NewStore(lt)
		for i := 0; i < inserts; i++ {
			if _, err := ds.Insert(row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	db, err := attachMem(e.mem, []string{"lineitem"})
	if err != nil {
		return err
	}
	for i := 0; i < lt.N/20; i++ {
		if _, err := db.Insert("lineitem", row); err != nil {
			return err
		}
	}
	q6, err := tpchPlan(6, e.sf)
	if err != nil {
		return err
	}
	exec := memExec(db)
	if err := p.run("delta.q6_delta_ms", "", 11, 11, 0, perMs, func() error {
		_, err := exec(q6, execCfg{})
		return err
	}); err != nil {
		return err
	}

	const rounds = 100000
	slot := sched.NewPool(2).NewSlot()
	return p.run("sched.acquire_release_ns", "", 11, 11, 0, divBy(rounds), func() error {
		for i := 0; i < rounds; i++ {
			slot.Acquire()
			slot.Release()
		}
		return nil
	})
}
