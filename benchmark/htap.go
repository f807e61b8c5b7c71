package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childEnv carries the settings of the htap child process. The body of
// htap_disk runs in a child so that the parent can kill it without warning
// at the end of the window and then attach what it left on disk.
const childEnv = "X100_BENCH_HTAP_CHILD"

type childOptions struct {
	Dir    string  `json:"dir"`
	SF     float64 `json:"sf"`
	Seed   uint64  `json:"seed"`
	Traced bool    `json:"traced"`
}

// childStatus is the snapshot of cumulative counters the child prints twice
// a second; the parent uses the first and the last it received.
type childStatus struct {
	Counters engineCounters `json:"counters"`
	Sums     traceSums      `json:"sums"`
	AllocKB  float64        `json:"alloc_kb"`
}

// deleteShare is the share of write calls that are deletes of base rows;
// the rest insert one row each.
const deleteShare = 0.1

// runChildIfAsked runs the htap child and never returns when the process
// was started as one. Both main and the test binary call it first.
func runChildIfAsked() {
	spec := os.Getenv(childEnv)
	if spec == "" {
		return
	}
	var o childOptions
	if err := json.Unmarshal([]byte(spec), &o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "benchmark child:", htapChild(o))
	os.Exit(2)
}

// htapChild attaches the directory with group-commit durability and the
// background compactor, then writes and reads until it is killed. It reports
// on standard output, one line per event, each written only after the call
// it reports has returned:
//
//	I <n> <ns>        insert of the row with l_orderkey insertKeyBase+n acknowledged
//	D <rowid> <ns>    delete of a base row acknowledged
//	Q <query> <ns> <rows> <traced>
//	E <text>          a call failed
//	S <json>          childStatus
func htapChild(o childOptions) error {
	db, err := attachDisk(o.Dir, true)
	if err != nil {
		return err
	}
	def := workloadByName("htap_disk")
	plans, err := def.queries(o.SF)
	if err != nil {
		return err
	}
	row, keyCol, baseRows, err := diskRow(db, "lineitem", 0, "l_orderkey")
	if err != nil {
		return err
	}
	exec := diskExec(db)

	var mu sync.Mutex
	emit := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(os.Stdout, format, args...)
		mu.Unlock()
	}
	var sumsMu sync.Mutex
	var sums traceSums
	status := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sumsMu.Lock()
		st := childStatus{Counters: countersOf(db), Sums: sums, AllocKB: float64(ms.TotalAlloc) / 1024}
		sumsMu.Unlock()
		b, _ := json.Marshal(st)
		emit("S %s\n", b)
	}
	status()
	emit("READY\n")

	go func() { // the writer: one closed loop of durable single-row calls
		rng := rand.New(rand.NewSource(int64(o.Seed)))
		victims := rng.Perm(baseRows)
		for n, d := 0, 0; ; {
			if rng.Float64() < deleteShare && d < len(victims) {
				id := victims[d]
				d++
				t0 := time.Now()
				if err := db.Delete("lineitem", int32(id)); err != nil {
					emit("E delete %d: %v\n", id, err)
					continue
				}
				emit("D %d %d\n", id, time.Since(t0).Nanoseconds())
				continue
			}
			row[keyCol] = int32(insertKeyBase + n)
			t0 := time.Now()
			if err := db.Insert("lineitem", row...); err != nil {
				emit("E insert %d: %v\n", n, err)
				continue
			}
			emit("I %d %d\n", n, time.Since(t0).Nanoseconds())
			n++
		}
	}()

	go func() { // the reader: one closed loop over the query list
		rng := rand.New(rand.NewSource(int64(o.Seed) + 1))
		for cycle := 0; ; cycle++ {
			traced := o.Traced && cycle%2 == 0
			for _, qi := range def.order(rng, len(plans)) {
				cfg := execCfg{parallelism: def.parallelism}
				var col *collector
				if traced {
					col = newCollector()
					cfg.tracer = col
				}
				t0 := time.Now()
				res, err := exec(plans[qi].node, cfg)
				ns := time.Since(t0).Nanoseconds()
				if err != nil {
					emit("E %s: %v\n", plans[qi].name, err)
					continue
				}
				if traced {
					sumsMu.Lock()
					sums.add(col, def.parallelism, plans[qi].name == "q01")
					sumsMu.Unlock()
				}
				t := 0
				if traced {
					t = 1
				}
				emit("Q %d %d %d %d\n", qi, ns, res.NumRows(), t)
			}
		}
	}()

	for range time.Tick(500 * time.Millisecond) {
		status()
	}
	return nil
}

// childLog is what the parent has read from the child.
type childLog struct {
	mu        sync.Mutex
	inserted  []int // n of every acknowledged insert
	deleted   []int // row id of every acknowledged delete
	insertNs  []float64
	samples   []sample
	errors    []string
	first     *childStatus
	last      *childStatus
	pipeBytes int64
}

// consume parses the child's output until it ends, closing ready at READY.
func (l *childLog) consume(r io.Reader, ready chan<- struct{}) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		l.mu.Lock()
		l.pipeBytes += int64(len(line)) + 1
		switch {
		case line == "READY":
			close(ready)
		case strings.HasPrefix(line, "I "):
			var n int
			var ns float64
			if _, err := fmt.Sscanf(line, "I %d %g", &n, &ns); err == nil {
				l.inserted = append(l.inserted, n)
				l.insertNs = append(l.insertNs, ns)
			}
		case strings.HasPrefix(line, "D "):
			var id int
			var ns float64
			if _, err := fmt.Sscanf(line, "D %d %g", &id, &ns); err == nil {
				l.deleted = append(l.deleted, id)
			}
		case strings.HasPrefix(line, "Q "):
			var qi, rows, traced int
			var ns int64
			if _, err := fmt.Sscanf(line, "Q %d %d %d %d", &qi, &ns, &rows, &traced); err == nil {
				l.samples = append(l.samples, sample{query: qi, ns: ns, rows: rows, traced: traced == 1})
			}
		case strings.HasPrefix(line, "S "):
			st := new(childStatus)
			if err := json.Unmarshal([]byte(line[2:]), st); err == nil {
				if l.first == nil {
					l.first = st
				}
				l.last = st
			}
		case strings.HasPrefix(line, "E "):
			l.errors = append(l.errors, line[2:])
		}
		l.mu.Unlock()
	}
}

// runHTAP runs the htap_disk window in a child process, kills the child,
// attaches the directory it left behind, and checks that every write the
// child had acknowledged is there. Killing a process leaves the operating
// system's page cache intact, so this checks log replay after a process
// crash, not what a device keeps after power loss.
func runHTAP(e *env, o options, want []fingerprint, sp *spanLog, res *runResult) error {
	orderkey, linenumber, err := lineitemKeys(e.mem)
	if err != nil {
		return err
	}
	row, err := lineitemRow(e.mem, 0)
	if err != nil {
		return err
	}
	userBytesPerRow := rowUserBytes(row)
	e.disk.Close()
	e.disk = nil

	spec, err := json.Marshal(childOptions{Dir: e.dir, SF: e.sf, Seed: o.seed, Traced: o.trace})
	if err != nil {
		return err
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	root := sp.start(0, "window", "")
	if err := cmd.Start(); err != nil {
		return err
	}
	log := new(childLog)
	ready := make(chan struct{})
	consumed := make(chan struct{})
	go func() {
		log.consume(pipe, ready)
		close(consumed)
	}()
	kill := func() {
		cmd.Process.Signal(syscall.SIGKILL)
		<-consumed
		cmd.Wait()
	}
	select {
	case <-ready:
	case <-consumed:
		cmd.Wait()
		return fmt.Errorf("htap child ended before it was ready")
	case <-time.After(60 * time.Second):
		kill()
		return fmt.Errorf("htap child not ready after 60 s")
	}

	pid := cmd.Process.Pid
	start := time.Now()
	rss := startRSSSampler(pid)
	wchar0, errIO := procWchar(pid)
	log.mu.Lock()
	pipe0 := log.pipeBytes
	log.mu.Unlock()
	time.Sleep(time.Duration(o.seconds * float64(time.Second)))
	wchar1, errIO1 := procWchar(pid)
	log.mu.Lock()
	pipe1 := log.pipeBytes
	log.mu.Unlock()
	peak := rss.Stop()
	elapsed := time.Since(start)
	kill()
	sp.end(root)

	// Everything below reads the log after the child's output has ended.
	acked := len(log.inserted) + len(log.deleted)
	if acked == 0 || len(log.samples) == 0 || log.first == nil {
		return fmt.Errorf("htap child acknowledged %d writes and %d queries", acked, len(log.samples))
	}
	res.Attempted += acked + len(log.samples) + len(log.errors)
	res.Failed += len(log.errors)
	for _, msg := range log.errors {
		fmt.Fprintln(os.Stderr, "benchmark: htap_disk:", msg)
	}
	for _, s := range log.samples {
		// Inserted rows join Q1's existing groups and no delete empties
		// one, so no result may have fewer rows than before the window.
		if s.rows < want[s.query].rows {
			res.Failed++
		}
	}

	id := sp.start(0, "DB.AttachDisk(recover)", "")
	db, err := attachDisk(e.dir, false)
	sp.end(id)
	if err != nil {
		return fmt.Errorf("attach after kill: %w", err)
	}
	defer db.Close()
	keys, err := diskExec(db)(keysPlan(), execCfg{})
	if err != nil {
		return fmt.Errorf("read keys after kill: %w", err)
	}
	type key struct{ order, line int32 }
	deletedKeys := make(map[key]bool, len(log.deleted))
	for _, id := range log.deleted {
		deletedKeys[key{orderkey[id], linenumber[id]}] = true
	}
	recovered := make(map[int]bool, len(log.inserted))
	lost := 0
	ok, ln := keys.Col(0).Int32s(), keys.Col(1).Int32s()
	for i := range ok {
		if ok[i] >= insertKeyBase {
			recovered[int(ok[i])-insertKeyBase] = true
		} else if deletedKeys[key{ok[i], ln[i]}] {
			lost++ // an acknowledged delete came back
		}
	}
	for _, n := range log.inserted {
		if !recovered[n] {
			lost++
		}
	}
	res.Failed += lost
	res.set("htap.acked_rows_recovered_ratio", float64(acked-lost)/float64(acked), acked)

	// The recovered table holds an unmerged delta, which the baseline
	// engines refuse to scan: query it as it is, absorb the delta into a
	// fresh chunk generation, and let the MIL engine answer over that.
	var merged []fingerprint
	for _, p := range e.plans {
		got, err := diskExec(db)(p.node, execCfg{})
		if err != nil {
			return fmt.Errorf("%s after kill: %w", p.name, err)
		}
		merged = append(merged, fingerprintOf(got))
	}
	id = sp.start(0, "DB.Reorganize", "")
	err = reorganize(db, "lineitem")
	sp.end(id)
	if err != nil {
		return fmt.Errorf("reorganize after kill: %w", err)
	}
	for i, p := range e.plans {
		ref, err := milDisk(db, p.node)
		if err != nil {
			return fmt.Errorf("%s on MIL after kill: %w", p.name, err)
		}
		res.Attempted++
		if !merged[i].equal(fingerprintOf(ref)) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: htap_disk: %s over the recovered delta differs from the MIL engine\n", p.name)
		}
	}

	res.windowMetrics(e, log.samples, elapsed, acked)
	res.set("peak_rss_mb", peak, 1)
	sec := elapsed.Seconds()
	res.set("htap.insert_rows_per_s", float64(acked)/sec, acked)
	res.set("htap.insert_ack_us_p50", median(log.insertNs)/1e3, len(log.insertNs))
	userBytes := float64(len(log.inserted)*userBytesPerRow + 4*len(log.deleted))
	if errIO == nil && errIO1 == nil {
		// wchar counts the report lines the child wrote to its pipe too.
		written := float64(wchar1-wchar0) - float64(pipe1-pipe0)
		res.set("htap.written_bytes_per_user_byte", written/userBytes, acked)
	} else {
		res.setNote("htap.written_bytes_per_user_byte", 0, 0, "/proc/<pid>/io not readable")
	}
	d := *log.last
	d.Counters = d.Counters.sub(log.first.Counters)
	if d.Counters.CompactionErrors > 0 {
		res.Failed += int(d.Counters.CompactionErrors)
	}
	res.counterMetrics(d.Counters, d.Sums, d.AllocKB-log.first.AllocKB, len(log.samples), e.lineitemRows)
	return nil
}
