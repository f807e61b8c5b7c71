// Command x100shell is an interactive shell for the X100 engine: it
// generates a TPC-H database and executes plans typed in the paper's
// textual algebra syntax.
//
//	$ go run ./cmd/x100shell -sf 0.01
//	x100> Aggr(Select(Scan(lineitem), <(l_shipdate, date('1998-09-03'))),
//	      [l_returnflag], [n = count()])
//
// Statements may span lines; they execute once the parentheses balance.
// With -disk DIR the shell attaches a ColumnBM chunk directory (written by
// dbgen -out) instead of generating data, and queries scan straight off
// the compressed chunks.
// Meta commands: \tables, \schema <t>, \storage <t> (per-column codec
// report plus, for disk tables, the buffer-pool counters: raw page
// hits/misses and the decoded-chunk cache's occupancy,
// hit/miss/attach/eviction counts — attach = a scan joining a chunk
// another scan already decoded), \explain <plan>,
// \engine <x100|mil|volcano>, \vectorsize <n>, \parallel <n>, \trace,
// \timeout <dur> (per-query deadline, e.g. 500ms; 0 disables),
// \delete <t> <rowid>, \checkpoint <t> (durable write-back on disk tables),
// \reorganize <t> (directory compaction), \q.
//
// Ctrl-C cancels the query in flight — the engine aborts at the next
// morsel boundary and the shell keeps running; at an idle prompt it is
// ignored (\q quits).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"x100"
)

// inflight tracks the cancel function of the query being executed, so the
// SIGINT handler can abort it without killing the shell.
var inflight struct {
	mu     sync.Mutex
	cancel context.CancelFunc
}

func setInflight(c context.CancelFunc) {
	inflight.mu.Lock()
	inflight.cancel = c
	inflight.mu.Unlock()
}

func cancelInflight() bool {
	inflight.mu.Lock()
	defer inflight.mu.Unlock()
	if inflight.cancel == nil {
		return false
	}
	inflight.cancel()
	return true
}

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor to generate")
	disk := flag.String("disk", "", "attach a ColumnBM chunk directory (dbgen -out) instead of generating")
	flag.Parse()

	var db *x100.DB
	var err error
	if *disk != "" {
		fmt.Printf("attaching ColumnBM directory %s ...\n", *disk)
		db = x100.NewDB()
		err = db.AttachDisk(*disk)
	} else {
		fmt.Printf("generating TPC-H at SF=%g ...\n", *sf)
		db, err = x100.GenerateTPCH(*sf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("ready. \\q quits, \\tables lists tables, \\storage <t> shows chunk codecs, plans run on balance of parens.")
	fmt.Println("Ctrl-C cancels the query in flight; \\timeout <dur> sets a per-query deadline.")

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		for range sigCh {
			if !cancelInflight() {
				fmt.Println("\n(no query in flight; \\q to quit)")
			}
		}
	}()

	engine := x100.Vectorized
	vectorSize := 0
	parallelism := 0
	timeout := time.Duration(0)
	traceOn := false
	var buf strings.Builder
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("x100> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if handleMeta(trimmed, db, &engine, &vectorSize, &parallelism, &timeout, &traceOn) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		text := buf.String()
		if balanced(text) && strings.TrimSpace(text) != "" {
			buf.Reset()
			runPlan(db, text, engine, vectorSize, parallelism, timeout, traceOn)
		}
		prompt()
	}
}

func balanced(s string) bool {
	depth := 0
	for _, c := range s {
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		}
	}
	return depth <= 0 && strings.Contains(s, "(")
}

func handleMeta(cmd string, db *x100.DB, engine *x100.Engine, vectorSize, parallelism *int, timeout *time.Duration, traceOn *bool) (quit bool) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\tables":
		for _, t := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
			if n, err := db.NumRows(t); err == nil {
				fmt.Printf("  %-10s %10d rows\n", t, n)
			}
		}
	case "\\schema":
		if len(fields) < 2 {
			fmt.Println("usage: \\schema <table>")
			break
		}
		s, err := db.TableSchema(fields[1])
		if err != nil {
			fmt.Println(err)
			break
		}
		fmt.Println(s)
	case "\\storage":
		if len(fields) < 2 {
			fmt.Println("usage: \\storage <table>")
			break
		}
		cols, err := db.Storage(fields[1])
		if err != nil {
			fmt.Println(err)
			break
		}
		fmt.Print(x100.FormatStorage(cols))
		for _, ws := range db.WalStatuses() {
			if ws.Table == fields[1] {
				fmt.Print(x100.FormatWalStatus([]x100.WalStatus{ws}))
				fmt.Print(x100.FormatPoolStatus([]x100.WalStatus{ws}))
			}
		}
	case "\\parallel":
		if len(fields) < 2 {
			fmt.Println("usage: \\parallel <n> (0 = serial, -1 = all cores)")
			break
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Println(err)
			break
		}
		*parallelism = n
	case "\\delete":
		if len(fields) < 3 {
			fmt.Println("usage: \\delete <table> <rowid>")
			break
		}
		id, err := strconv.Atoi(fields[2])
		if err != nil {
			fmt.Println(err)
			break
		}
		if err := db.Delete(fields[1], int32(id)); err != nil {
			fmt.Println(err)
			break
		}
		fmt.Printf("deleted row %d of %s (checkpoint to persist on disk tables)\n", id, fields[1])
	case "\\checkpoint":
		if len(fields) < 2 {
			fmt.Println("usage: \\checkpoint <table>")
			break
		}
		done, err := db.Checkpoint(fields[1])
		switch {
		case err != nil:
			fmt.Println(err)
		case !done:
			fmt.Println("checkpoint declined (enum dictionary outgrew its code width); use \\reorganize")
		default:
			fmt.Println("checkpointed", fields[1])
		}
	case "\\reorganize":
		if len(fields) < 2 {
			fmt.Println("usage: \\reorganize <table>")
			break
		}
		if err := db.Reorganize(fields[1]); err != nil {
			fmt.Println(err)
			break
		}
		fmt.Println("reorganized", fields[1])
	case "\\explain":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		plan, err := x100.Parse(rest)
		if err != nil {
			fmt.Println(err)
			break
		}
		fmt.Print(x100.Explain(plan))
	case "\\engine":
		if len(fields) < 2 {
			fmt.Println("usage: \\engine x100|mil|volcano")
			break
		}
		switch fields[1] {
		case "x100":
			*engine = x100.Vectorized
		case "mil":
			*engine = x100.MIL
		case "volcano":
			*engine = x100.Volcano
		default:
			fmt.Println("unknown engine", fields[1])
		}
	case "\\vectorsize":
		if len(fields) < 2 {
			fmt.Println("usage: \\vectorsize <n>")
			break
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Println(err)
			break
		}
		*vectorSize = n
	case "\\timeout":
		if len(fields) < 2 {
			fmt.Println("usage: \\timeout <duration> (e.g. 500ms, 2s; 0 disables)")
			break
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			fmt.Println(err)
			break
		}
		*timeout = d
		if d > 0 {
			fmt.Println("per-query deadline:", d)
		} else {
			fmt.Println("per-query deadline disabled")
		}
	case "\\trace":
		*traceOn = !*traceOn
		fmt.Println("trace:", *traceOn)
	default:
		fmt.Println("unknown command", fields[0])
	}
	return false
}

func runPlan(db *x100.DB, text string, engine x100.Engine, vectorSize, parallelism int, timeout time.Duration, traceOn bool) {
	plan, err := x100.Parse(text)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, timeout)
		defer cancelT()
	}
	ctx, cancel := context.WithCancel(ctx)
	setInflight(cancel)
	defer func() {
		setInflight(nil)
		cancel()
	}()
	opts := []x100.ExecOption{x100.WithEngine(engine), x100.WithContext(ctx)}
	if vectorSize > 0 {
		opts = append(opts, x100.WithVectorSize(vectorSize))
	}
	if parallelism != 0 {
		opts = append(opts, x100.WithParallelism(parallelism))
	}
	var tr *x100.Tracer
	if traceOn && engine == x100.Vectorized {
		tr = x100.NewTracer()
		opts = append(opts, x100.WithTracer(tr))
	}
	t0 := time.Now()
	res, err := db.Exec(plan, opts...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(res.Format(20))
	fmt.Printf("(%d rows in %.4fs)\n", res.NumRows(), time.Since(t0).Seconds())
	if tr != nil {
		fmt.Print(tr.Render())
	}
}
