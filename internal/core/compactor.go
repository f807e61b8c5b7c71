package core

import (
	"sort"
	"sync"
	"time"

	"x100/internal/sched"
)

// CompactorOptions tune the background compactor (StartCompactor).
type CompactorOptions struct {
	// Interval is how often the compactor polls the disk-attached tables
	// for work. <= 0 selects 100ms.
	Interval time.Duration
	// MinDeltaRows is the pending-insert threshold above which a table is
	// checkpointed (incrementally absorbing the delta into new chunks).
	// <= 0 selects 4096.
	MinDeltaRows int
	// DeleteFraction is the deleted-row fraction above which a table is
	// compacted (Reorganize: the base is rewritten without the deleted
	// rows into a fresh chunk generation). <= 0 selects 0.25.
	DeleteFraction float64
	// Pool is the admission-control pool the compactor draws one execution
	// slot from per maintenance run, so background compaction competes
	// with queries for the shared slot budget instead of starving them.
	// nil uses the process-wide default pool.
	Pool *sched.Pool
}

// CompactionStatus is a snapshot of the background compactor's counters.
type CompactionStatus struct {
	// Runs counts completed maintenance operations (checkpoints plus
	// compactions).
	Runs int64
	// Checkpoints counts incremental delta write-backs.
	Checkpoints int64
	// Compactions counts full base rewrites (Reorganize cutovers).
	Compactions int64
	// RowsAbsorbed totals the delta rows absorbed into base chunks.
	RowsAbsorbed int64
	// Errors counts failed maintenance operations; LastError is the most
	// recent failure (nil when none).
	Errors    int64
	LastError error
	// InFlight reports whether a maintenance operation is running right
	// now, and LastTable names the table it (or the previous run) touched.
	InFlight  bool
	LastTable string
}

// Compactor runs checkpoint and Reorganize as background maintenance over
// a database's disk-attached tables: it periodically absorbs grown insert
// deltas into new chunks (incremental checkpoint) and rewrites tables
// whose deleted fraction passed the threshold (compaction), while queries
// keep executing against their captured snapshots. Create one with
// StartCompactor; Stop it before discarding the database.
type Compactor struct {
	db   *Database
	opts CompactorOptions

	mu     sync.Mutex
	status CompactionStatus

	stop chan struct{}
	done chan struct{}
}

// StartCompactor launches a background compactor over db's disk-attached
// tables.
func StartCompactor(db *Database, opts CompactorOptions) *Compactor {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if opts.MinDeltaRows <= 0 {
		opts.MinDeltaRows = 4096
	}
	if opts.DeleteFraction <= 0 {
		opts.DeleteFraction = 0.25
	}
	c := &Compactor{db: db, opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

// Stop halts the compactor and waits for an in-flight maintenance run to
// finish. Idempotent.
func (c *Compactor) Stop() {
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
		<-c.done
		return
	default:
	}
	close(c.stop)
	c.mu.Unlock()
	<-c.done
}

// Status returns a snapshot of the compactor's counters.
func (c *Compactor) Status() CompactionStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

func (c *Compactor) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sweep()
		}
	}
}

// sweep scans the disk-attached tables once and runs at most one
// maintenance operation per table. Each operation holds an admission slot
// for its duration: the heavy work (part encoding, chunk compression)
// competes with query workers for the shared core budget.
func (c *Compactor) sweep() {
	c.db.mu.RLock()
	names := make([]string, 0, len(c.db.disk))
	for name := range c.db.disk {
		names = append(names, name)
	}
	c.db.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		select {
		case <-c.stop:
			return
		default:
		}
		c.maintain(name)
	}
}

func (c *Compactor) maintain(table string) {
	ds, err := c.db.Delta(table)
	if err != nil {
		return
	}
	nDel := ds.NumDeleted()
	nIns := ds.NumDeltaRows()
	total := ds.BaseN() + nIns
	compact := total > 0 && float64(nDel) >= c.opts.DeleteFraction*float64(total)
	checkpoint := nIns >= c.opts.MinDeltaRows
	if !compact && !checkpoint {
		return
	}
	c.mu.Lock()
	c.status.InFlight = true
	c.status.LastTable = table
	c.mu.Unlock()
	slot := c.pool().NewSlot()
	slot.Acquire()
	if compact {
		err = c.db.Reorganize(table)
	} else {
		_, err = c.db.Checkpoint(table)
	}
	slot.Release()
	c.mu.Lock()
	c.status.InFlight = false
	if err != nil {
		c.status.Errors++
		c.status.LastError = err
	} else {
		c.status.Runs++
		if compact {
			c.status.Compactions++
			c.status.RowsAbsorbed += int64(nIns)
		} else {
			c.status.Checkpoints++
			c.status.RowsAbsorbed += int64(nIns)
		}
	}
	c.mu.Unlock()
}

func (c *Compactor) pool() *sched.Pool {
	if c.opts.Pool != nil {
		return c.opts.Pool
	}
	return sched.Default()
}
