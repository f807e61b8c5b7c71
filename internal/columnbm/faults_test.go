package columnbm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"x100/internal/vector"
)

// TestTransientReadRetry injects a transient fault into the first two
// attempts of every chunk read and requires the read to succeed anyway,
// with the retries counted.
func TestTransientReadRetry(t *testing.T) {
	s := newTestStore(t, 16)
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	c := saveColumn(t, s, "c", vector.Int64, vals)
	n := c.NumFrags()
	var calls atomic.Int64
	s.FaultHook = func(stage string) error {
		if stage != "read-chunk" {
			return nil
		}
		if calls.Add(1)%3 != 0 { // fail attempts 1 and 2 of each read, pass the 3rd
			return fmt.Errorf("injected: %w", ErrTransient)
		}
		return nil
	}
	got, err := c.Pin()
	s.FaultHook = nil
	if err != nil {
		t.Fatalf("read with transient faults: %v", err)
	}
	for i, v := range got.([]int64) {
		if v != vals[i] {
			t.Fatalf("at %d: %d vs %d", i, v, vals[i])
		}
	}
	if r := s.Stats().RetriedReads; r < int64(2*n) {
		t.Fatalf("RetriedReads = %d, want >= %d (2 per chunk)", r, 2*n)
	}
}

// TestTransientReadExhausted keeps the fault on for every attempt: the
// read must give up after the bounded retries, still classifiable as
// transient, and the error must name the column and chunk.
func TestTransientReadExhausted(t *testing.T) {
	s := newTestStore(t, 16)
	c := saveColumn(t, s, "c", vector.Int64, []int64{1, 2, 3})
	var calls atomic.Int64
	s.FaultHook = func(stage string) error {
		if stage != "read-chunk" {
			return nil
		}
		calls.Add(1)
		return fmt.Errorf("injected: %w", ErrTransient)
	}
	_, err := c.Pin()
	s.FaultHook = nil
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want wrapped ErrTransient after exhausted retries, got %v", err)
	}
	if got := calls.Load(); got != maxReadAttempts {
		t.Fatalf("attempts = %d, want %d", got, maxReadAttempts)
	}
	if !strings.Contains(err.Error(), "column c.v") || !strings.Contains(err.Error(), "chunk 0") {
		t.Fatalf("error lacks chunk identity: %v", err)
	}
}

// TestPermanentReadErrorNoRetry requires a permanent failure to surface
// immediately: one attempt, no backoff sleeps, no retry count.
func TestPermanentReadErrorNoRetry(t *testing.T) {
	s := newTestStore(t, 16)
	c := saveColumn(t, s, "c", vector.Int64, []int64{1, 2, 3})
	permanent := errors.New("disk on fire")
	var calls atomic.Int64
	s.FaultHook = func(stage string) error {
		if stage != "read-chunk" {
			return nil
		}
		calls.Add(1)
		return permanent
	}
	_, err := c.Pin()
	s.FaultHook = nil
	if !errors.Is(err, permanent) {
		t.Fatalf("want the permanent error, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on permanent errors)", got)
	}
	if s.Stats().RetriedReads != 0 {
		t.Fatalf("RetriedReads = %d, want 0", s.Stats().RetriedReads)
	}
}

// TestScrubTable verifies an intact table end to end, then corrupts one
// chunk file and requires the next sweep to identify exactly that chunk —
// with the failure counted and named — while the rest still verifies.
func TestScrubTable(t *testing.T) {
	const n, chunk = 2500, 700
	orig := buildMixedTable(t, n)
	s, err := NewStore(t.TempDir(), chunk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTable(orig); err != nil {
		t.Fatal(err)
	}
	res, err := s.ScrubTable("mixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked == 0 || len(res.Failed) != 0 {
		t.Fatalf("intact table: checked=%d failed=%v", res.Checked, res.Failed)
	}
	if res.Skipped != 0 {
		t.Fatalf("intact table: %d chunks skipped (missing manifest CRCs)", res.Skipped)
	}

	// Flip one byte in one chunk of column k.
	m, err := s.ReadManifest("mixed")
	if err != nil {
		t.Fatal(err)
	}
	path := s.chunkPath("mixed.k", m.Gen, 1)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	res2, err := s.ScrubTable("mixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Failed) != 1 {
		t.Fatalf("corrupt chunk: failed=%v, want exactly one", res2.Failed)
	}
	if !strings.Contains(res2.Failed[0], "mixed.k") || !strings.Contains(res2.Failed[0], "chunk 1") {
		t.Fatalf("failure lacks chunk identity: %s", res2.Failed[0])
	}
	if res2.Checked != res.Checked-1 {
		t.Fatalf("checked %d, want %d (all but the corrupt chunk)", res2.Checked, res.Checked-1)
	}
	st := s.Stats()
	if st.ScrubFailed != 1 || st.ScrubVerified != int64(res.Checked+res2.Checked) {
		t.Fatalf("scrub counters = verified %d failed %d", st.ScrubVerified, st.ScrubFailed)
	}

	// A cancelled sweep stops between chunks and reports what it covered.
	stop := make(chan struct{})
	close(stop)
	res3, err := s.ScrubTable("mixed", stop)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Checked != 0 || len(res3.Failed) != 0 {
		t.Fatalf("pre-stopped sweep did work: %+v", res3)
	}
}

// TestWALGroupCommitCancel parks a durable append behind another writer's
// in-flight fsync (blocked via the wal-sync fault stage), cancels it, and
// requires a prompt return wrapping context.Canceled — without disturbing
// the leader's commit.
func TestWALGroupCommitCancel(t *testing.T) {
	s := walTestStore(t)
	w, _ := collectWAL(t, s, "tbl", 1)
	defer w.Close()

	syncEntered := make(chan struct{})
	syncRelease := make(chan struct{})
	var once atomic.Bool
	s.FaultHook = func(stage string) error {
		if stage == "wal-sync" && once.CompareAndSwap(false, true) {
			close(syncEntered)
			<-syncRelease
		}
		return nil
	}
	defer func() { s.FaultHook = nil }()

	leaderDone := make(chan error, 1)
	go func() { leaderDone <- w.LogInsert([]any{int32(1)}, true) }()
	<-syncEntered // the leader is now mid-fsync, holding no lock

	cancel := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() { waiterDone <- w.LogInsertCancel([]any{int32(2)}, true, cancel) }()
	time.Sleep(20 * time.Millisecond) // let the waiter append and park
	close(cancel)

	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: want wrapped context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return while the group commit was blocked")
	}

	close(syncRelease)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader append failed: %v", err)
	}
}
