package columnbm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"x100/internal/colstore"
	"x100/internal/vector"
)

// wbChunkRows is small so appends span multiple chunks and the table has
// short interior chunks after a couple of checkpoints.
const wbChunkRows = 100

// wbTable builds the test table: an int column with appendable bounds, a
// float, a plain string, and an enum string column.
func wbTable(t *testing.T, n int) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("wb")
	keys := make([]int64, n)
	vals := make([]float64, n)
	names := make([]string, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		vals[i] = float64(i%17) / 4
		names[i] = fmt.Sprintf("row#%08d", i)
		tags[i] = []string{"a", "b", "c"}[i%3]
	}
	if err := tab.AddColumn("k", vector.Int64, keys); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("v", vector.Float64, vals); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("name", vector.String, names); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumColumn("tag", tags); err != nil {
		t.Fatal(err)
	}
	return tab
}

// wbParts builds delta parts [base, base+k) matching wbTable's physical
// column layout (the enum column passes codes).
func wbParts(tab *colstore.Table, base, k int) []any {
	keys := make([]int64, k)
	vals := make([]float64, k)
	names := make([]string, k)
	codes := make([]uint8, k)
	for i := 0; i < k; i++ {
		keys[i] = int64(base + i)
		vals[i] = float64((base + i) % 17)
		names[i] = fmt.Sprintf("row#%08d", base+i)
		codes[i] = uint8(tab.Cols[3].Dict.Code([]string{"a", "b", "c", "d"}[(base+i)%4]))
	}
	return []any{keys, vals, names, codes}
}

// materialize reads every row of an attached table value-at-a-time through
// locators (no pinning) and returns a row-key snapshot for comparisons.
func materialize(t *testing.T, tab *colstore.Table) []string {
	t.Helper()
	locs := make([]*colstore.FragLocator, len(tab.Cols))
	for i, c := range tab.Cols {
		locs[i] = c.Locator(2)
	}
	out := make([]string, tab.N)
	for r := 0; r < tab.N; r++ {
		s := ""
		for _, l := range locs {
			v, err := l.Value(r)
			if err != nil {
				t.Fatal(err)
			}
			s += fmt.Sprintf("|%v", v)
		}
		out[r] = s
	}
	return out
}

func sameRows(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestWriteBackAppendRoundTrip checkpoints two delta batches into the
// directory and asserts a fresh attach sees all rows, the manifest has
// exact per-chunk counts (short interior chunks), bounds still cover every
// chunk, and the persisted deletion list is recovered.
func TestWriteBackAppendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, wbChunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := wbTable(t, 250) // 3 chunks: 100/100/50
	if err := s.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	att, err := s.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}

	// First append: 130 rows -> chunks of 100/30 after the short 50-row
	// chunk, leaving a short interior chunk.
	parts := wbParts(att, 250, 130)
	frags, err := s.AppendTable(att, parts, []int32{3, 7}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := att.AppendFragments(frags); err != nil {
		t.Fatal(err)
	}
	if att.N != 380 {
		t.Fatalf("attached table has %d rows after append, want 380", att.N)
	}
	// Second append: deletions only (no parts).
	if _, err := s.AppendTable(att, nil, []int32{3, 7, 380 - 1}, false); err != nil {
		t.Fatal(err)
	}

	m, err := s.ReadManifest("wb")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != ManifestVersion || m.Rows != 380 {
		t.Fatalf("manifest version=%d rows=%d", m.Version, m.Rows)
	}
	wantCounts := []int{100, 100, 50, 100, 30}
	if len(m.ChunkCounts) != len(wantCounts) {
		t.Fatalf("chunk counts %v, want %v", m.ChunkCounts, wantCounts)
	}
	for i, c := range wantCounts {
		if m.ChunkCounts[i] != c {
			t.Fatalf("chunk counts %v, want %v", m.ChunkCounts, wantCounts)
		}
	}
	if len(m.Deleted) != 3 {
		t.Fatalf("deleted list %v, want 3 entries", m.Deleted)
	}
	for _, cm := range m.Columns {
		if cm.Chunks != 5 {
			t.Fatalf("column %s has %d chunks, want 5", cm.Name, cm.Chunks)
		}
		switch cm.Name {
		case "k":
			if len(cm.ChunkMinI64) != 5 || len(cm.ChunkMaxI64) != 5 {
				t.Fatalf("k bounds not extended: %d/%d", len(cm.ChunkMinI64), len(cm.ChunkMaxI64))
			}
			if cm.ChunkMinI64[3] != 250 || cm.ChunkMaxI64[4] != 379 {
				t.Fatalf("k bounds wrong: min[3]=%d max[4]=%d", cm.ChunkMinI64[3], cm.ChunkMaxI64[4])
			}
		case "v":
			if len(cm.ChunkMinF64) != 5 {
				t.Fatalf("v bounds not extended: %d", len(cm.ChunkMinF64))
			}
		case "name":
			if len(cm.ChunkMinStr) != 5 || len(cm.ChunkDictCard) != 5 {
				t.Fatalf("name bounds/cards not extended: %d/%d", len(cm.ChunkMinStr), len(cm.ChunkDictCard))
			}
		case "tag":
			if len(cm.DictStr) != 4 {
				t.Fatalf("tag dictionary %v, want 4 values (grew by 'd')", cm.DictStr)
			}
		}
	}

	// A fresh attach (cold store) decodes every appended row identically to
	// the live re-attached table.
	s2, err := NewStore(dir, wbChunkRows, 4)
	if err != nil {
		t.Fatal(err)
	}
	att2, err := s2.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "reattach", materialize(t, att), materialize(t, att2))
	for _, c := range att2.Cols {
		if c.Pinned() {
			t.Fatalf("column %s pinned by locator materialization", c.Name)
		}
	}
}

// TestWriteBackEmptyTable appends to a table persisted empty (its grid is a
// single zero-row chunk).
func TestWriteBackEmptyTable(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, wbChunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := wbTable(t, 0)
	if err := s.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	att, err := s.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}
	frags, err := s.AppendTable(att, wbParts(att, 0, 42), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := att.AppendFragments(frags); err != nil {
		t.Fatal(err)
	}
	att2, err := s.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}
	if att2.N != 42 {
		t.Fatalf("re-attached %d rows, want 42", att2.N)
	}
	sameRows(t, "empty-append", materialize(t, att), materialize(t, att2))
}

// TestWriteBackRowIDEpochs checks the manifest's row-id epochs: SaveTable
// writes 0, a checkpoint append or a compaction commit bumps rowid_epoch
// only when told the commit moved row ids, and both carry join_epochs
// forward unchanged.
func TestWriteBackRowIDEpochs(t *testing.T) {
	s, err := NewStore(t.TempDir(), wbChunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTable(wbTable(t, 250)); err != nil {
		t.Fatal(err)
	}
	m, err := s.ReadManifest("wb")
	if err != nil {
		t.Fatal(err)
	}
	if m.RowIDEpoch != 0 || m.JoinEpochs != nil {
		t.Fatalf("SaveTable wrote rowid_epoch %d, join_epochs %v; want 0 and none", m.RowIDEpoch, m.JoinEpochs)
	}
	// A join-index column valid for epoch 5 of the table it references.
	m.JoinEpochs = map[string]int64{"k": 5}
	if err := s.writeManifest(m); err != nil {
		t.Fatal(err)
	}
	att, err := s.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(moved bool) error {
		pr, err := s.PrepareRewrite(att)
		if err != nil {
			return err
		}
		_, err = pr.Commit(moved)
		return err
	}
	for i, step := range []struct {
		label  string
		commit func() error
		want   int64
	}{
		{"append", func() error { _, err := s.AppendTable(att, nil, []int32{3}, false); return err }, 0},
		{"append moving ids", func() error { _, err := s.AppendTable(att, nil, []int32{3, 4}, true); return err }, 1},
		{"rewrite", func() error { return rewrite(false) }, 1},
		{"rewrite moving ids", func() error { return rewrite(true) }, 2},
	} {
		if err := step.commit(); err != nil {
			t.Fatalf("step %d %s: %v", i, step.label, err)
		}
		m, err := s.ReadManifest("wb")
		if err != nil {
			t.Fatal(err)
		}
		if m.RowIDEpoch != step.want || len(m.JoinEpochs) != 1 || m.JoinEpochs["k"] != 5 {
			t.Fatalf("after %s: rowid_epoch %d, join_epochs %v; want %d and k:5", step.label, m.RowIDEpoch, m.JoinEpochs, step.want)
		}
	}
}

// snapshotDir records name -> content of every file in a directory.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestCrashSafetyMidWriteBack kills the write-back at every fault stage (a
// counted number of chunk writes, the temp manifest, the rename) and
// asserts that a fresh attach sees exactly the pre-checkpoint state for
// every pre-commit stage, the post-checkpoint state once the rename
// happened, and that the manifest always parses (never torn).
func TestCrashSafetyMidWriteBack(t *testing.T) {
	errBoom := errors.New("injected crash")
	type stage struct {
		name      string
		stageName string
		failAt    int // fail on the n-th call of that stage
		committed bool
	}
	stages := []stage{
		{"first-chunk", "chunk", 1, false},
		{"mid-chunk", "chunk", 3, false},
		{"last-chunk", "chunk", 8, false},
		{"manifest-temp", "manifest-temp", 1, false},
		{"manifest-commit", "manifest-commit", 1, true},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStore(dir, wbChunkRows, 0)
			if err != nil {
				t.Fatal(err)
			}
			tab := wbTable(t, 250)
			if err := s.SaveTable(tab); err != nil {
				t.Fatal(err)
			}
			att, err := s.AttachTable("wb")
			if err != nil {
				t.Fatal(err)
			}
			before := materialize(t, att)
			pre := snapshotDir(t, dir)

			calls := 0
			s.FaultHook = func(stageName string) error {
				if stageName != st.stageName {
					return nil
				}
				calls++
				if calls == st.failAt {
					return errBoom
				}
				return nil
			}
			// 180 rows x 4 columns over 100-row chunks = 8 chunk writes.
			_, err = s.AppendTable(att, wbParts(att, 250, 180), []int32{5}, false)
			if !errors.Is(err, errBoom) {
				t.Fatalf("append error = %v, want injected crash", err)
			}
			s.FaultHook = nil

			// The manifest on disk must always parse as valid JSON.
			raw, err := os.ReadFile(filepath.Join(dir, "wb.manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			var js map[string]any
			if err := json.Unmarshal(raw, &js); err != nil {
				t.Fatalf("torn manifest after %s: %v", st.name, err)
			}

			// Re-attach through a fresh store (cold pool): pre-commit crashes
			// recover the exact pre-checkpoint state; a post-commit crash is a
			// completed checkpoint.
			s2, err := NewStore(dir, wbChunkRows, 0)
			if err != nil {
				t.Fatal(err)
			}
			att2, err := s2.AttachTable("wb")
			if err != nil {
				t.Fatal(err)
			}
			m, err := s2.ReadManifest("wb")
			if err != nil {
				t.Fatal(err)
			}
			if st.committed {
				if att2.N != 430 || len(m.Deleted) != 1 {
					t.Fatalf("post-commit crash: %d rows, deleted %v", att2.N, m.Deleted)
				}
				return
			}
			if att2.N != 250 || len(m.Deleted) != 0 {
				t.Fatalf("pre-commit crash: %d rows, deleted %v; want pristine 250", att2.N, m.Deleted)
			}
			sameRows(t, st.name, before, materialize(t, att2))
			// No committed file may have changed (orphan chunks and a stale
			// .tmp are allowed; they are unreferenced).
			post := snapshotDir(t, dir)
			for name, content := range pre {
				if post[name] != content {
					t.Fatalf("%s: committed file %s changed by crashed write-back", st.name, name)
				}
			}

			// A retry with the fault cleared completes and sees everything.
			att3, err := s2.AttachTable("wb")
			if err != nil {
				t.Fatal(err)
			}
			frags, err := s2.AppendTable(att3, wbParts(att3, 250, 180), []int32{5}, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := att3.AppendFragments(frags); err != nil {
				t.Fatal(err)
			}
			if att3.N != 430 {
				t.Fatalf("retry: %d rows, want 430", att3.N)
			}
		})
	}
}

// TestReorganizeDiskRewrite rewrites a directory through PrepareRewrite
// and Commit — the disk Reorganize path — and asserts the new generation
// attaches identically with the directory's chunk grid, the manifest
// generation advanced, and removing the superseded generation deletes its
// files.
func TestReorganizeDiskRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, wbChunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := wbTable(t, 250)
	if err := s.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	want := materialize(t, tab)

	// A store configured with another chunk size keeps the directory's grid.
	s2, err := NewStore(dir, 2*wbChunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(tab *colstore.Table) *Manifest {
		t.Helper()
		pr, err := s2.PrepareRewrite(tab)
		if err != nil {
			t.Fatal(err)
		}
		old, err := pr.Commit(false)
		if err != nil {
			t.Fatal(err)
		}
		s2.RemoveGeneration(old)
		m, err := s2.ReadManifest("wb")
		if err != nil {
			t.Fatal(err)
		}
		if m.Gen != old.Gen+1 || m.ChunkRows != wbChunkRows {
			t.Fatalf("rewrite of generation %d committed generation %d with %d-row chunks, want %d and %d", old.Gen, m.Gen, m.ChunkRows, old.Gen+1, wbChunkRows)
		}
		return m
	}
	rewrite(tab)
	// Old generation-0 chunk files are unreferenced and removed.
	matches, err := filepath.Glob(filepath.Join(dir, "wb.k.0*.chunk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("generation-0 files survive rewrite: %v", matches)
	}
	att, err := s2.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "rewrite", want, materialize(t, att))
	// Storage reports read the rewritten generation.
	storage, err := s2.TableStorage("wb")
	if err != nil {
		t.Fatal(err)
	}
	if len(storage) != 4 || storage[0].Chunks != 3 {
		t.Fatalf("storage report after rewrite: %+v", storage)
	}

	// A second rewrite bumps the generation again.
	if m2 := rewrite(att); m2.Gen != 2 {
		t.Fatalf("generation %d after second rewrite, want 2", m2.Gen)
	}
}
