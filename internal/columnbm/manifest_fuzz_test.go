package columnbm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// seedManifests covers both manifest versions: a version-1 manifest (no
// version field, uniform grid) and a version-2 manifest with generation,
// explicit chunk counts (short interior chunk from an append) and a
// persisted deletion list.
var seedManifests = []string{
	// v1, pre-chunk_rows era.
	`{"table":"t","rows":10,"columns":[{"name":"a","type":"int64","chunks":1}]}`,
	// v1 with grid and bounds.
	`{"table":"t","rows":250,"chunk_rows":100,"columns":[
	   {"name":"a","type":"int64","chunks":3,"chunk_min_i64":[0,100,200],"chunk_max_i64":[99,199,249]},
	   {"name":"s","type":"string","chunks":3,"chunk_dict_card":[3,3,3]}]}`,
	// v2 after an append: gen, counts, deletions, grown enum dict.
	`{"version":2,"table":"t","rows":380,"chunk_rows":100,"gen":1,
	  "chunk_counts":[100,100,50,100,30],"deleted":[3,7,42],
	  "columns":[
	   {"name":"a","type":"int64","chunks":5},
	   {"name":"e","type":"string","chunks":5,"enum":true,"dict_str":["x","y","z"]}]}`,
	// Torn/hostile inputs.
	`{"version":99,"table":"t","rows":1,"columns":[]}`,
	`{"table":"t","rows":-5,"columns":[]}`,
	`{"version":2,"table":"t","rows":10,"chunk_counts":[4,7],"columns":[{"name":"a","type":"int64","chunks":2}]}`,
	`{"version":2,"table":"t","rows":10,"chunk_counts":[5,5],"deleted":[9,3],"columns":[{"name":"a","type":"int64","chunks":2}]}`,
	`{"table":"t","rows":10,"columns":[{"name":"a","type":"int64","chunks":-3}]}`,
	`not json at all`,
}

// FuzzManifestReader feeds arbitrary bytes to the manifest reader and the
// attach path: neither may panic, a manifest that reads back must satisfy
// the cross-field invariants, and a table that attaches must have exactly
// the manifest's row count. This locks the version-2 bump down against
// torn writes and hostile directories.
func FuzzManifestReader(f *testing.F) {
	for _, seed := range seedManifests {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		var probe struct {
			Table string `json:"table"`
		}
		name := "t"
		if err := json.Unmarshal(raw, &probe); err == nil && probe.Table != "" {
			// The reader looks the manifest up by table name; only
			// manifests whose name matches their file are reachable.
			if filepath.Base(probe.Table) == probe.Table && probe.Table != "." && probe.Table != ".." {
				name = probe.Table
			}
		}
		if err := os.WriteFile(manifestPath(dir, name), raw, 0o644); err != nil {
			t.Skip()
		}
		s, err := NewStore(dir, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.ReadManifest(name)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if m.Version > ManifestVersion {
			t.Fatalf("accepted future manifest version %d", m.Version)
		}
		if err := m.validate(); err != nil {
			t.Fatalf("ReadManifest returned invalid manifest: %v", err)
		}
		tab, err := s.AttachTable(name)
		if err != nil {
			return // chunks missing / inconsistent grid: rejected cleanly
		}
		if tab.N != m.Rows {
			t.Fatalf("attached %d rows, manifest says %d", tab.N, m.Rows)
		}
	})
}

// TestManifestRoundTripAcrossVersions writes a v1-shaped manifest by hand,
// appends through the v2 writer, and asserts the result still reads back
// and re-marshals stably — the backward-compatibility contract of the
// version bump.
func TestManifestRoundTripAcrossVersions(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, wbChunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := wbTable(t, 250)
	if err := s.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest as version 1: strip the v2 fields.
	m, err := s.ReadManifest("wb")
	if err != nil {
		t.Fatal(err)
	}
	m.Version = 0
	m.ChunkCounts = nil
	m.Deleted = nil
	m.Gen = 0
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(dir, "wb"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// v1 manifests attach (uniform grid) ...
	att, err := s.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}
	if att.N != 250 {
		t.Fatalf("v1 attach: %d rows", att.N)
	}
	// ... and appending upgrades them to v2 in place.
	frags, err := s.AppendTable(att, wbParts(att, 250, 30), []int32{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := att.AppendFragments(frags); err != nil {
		t.Fatal(err)
	}
	m2, err := s.ReadManifest("wb")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != ManifestVersion || m2.Rows != 280 || len(m2.ChunkCounts) != 4 {
		t.Fatalf("upgraded manifest: version=%d rows=%d counts=%v", m2.Version, m2.Rows, m2.ChunkCounts)
	}
	att2, err := s.AttachTable("wb")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "v1->v2", materialize(t, att), materialize(t, att2))
}
