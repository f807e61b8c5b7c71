package columnbm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"x100/internal/colstore"
	"x100/internal/vector"
)

// ManifestVersion is the manifest format version this package writes.
// Version 2 added durable updates: the Gen, ChunkCounts and Deleted fields
// plus the atomic (temp-file + rename) manifest commit protocol. Version 3
// added per-chunk CRC32 checksums (chunk_crc32, verified on load) and the
// write-ahead-log epoch (wal_epoch, which ties a WAL file to the manifest
// commit it logs changes against). Version 4 added the row-id epochs
// (rowid_epoch, join_epochs) that keep a join index stale across a
// re-attach once the row ids it holds have moved. Older manifests read
// unchanged: absent checksums mean "no verification" and an absent epoch
// is 0. Manifests without a version field are version 1 and attach with
// the uniform chunk grid; readers reject manifests from the future.
const ManifestVersion = 4

// Manifest records how a table was persisted: per column, the logical
// type, chunk count, and (for enum columns) the dictionary values. It makes
// a chunk directory self-describing, so databases survive a round trip
// through the store.
type Manifest struct {
	// Version is the manifest format version (0 or absent = version 1).
	Version int    `json:"version,omitempty"`
	Table   string `json:"table"`
	Rows    int    `json:"rows"`
	// ChunkRows is the chunk size (values per chunk) the writer used; the
	// last chunk of each column may be shorter. It stays the nominal grid
	// (morsel alignment) even when ChunkCounts records shorter chunks.
	ChunkRows int `json:"chunk_rows,omitempty"`
	// Gen is the chunk-file generation: Reorganize rewrites a table into
	// fresh files of the next generation and commits them with one manifest
	// rename, so chunk files referenced by a committed manifest are never
	// modified in place. Generation 0 files carry no generation infix in
	// their names (version 1 layout).
	Gen int `json:"gen,omitempty"`
	// ChunkCounts lists the exact row count of every chunk (all columns
	// share one grid). Absent means the uniform grid: ChunkRows per chunk,
	// last chunk shorter. Checkpoint write-back appends delta chunks that
	// start a fresh chunk, so a table that has absorbed deltas has "short"
	// interior chunks and needs the explicit counts.
	ChunkCounts []int `json:"chunk_counts,omitempty"`
	// Deleted is the persisted deletion list (ascending row ids): deletions
	// survive restarts once a checkpoint has written them back. Reorganize
	// compacts them away and clears the list.
	Deleted []int32 `json:"deleted,omitempty"`
	// WalEpoch ties the table's write-ahead log to this manifest commit:
	// every manifest commit increments it, and a WAL file replays only when
	// its header carries the same epoch. A WAL left behind by a crash
	// between a checkpoint's manifest commit and its WAL rotation carries
	// the previous epoch, so its (already absorbed) records are discarded
	// instead of being applied twice.
	WalEpoch int64 `json:"wal_epoch,omitempty"`
	// RowIDEpoch counts the commits that moved this table's row ids: a
	// compaction that dropped deleted rows, and a checkpoint that absorbed
	// an Update (a delete plus an insert under a new row id). SaveTable
	// writes 0 for a new table and bumps the old manifest's epoch when it
	// saves over one.
	RowIDEpoch int64 `json:"rowid_epoch,omitempty"`
	// JoinEpochs records, per join-index column of this table (an int32
	// column holding row ids of a referenced table), the referenced
	// table's RowIDEpoch the column's values were valid for; an absent
	// column reads as 0. SaveTable writes none: the join indices of tables
	// saved together are valid for epoch 0. Checkpoints and compactions of
	// this table carry the map forward and never refresh it, so once the
	// referenced table's epoch moves past it the column stays stale.
	JoinEpochs map[string]int64 `json:"join_epochs,omitempty"`
	Columns    []ColumnManifest `json:"columns"`
}

// ColumnManifest describes one persisted column. The per-chunk min/max
// arrays (when present, one entry per chunk) are the column's disk zone map
// (colstore.ZoneMap), which prunes scans at chunk granularity; a float
// column holding a NaN or reaching ±Inf records none. ChunkDictCard
// records, per chunk, the dictionary cardinality of dict-coded string
// chunks (0 for other codecs).
type ColumnManifest struct {
	Name          string    `json:"name"`
	Type          string    `json:"type"`
	Chunks        int       `json:"chunks"`
	Enum          bool      `json:"enum,omitempty"`
	DictStr       []string  `json:"dict_str,omitempty"`
	DictF64       []float64 `json:"dict_f64,omitempty"`
	ChunkMinI64   []int64   `json:"chunk_min_i64,omitempty"`
	ChunkMaxI64   []int64   `json:"chunk_max_i64,omitempty"`
	ChunkMinF64   []float64 `json:"chunk_min_f64,omitempty"`
	ChunkMaxF64   []float64 `json:"chunk_max_f64,omitempty"`
	ChunkMinStr   []string  `json:"chunk_min_str,omitempty"`
	ChunkMaxStr   []string  `json:"chunk_max_str,omitempty"`
	ChunkDictCard []int     `json:"chunk_dict_card,omitempty"`
	// ChunkCRC32 records the CRC32 (IEEE) of each chunk file's full
	// contents (manifest v3). Readers verify it when the array covers every
	// chunk; a mismatch surfaces as a wrapped ErrCorrupt instead of a
	// decode panic. Like the bounds arrays, a length mismatch means "no
	// checksums" (v2 manifests, or appends that could not extend the
	// array).
	ChunkCRC32 []uint32 `json:"chunk_crc32,omitempty"`
}

func manifestPath(dir, table string) string {
	return filepath.Join(dir, table+".manifest.json")
}

func (s *Store) readManifest(name string) (*Manifest, error) {
	raw, err := os.ReadFile(manifestPath(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("columnbm: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("columnbm: bad manifest for %s: %w", name, err)
	}
	if m.Version > ManifestVersion {
		return nil, fmt.Errorf("columnbm: manifest for %s has version %d, this build reads up to %d", name, m.Version, ManifestVersion)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("columnbm: bad manifest for %s: %w", name, err)
	}
	return &m, nil
}

// ReadManifest returns the committed manifest of a persisted table (storage
// introspection and recovery: core reads the persisted deletion list from
// it at attach time).
func (s *Store) ReadManifest(name string) (*Manifest, error) { return s.readManifest(name) }

// validate checks the cross-field invariants shared by every manifest
// version, so corrupt or torn manifests are rejected before any chunk I/O.
func (m *Manifest) validate() error {
	if m.Rows < 0 || m.ChunkRows < 0 || m.Gen < 0 {
		return fmt.Errorf("negative rows/chunk_rows/gen")
	}
	if m.ChunkCounts != nil {
		sum := 0
		// A zero-count chunk is legal: saving an empty table writes one
		// empty chunk per column, and appends extend that grid.
		for _, c := range m.ChunkCounts {
			if c < 0 {
				return fmt.Errorf("chunk_counts entry %d negative", c)
			}
			sum += c
		}
		if sum != m.Rows {
			return fmt.Errorf("chunk_counts sum %d, manifest says %d rows", sum, m.Rows)
		}
		for _, cm := range m.Columns {
			if cm.Chunks != len(m.ChunkCounts) {
				return fmt.Errorf("column %s has %d chunks, chunk_counts lists %d", cm.Name, cm.Chunks, len(m.ChunkCounts))
			}
		}
	}
	for i, id := range m.Deleted {
		if int(id) < 0 || int(id) >= m.Rows {
			return fmt.Errorf("deleted row id %d out of range [0,%d)", id, m.Rows)
		}
		if i > 0 && m.Deleted[i-1] >= id {
			return fmt.Errorf("deleted list not strictly ascending at %d", id)
		}
	}
	for _, cm := range m.Columns {
		if cm.Chunks < 0 {
			return fmt.Errorf("column %s has negative chunk count", cm.Name)
		}
	}
	return nil
}

// chunkRowCounts returns the exact per-chunk row counts of the table's
// shared chunk grid: the explicit v2 counts when present, else the uniform
// grid (chunkRows per chunk, last chunk shorter) over nchunks chunks.
func (m *Manifest) chunkRowCounts(chunkRows, nchunks int) ([]int, error) {
	if m.ChunkCounts != nil {
		return m.ChunkCounts, nil
	}
	counts := make([]int, nchunks)
	rows := m.Rows
	for i := range counts {
		n := chunkRows
		if i == nchunks-1 {
			n = rows
		}
		if n < 0 || n > chunkRows || (n == 0 && nchunks > 1) {
			return nil, fmt.Errorf("%d rows do not fit %d chunks of %d", m.Rows, nchunks, chunkRows)
		}
		counts[i] = n
		rows -= n
	}
	if rows != 0 {
		return nil, fmt.Errorf("%d rows do not fit %d chunks of %d", m.Rows, nchunks, chunkRows)
	}
	return counts, nil
}

// writeManifest commits a manifest atomically: the JSON is written and
// fsynced to a temp file in the same directory, then renamed over the live
// manifest. A crash at any point leaves either the old or the new manifest,
// never a torn one — chunk files referenced by a committed manifest are
// never modified in place, so the rename is the single commit point of
// every write-back. The store's FaultHook (tests) can inject failures
// between the stages.
func (s *Store) writeManifest(m *Manifest) error {
	m.Version = ManifestVersion
	// Every manifest commit advances the WAL epoch: whatever the table's
	// WAL logged before this commit is now either absorbed (checkpoint) or
	// superseded (rewrite), so a WAL still carrying the old epoch must not
	// replay. Callers that keep a live WAL rotate it to the new epoch right
	// after the commit.
	m.WalEpoch++
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := manifestPath(s.dir, m.Table)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("columnbm: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("columnbm: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("columnbm: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("columnbm: %w", err)
	}
	if err := s.fault("manifest-temp"); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("columnbm: %w", err)
	}
	// Fsync the directory so the rename itself is durable: without it a
	// power loss can roll the commit back even though the process saw it
	// succeed. Failures are logged once and counted (syncDir), never
	// silently discarded.
	s.syncDir()
	return s.fault("manifest-commit")
}

// SaveTable persists a colstore table through the chunk store and writes
// its manifest (including per-chunk min/max for integer, float and string
// columns). Enum columns persist their codes plus the dictionary. When the
// directory already holds a manifest for the table, the new chunk files
// are written under the next generation and committed by the atomic
// manifest rename, so a crash mid-save leaves the previous version intact;
// the superseded generation's files are removed after the commit.
func (s *Store) SaveTable(t *colstore.Table) error {
	m := Manifest{Table: t.Name, Rows: t.N, ChunkRows: s.chunkValues}
	// Without a readable manifest the table starts at generation 0.
	old, _ := s.readManifest(t.Name)
	if old != nil {
		// Carry the WAL epoch forward; writeManifest bumps it, so any WAL
		// written against the superseded manifest is invalidated. The saved
		// rows replace the old ones under the same row ids, so the row-id
		// epoch moves on too: a join index another table recorded against
		// the old rows must not match the new ones.
		m.Gen, m.WalEpoch, m.RowIDEpoch = old.Gen+1, old.WalEpoch, old.RowIDEpoch+1
	}
	if err := s.writeColumns(&m, t); err != nil {
		return fmt.Errorf("columnbm: save %w", err)
	}
	if err := s.writeManifest(&m); err != nil {
		return err
	}
	if old != nil {
		s.removeGeneration(old)
	}
	return nil
}

// withChunkValues returns a view of the store writing chunkRows-value
// chunks (sharing the directory, pool, counters and fault hook).
func (s *Store) withChunkValues(chunkRows int) *Store {
	if chunkRows == s.chunkValues {
		return s
	}
	return &Store{dir: s.dir, chunkValues: chunkRows, pool: s.pool, dcache: s.dcache, counters: s.counters, FaultHook: s.FaultHook}
}

// writeColumns writes every column of t as chunk files of generation m.Gen
// (enum columns as codes, with their dictionaries) and records them in m.
func (s *Store) writeColumns(m *Manifest, t *colstore.Table) error {
	for _, col := range t.Cols {
		cm := ColumnManifest{Name: col.Name, Type: col.Typ.String(), Enum: col.IsEnum()}
		if col.IsEnum() {
			if col.Dict.Typ == vector.Float64 {
				cm.DictF64 = col.Dict.Floats()
			} else {
				cm.DictStr = col.Dict.Strings()
			}
		}
		key := t.Name + "." + col.Name
		data, err := col.Pin()
		if err == nil {
			err = s.writePart(key, m.Gen, &cm, data)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		m.Columns = append(m.Columns, cm)
	}
	return nil
}

// PendingRewrite is a prepared but uncommitted table rewrite: the
// next-generation chunk files are fully written and fsynced, but the
// committed manifest still references the old generation, so attaches (and
// crashes) see the pre-rewrite table. Commit publishes the new generation
// with the atomic manifest rename. The background compactor uses this split
// to do all chunk I/O off the write path and hold the database's cutover
// lock only across Commit.
type PendingRewrite struct {
	s   *Store
	m   *Manifest
	old *Manifest
}

// PrepareRewrite writes a fresh generation of chunk files for the table —
// the disk Reorganize and compaction path: the existing chunk grid and
// row-id epochs are preserved, enum dictionaries re-persisted — WITHOUT
// committing the manifest. A crash or an abandoned rewrite leaves
// unreferenced orphan files that the next rewrite of the same generation
// simply overwrites. The table must already have a committed manifest.
func (s *Store) PrepareRewrite(t *colstore.Table) (*PendingRewrite, error) {
	old, err := s.readManifest(t.Name)
	if err != nil {
		return nil, err
	}
	chunkRows := old.ChunkRows
	if chunkRows <= 0 {
		chunkRows = s.chunkValues
	}
	m := Manifest{Table: t.Name, Rows: t.N, ChunkRows: chunkRows, Gen: old.Gen + 1, WalEpoch: old.WalEpoch,
		RowIDEpoch: old.RowIDEpoch, JoinEpochs: old.JoinEpochs}
	if err := s.withChunkValues(chunkRows).writeColumns(&m, t); err != nil {
		return nil, fmt.Errorf("columnbm: rewrite %w", err)
	}
	if err := s.fault("compact-prepare"); err != nil {
		return nil, err
	}
	return &PendingRewrite{s: s, m: &m, old: old}, nil
}

// NextWalEpoch returns the WAL epoch the committed manifest will carry
// (writeManifest advances the epoch by one at commit), so a caller can
// prepare the post-cutover log before committing.
func (p *PendingRewrite) NextWalEpoch() int64 { return p.m.WalEpoch + 1 }

// Commit atomically publishes the prepared generation (temp manifest +
// fsync + rename; the single commit point) and returns the superseded
// manifest. movedIDs bumps the table's RowIDEpoch in the same commit: the
// rewrite moved row ids. The caller removes the old generation's files —
// immediately, or deferred until scans pinned to it drain — via
// RemoveGeneration. The FaultHook stage "compact-cutover" fires just before
// the commit.
func (p *PendingRewrite) Commit(movedIDs bool) (*Manifest, error) {
	if err := p.s.fault("compact-cutover"); err != nil {
		return nil, err
	}
	if movedIDs {
		p.m.RowIDEpoch++
	}
	if err := p.s.writeManifest(p.m); err != nil {
		return nil, err
	}
	return p.old, nil
}

// RemoveGeneration deletes the chunk files of a superseded manifest
// generation (best-effort; see removeGeneration). Callers defer it until no
// scan remains pinned to the old generation.
func (s *Store) RemoveGeneration(old *Manifest) { s.removeGeneration(old) }

// removeGeneration deletes the chunk files of a superseded manifest
// generation (best-effort: the files are unreferenced once the new manifest
// is committed, so failures only leave orphans behind).
func (s *Store) removeGeneration(old *Manifest) {
	for _, cm := range old.Columns {
		key := old.Table + "." + cm.Name
		for i := 0; i < cm.Chunks; i++ {
			path := s.chunkPath(key, old.Gen, i)
			s.pool.Invalidate(path)
			os.Remove(path)
		}
	}
}
