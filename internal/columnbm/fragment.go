package columnbm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"x100/internal/colstore"
	"x100/internal/vector"
)

// chunkFragment is a colstore.Fragment backed by one compressed ColumnBM
// chunk. Materialize reads the (cached) compressed bytes through the buffer
// pool and decodes them into a caller-owned typed slice, so concurrent scan
// workers share only the immutable compressed chunk while each owns its
// decoded copy — at most one decoded chunk per column per worker.
type chunkFragment struct {
	store *Store
	key   string
	gen   int
	idx   int
	rows  int
	phys  vector.Type

	// remap maps this chunk's local dictionary codes to the table-level
	// merged dictionary built at attach time ([]uint8 or []uint16, the
	// merged code width). Non-nil only on dict-coded string chunks of a
	// column whose every chunk is dict-coded; it makes the fragment a
	// colstore.CodeMaterializer, so scans can read globally comparable
	// codes without ever materializing the strings.
	remap any
	// remapID identifies the merged-dictionary generation the remap maps
	// into (a process-global sequence number). It keys the decoded-code
	// cache: after a checkpoint refreshes the merged dictionary, new
	// remaps carry new ids, so stale cached code slices can never be
	// served for the new code domain.
	remapID uint64
	// dictCard is the chunk's dictionary cardinality from the manifest:
	// > 0 dict-coded, 0 known not dict-coded, -1 unknown (manifest predates
	// the chunk_dict_card field). It lets MaterializeDict reject raw/prefix
	// chunks without any I/O (colstore.DictHint).
	dictCard int

	// crc is the whole-file CRC32 the manifest records for this chunk;
	// hasCRC is false for manifests that predate the chunk_crc32 field (or
	// whose checksum array no longer covers every chunk), in which case the
	// read is unverified — exactly the v2 behaviour.
	crc    uint32
	hasCRC bool
}

func (f *chunkFragment) Rows() int { return f.rows }

// CloneFragment implements colstore.CloneableFragment: a copy-on-write
// column append clones each chunk fragment so a later merged-dictionary
// refresh (which installs new remap tables in place) can never disturb a
// scan pinned to the pre-append column object.
func (f *chunkFragment) CloneFragment() colstore.Fragment {
	cp := *f
	return &cp
}

// u8Scratch pools the narrow intermediate buffer of the bool decode path:
// bool chunks are stored as 0/1 integer chunks, decode narrow-native into
// uint8 (no int64 scratch round-trip), and convert to bool with one pass.
var u8Scratch = sync.Pool{New: func() any { return new([]uint8) }}

func getU8Scratch(n int) *[]uint8 {
	p := u8Scratch.Get().(*[]uint8)
	if cap(*p) < n {
		*p = make([]uint8, n)
	}
	*p = (*p)[:n]
	return p
}

func sliceBuf[T any](buf any, n int) []T {
	if s, ok := buf.([]T); ok && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// remapIDSeq issues merged-dictionary generation ids (see
// chunkFragment.remapID). The zero id is reserved for "no remap".
var remapIDSeq atomic.Uint64

// nextRemapID returns a fresh merged-dictionary generation id.
func nextRemapID() uint64 { return remapIDSeq.Add(1) }

// cacheKey names this chunk's decoded slice in the cooperative-scan
// cache; kind distinguishes decoded values ("v") from merged-dictionary
// codes (which additionally carry the remap generation).
func (f *chunkFragment) cacheKey(kind string) string {
	return fmt.Sprintf("%s|g%d|%06d|%s", f.key, f.gen, f.idx, kind)
}

// Materialize decodes the chunk into a caller-owned slice — or, when the
// store's cooperative-scan cache is enabled, returns the shared immutable
// decoded slice (scratch=false), decoding it at most once per residency
// no matter how many concurrent scans stream the table.
func (f *chunkFragment) Materialize(buf any) (any, bool, error) {
	if c := f.store.dcache; c != nil {
		data, err := c.Get(f.cacheKey("v"), func() (any, int64, error) {
			// Decode into a fresh slice (buf may be retained by the
			// caller's reader and must never alias a cached entry).
			data, _, err := f.decode(nil)
			if err != nil {
				return nil, 0, err
			}
			return data, decodedSize(data), nil
		})
		if err != nil {
			return nil, false, err
		}
		return data, false, nil
	}
	return f.decode(buf)
}

// decode reads the chunk through the compressed-chunk pool and decodes it
// into buf (reused when large enough, freshly allocated otherwise).
func (f *chunkFragment) decode(buf any) (any, bool, error) {
	hdr, payload, err := f.store.readChunkChecked(f.key, f.gen, f.idx, f.crc, f.hasCRC)
	if err != nil {
		return nil, false, err
	}
	if hdr.count != f.rows {
		return nil, false, fmt.Errorf("%w: %s chunk %d has %d values, manifest says %d",
			ErrCorrupt, f.key, f.idx, hdr.count, f.rows)
	}
	switch f.phys {
	case vector.Int64:
		return decodeNarrow[int64](f, buf, hdr, payload)
	case vector.Int32:
		return decodeNarrow[int32](f, buf, hdr, payload)
	case vector.UInt8:
		return decodeNarrow[uint8](f, buf, hdr, payload)
	case vector.UInt16:
		return decodeNarrow[uint16](f, buf, hdr, payload)
	case vector.Bool:
		tmp := getU8Scratch(f.rows)
		defer u8Scratch.Put(tmp)
		if err := decodeIntInto(*tmp, hdr, payload); err != nil {
			return nil, false, fmt.Errorf("%s chunk %d: %w", f.key, f.idx, err)
		}
		dst := sliceBuf[bool](buf, f.rows)
		for i, v := range *tmp {
			dst[i] = v != 0
		}
		return dst, true, nil
	case vector.Float64:
		if hdr.codec != CodecRaw || len(payload) != 8*hdr.count {
			return nil, false, fmt.Errorf("%w: %s chunk %d", ErrCorrupt, f.key, f.idx)
		}
		dst := sliceBuf[float64](buf, f.rows)
		for i := range dst {
			dst[i] = floatFromBits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return dst, true, nil
	case vector.String:
		dst := sliceBuf[string](buf, f.rows)
		if err := decodeStringInto(dst, hdr, payload); err != nil {
			return nil, false, fmt.Errorf("%s chunk %d: %w", f.key, f.idx, err)
		}
		return dst, true, nil
	default:
		return nil, false, fmt.Errorf("columnbm: cannot materialize %v fragment %s", f.phys, f.key)
	}
}

// MaterializeCodes implements colstore.CodeMaterializer: the chunk's rows
// as table-level merged-dictionary codes. It decodes only the narrow code
// section of the dict chunk and maps it through the attach-time remap
// table — no string is ever materialized.
func (f *chunkFragment) MaterializeCodes(buf any) (any, bool, error) {
	if f.remap == nil {
		return nil, false, fmt.Errorf("columnbm: %s chunk %d has no merged dictionary", f.key, f.idx)
	}
	if c := f.store.dcache; c != nil {
		key := f.cacheKey(fmt.Sprintf("c%d", f.remapID))
		data, err := c.Get(key, func() (any, int64, error) {
			data, _, err := f.decodeCodes(nil)
			if err != nil {
				return nil, 0, err
			}
			return data, decodedSize(data), nil
		})
		if err != nil {
			return nil, false, err
		}
		return data, false, nil
	}
	return f.decodeCodes(buf)
}

// decodeCodes decodes the chunk's merged-dictionary codes into buf.
func (f *chunkFragment) decodeCodes(buf any) (any, bool, error) {
	hdr, payload, err := f.store.readChunkChecked(f.key, f.gen, f.idx, f.crc, f.hasCRC)
	if err != nil {
		return nil, false, err
	}
	if hdr.count != f.rows || hdr.codec != CodecDict {
		return nil, false, fmt.Errorf("%w: %s chunk %d is not the dict chunk the manifest promised", ErrCorrupt, f.key, f.idx)
	}
	switch remap := f.remap.(type) {
	case []uint8:
		dst := sliceBuf[uint8](buf, f.rows)
		if err := decodeDictCodesInto(dst, remap, hdr, payload); err != nil {
			return nil, false, fmt.Errorf("%s chunk %d: %w", f.key, f.idx, err)
		}
		return dst, true, nil
	case []uint16:
		dst := sliceBuf[uint16](buf, f.rows)
		if err := decodeDictCodesInto(dst, remap, hdr, payload); err != nil {
			return nil, false, fmt.Errorf("%s chunk %d: %w", f.key, f.idx, err)
		}
		return dst, true, nil
	default:
		return nil, false, fmt.Errorf("columnbm: %s chunk %d: bad remap table %T", f.key, f.idx, f.remap)
	}
}

// MayServeDict implements colstore.DictHint from the manifest's per-chunk
// dictionary cardinality — no I/O.
func (f *chunkFragment) MayServeDict() bool {
	return f.phys == vector.String && f.dictCard != 0
}

// MaterializeDict implements colstore.DictFragment: the chunk's own
// dictionary plus chunk-local codes when the chunk is dict-coded, ok=false
// (decode-first fallback) for raw and prefix chunks — decided without I/O
// when the manifest records the chunk's dictionary cardinality.
func (f *chunkFragment) MaterializeDict(codeBuf any) ([]string, any, bool, error) {
	if !f.MayServeDict() {
		return nil, nil, false, nil
	}
	hdr, payload, err := f.store.readChunkChecked(f.key, f.gen, f.idx, f.crc, f.hasCRC)
	if err != nil {
		return nil, nil, false, err
	}
	if hdr.count != f.rows {
		return nil, nil, false, fmt.Errorf("%w: %s chunk %d has %d values, manifest says %d",
			ErrCorrupt, f.key, f.idx, hdr.count, f.rows)
	}
	if hdr.codec != CodecDict {
		return nil, nil, false, nil
	}
	dict, codes, err := decodeLocalDictCodes(hdr, payload, codeBuf)
	if err != nil {
		return nil, nil, false, fmt.Errorf("%s chunk %d: %w", f.key, f.idx, err)
	}
	return dict, codes, true, nil
}

// decodeNarrow decodes an integer chunk straight into a typed destination
// buffer of the column's physical type — no int64 round-trip on the scan
// hot path.
func decodeNarrow[T intNative](f *chunkFragment, buf any, hdr chunkHeader, payload []byte) (any, bool, error) {
	dst := sliceBuf[T](buf, f.rows)
	if err := decodeIntInto(dst, hdr, payload); err != nil {
		return nil, false, fmt.Errorf("%s chunk %d: %w", f.key, f.idx, err)
	}
	return dst, true, nil
}

// enumPhys returns the physical code type for an attached enum dictionary.
func enumPhys(table, column string, dict *colstore.Dict) (vector.Type, error) {
	switch {
	case dict.Len() <= 256:
		return vector.UInt8, nil
	case dict.Len() <= 65536:
		return vector.UInt16, nil
	default:
		return vector.Unknown, fmt.Errorf("columnbm: enum column %s.%s has %d dictionary values", table, column, dict.Len())
	}
}

// attachDict rebuilds an enum dictionary from its manifest entry.
func attachDict(cm *ColumnManifest) *colstore.Dict {
	if cm.DictF64 != nil {
		dict := colstore.NewF64Dict()
		for _, v := range cm.DictF64 {
			dict.CodeF64(v)
		}
		return dict
	}
	dict := colstore.NewDict()
	for _, v := range cm.DictStr {
		dict.Code(v)
	}
	return dict
}

// columnFragments builds the lazily decoded fragments [from, cm.Chunks) of
// a persisted column. counts is the table's shared per-chunk row grid. It
// is used by AttachTable (from 0) and by the checkpoint write-back (from
// the pre-append chunk count, to re-attach just the new chunks).
func (s *Store) columnFragments(m *Manifest, cm *ColumnManifest, phys vector.Type, counts []int, from int) []colstore.Fragment {
	key := m.Table + "." + cm.Name
	frags := make([]colstore.Fragment, 0, cm.Chunks-from)
	for i := from; i < cm.Chunks; i++ {
		cf := &chunkFragment{store: s, key: key, gen: m.Gen, idx: i, rows: counts[i], phys: phys, dictCard: -1}
		if len(cm.ChunkDictCard) == cm.Chunks {
			cf.dictCard = cm.ChunkDictCard[i]
		}
		if len(cm.ChunkCRC32) == cm.Chunks {
			cf.crc, cf.hasCRC = cm.ChunkCRC32[i], true
		}
		frags = append(frags, cf)
	}
	return frags
}

// chunkZoneMap returns the disk zone map of a persisted column of logical
// type typ: the per-chunk min/max its manifest records, one range per
// chunk of the grid counts. It is nil for enum columns (code order is not
// value order) and when the column's bounds arrays do not cover every
// chunk.
func chunkZoneMap(cm *ColumnManifest, typ vector.Type, counts []int) *colstore.ZoneMap {
	covers := func(mins, maxs int) bool { return !cm.Enum && mins == cm.Chunks && maxs == cm.Chunks }
	switch typ.Physical() {
	case vector.Int32, vector.Int64:
		if covers(len(cm.ChunkMinI64), len(cm.ChunkMaxI64)) {
			return colstore.NewZoneMap(counts, cm.ChunkMinI64, cm.ChunkMaxI64)
		}
	case vector.Float64:
		if covers(len(cm.ChunkMinF64), len(cm.ChunkMaxF64)) {
			return colstore.NewZoneMap(counts, cm.ChunkMinF64, cm.ChunkMaxF64)
		}
	case vector.String:
		if covers(len(cm.ChunkMinStr), len(cm.ChunkMaxStr)) {
			return colstore.NewZoneMap(counts, cm.ChunkMinStr, cm.ChunkMaxStr)
		}
	}
	return nil
}

// readChunkDict reads just the fixed header and dictionary section of a
// dict-coded chunk file — a streamed prefix read that never loads the code
// section and never touches the buffer pool, keeping attach cost
// proportional to the dictionary bytes, not the column bytes. It returns
// (nil, nil) when the chunk is stored with a different codec.
func (s *Store) readChunkDict(column string, gen, idx int) ([]string, error) {
	f, err := os.Open(s.chunkPath(column, gen, idx))
	if err != nil {
		return nil, fmt.Errorf("columnbm: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 16*1024)
	var hdr [21]byte // chunk header (17) + dict cardinality (4)
	if _, err := io.ReadFull(br, hdr[:17]); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, s.chunkPath(column, gen, idx))
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != chunkMagic {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, s.chunkPath(column, gen, idx))
	}
	if Codec(hdr[4]) != CodecDict {
		return nil, nil
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[13:]))
	if _, err := io.ReadFull(br, hdr[17:]); err != nil {
		return nil, fmt.Errorf("%w: truncated dict chunk", ErrCorrupt)
	}
	card := int(binary.LittleEndian.Uint32(hdr[17:]))
	if card <= 0 || card > maxDictCard {
		return nil, fmt.Errorf("%w: dict cardinality %d", ErrCorrupt, card)
	}
	remaining := payloadLen - 4
	dict := make([]string, card)
	var lb [4]byte
	for i := range dict {
		if _, err := io.ReadFull(br, lb[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated dict", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint32(lb[:]))
		remaining -= 4 + n
		if n < 0 || remaining < 0 {
			return nil, fmt.Errorf("%w: truncated dict", ErrCorrupt)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated dict", ErrCorrupt)
		}
		dict[i] = string(buf)
	}
	return dict, nil
}

// attachMergedDict builds the table-level merged dictionary of a plain
// (non-enum) string column when every chunk is dict-coded (per the
// manifest's ChunkDictCard) and the union of the chunk dictionaries fits
// the two-byte code space. It reads only the header + dictionary prefix of
// each chunk (readChunkDict — no code sections, no buffer-pool traffic),
// sorts the merged values so codes are order-isomorphic to the strings,
// and installs a chunk-local -> merged remap table on every fragment.
// Returns the merged dictionary and its code type, or nil when the column
// does not qualify — the decode-first path then applies.
func (s *Store) attachMergedDict(m *Manifest, cm *ColumnManifest, counts []int, frags []colstore.Fragment) (*colstore.Dict, vector.Type) {
	if cm.Enum || cm.Chunks == 0 || len(cm.ChunkDictCard) != cm.Chunks {
		return nil, vector.Unknown
	}
	total := 0
	for i, card := range cm.ChunkDictCard {
		if card <= 0 || counts[i] == 0 {
			return nil, vector.Unknown
		}
		total += card
	}
	key := m.Table + "." + cm.Name
	chunkDicts := make([][]string, cm.Chunks)
	set := make(map[string]struct{}, min(total, maxDictCard))
	for i := 0; i < cm.Chunks; i++ {
		dict, err := s.readChunkDict(key, m.Gen, i)
		if err != nil || dict == nil {
			return nil, vector.Unknown
		}
		chunkDicts[i] = dict
		for _, v := range dict {
			set[v] = struct{}{}
		}
		if len(set) > maxDictCard {
			return nil, vector.Unknown
		}
	}
	values := make([]string, 0, len(set))
	for v := range set {
		values = append(values, v)
	}
	slices.Sort(values)
	merged := colstore.NewSortedDict(values)
	phys := vector.UInt8
	if len(values) > 256 {
		phys = vector.UInt16
	}
	id := nextRemapID()
	for i, frag := range frags {
		cf, ok := frag.(*chunkFragment)
		if !ok {
			return nil, vector.Unknown
		}
		installRemap(cf, chunkDicts[i], merged, phys, id)
	}
	return merged, phys
}

// installRemap builds and installs chunk-local -> merged remap table on a
// fragment, stamping the merged-dictionary generation id.
func installRemap(cf *chunkFragment, local []string, merged *colstore.Dict, phys vector.Type, id uint64) {
	if phys == vector.UInt8 {
		remap := make([]uint8, len(local))
		for c, v := range local {
			g, _ := merged.Lookup(v)
			remap[c] = uint8(g)
		}
		cf.remap = remap
	} else {
		remap := make([]uint16, len(local))
		for c, v := range local {
			g, _ := merged.Lookup(v)
			remap[c] = uint16(g)
		}
		cf.remap = remap
	}
	cf.remapID = id
}

// SavedMergedDict snapshots one column's merged-dictionary view before a
// checkpoint append invalidates it (colstore drops the view whenever a
// fragment is appended). SnapshotMergedDicts + RefreshMergedDicts bracket
// the append so code-domain execution survives updates.
type SavedMergedDict struct {
	// Dict is the pre-append sorted merged dictionary.
	Dict *colstore.Dict
	// Phys is the pre-append code width (UInt8/UInt16).
	Phys vector.Type
}

// SnapshotMergedDicts captures the merged dictionaries of a table's plain
// (non-enum) string columns, keyed by column name.
func SnapshotMergedDicts(t *colstore.Table) map[string]SavedMergedDict {
	out := make(map[string]SavedMergedDict)
	for _, c := range t.Cols {
		if c.IsEnum() {
			continue
		}
		if d, phys, ok := c.CodeDomain(); ok {
			out[c.Name] = SavedMergedDict{Dict: d, Phys: phys}
		}
	}
	return out
}

// RefreshMergedDicts restores the merged-dictionary views a checkpoint
// append dropped, incrementally: only the dictionaries of the *new* chunks
// are read (cheap header-prefix reads). When every new value is already in
// the saved dictionary — the common case, appends repeat the existing
// domain — the saved dictionary is reinstalled unchanged and only the new
// fragments get remap tables (existing fragments keep their remaps and
// their cached code slices stay valid). Otherwise the merged dictionary is
// rebuilt over all chunks, re-mapping every fragment under a fresh
// dictionary generation. A column whose new chunks are not dict-coded
// legitimately loses its code domain (decode-first applies) — that is not
// an error.
func (s *Store) RefreshMergedDicts(t *colstore.Table, saved map[string]SavedMergedDict) error {
	if len(saved) == 0 {
		return nil
	}
	m, err := s.readManifest(t.Name)
	if err != nil {
		return err
	}
	chunkRows := m.ChunkRows
	if chunkRows <= 0 {
		chunkRows = s.chunkValues
	}
	for i := range m.Columns {
		cm := &m.Columns[i]
		sv, ok := saved[cm.Name]
		if !ok {
			continue
		}
		col := t.Col(cm.Name)
		if col == nil || col.NumFrags() != cm.Chunks {
			continue
		}
		counts, err := m.chunkRowCounts(chunkRows, cm.Chunks)
		if err != nil {
			return fmt.Errorf("columnbm: refresh %s.%s: %w", t.Name, cm.Name, err)
		}
		s.refreshMergedDict(m, cm, counts, col, sv)
	}
	return nil
}

// refreshMergedDict restores one column's merged dictionary (see
// RefreshMergedDicts). It leaves the view dropped when the column no
// longer qualifies.
func (s *Store) refreshMergedDict(m *Manifest, cm *ColumnManifest, counts []int, col *colstore.Column, sv SavedMergedDict) {
	if len(cm.ChunkDictCard) != cm.Chunks {
		return
	}
	frags := make([]colstore.Fragment, cm.Chunks)
	var fresh []*chunkFragment // appended fragments, no remap yet
	var freshDicts [][]string
	key := m.Table + "." + cm.Name
	for i := 0; i < cm.Chunks; i++ {
		frags[i] = col.Frag(i)
		cf, ok := frags[i].(*chunkFragment)
		if !ok {
			return
		}
		if cf.remap != nil {
			continue
		}
		if cm.ChunkDictCard[i] <= 0 || counts[i] == 0 {
			return // new chunk not dict-coded: code domain is gone
		}
		dict, err := s.readChunkDict(key, m.Gen, i)
		if err != nil || dict == nil {
			return
		}
		fresh = append(fresh, cf)
		freshDicts = append(freshDicts, dict)
	}
	covered := true
	for _, dict := range freshDicts {
		for _, v := range dict {
			if _, ok := sv.Dict.Lookup(v); !ok {
				covered = false
				break
			}
		}
		if !covered {
			break
		}
	}
	if covered {
		// Incremental path: the appended chunks introduce no new values, so
		// the saved dictionary (and every existing remap, and every cached
		// code slice) stays valid — only the new fragments need remaps.
		id := nextRemapID()
		for i, cf := range fresh {
			installRemap(cf, freshDicts[i], sv.Dict, sv.Phys, id)
		}
		col.SetMergedDict(sv.Dict, sv.Phys)
		return
	}
	// New values appeared: rebuild the merged dictionary over all chunks.
	if merged, phys := s.attachMergedDict(m, cm, counts, frags); merged != nil {
		col.SetMergedDict(merged, phys)
	}
}

// AttachTable builds a fragment-backed colstore table over the chunks
// written by SaveTable, without materializing any column: every chunk
// becomes a lazily decoded fragment, and the per-chunk min/max bounds of
// the manifest become the column's zone map, which prunes scans at chunk
// granularity. Enum dictionaries are
// rebuilt from the manifest; fully dict-coded plain string columns
// additionally get a table-level merged dictionary (attachMergedDict), so
// scans, predicates, and keys over them can run in the code domain. The
// persisted deletion list (if any) is recovered separately via
// ReadManifest — the storage layer has no notion of delta stores.
func (s *Store) AttachTable(name string) (*colstore.Table, error) {
	m, err := s.readManifest(name)
	if err != nil {
		return nil, err
	}
	chunkRows := m.ChunkRows
	if chunkRows <= 0 {
		// Manifests from before the chunk_rows field: the writer used its
		// store's configured chunk size.
		chunkRows = s.chunkValues
	}
	t := colstore.NewTable(m.Table)
	t.ChunkRows = chunkRows
	for i := range m.Columns {
		cm := &m.Columns[i]
		typ, err := vector.ParseType(cm.Type)
		if err != nil {
			return nil, err
		}
		var dict *colstore.Dict
		phys := typ.Physical()
		if cm.Enum {
			dict = attachDict(cm)
			phys, err = enumPhys(name, cm.Name, dict)
			if err != nil {
				return nil, err
			}
		}
		counts, err := m.chunkRowCounts(chunkRows, cm.Chunks)
		if err != nil {
			return nil, fmt.Errorf("columnbm: column %s.%s: %w", name, cm.Name, err)
		}
		frags := s.columnFragments(m, cm, phys, counts, 0)
		col := colstore.NewFragColumn(cm.Name, typ, dict, phys, frags)
		col.SetZoneMap(chunkZoneMap(cm, typ, counts))
		if dict == nil && phys == vector.String {
			if merged, codeTyp := s.attachMergedDict(m, cm, counts, frags); merged != nil {
				col.SetMergedDict(merged, codeTyp)
			}
		}
		if err := t.AttachColumn(col); err != nil {
			return nil, err
		}
	}
	if t.N != m.Rows {
		return nil, fmt.Errorf("columnbm: table %s attached %d rows, manifest says %d", name, t.N, m.Rows)
	}
	return t, nil
}

// ColumnStorage summarizes how one attached column is stored on disk.
type ColumnStorage struct {
	Name            string
	Type            string
	Enum            bool
	Chunks          int
	Codecs          map[string]int // codec name -> chunk count
	RawBytes        int64
	CompressedBytes int64
	// DictCard is the largest per-chunk dictionary cardinality of the
	// column's dict-coded chunks (0 when no chunk is dict-coded).
	DictCard int
}

// TableStorage reads per-column chunk headers of a persisted table and
// reports codec usage, compression ratios, and dictionary cardinality.
func (s *Store) TableStorage(name string) ([]ColumnStorage, error) {
	m, err := s.readManifest(name)
	if err != nil {
		return nil, err
	}
	out := make([]ColumnStorage, 0, len(m.Columns))
	for _, cm := range m.Columns {
		cs := ColumnStorage{Name: cm.Name, Type: cm.Type, Enum: cm.Enum, Chunks: cm.Chunks, Codecs: map[string]int{}}
		key := m.Table + "." + cm.Name
		for i := 0; i < cm.Chunks; i++ {
			ci, err := s.chunkInfoGen(key, m.Gen, i)
			if err != nil {
				return nil, err
			}
			cs.Codecs[ci.Codec.String()]++
			cs.RawBytes += int64(ci.RawSize)
			cs.CompressedBytes += int64(ci.PayloadSize)
		}
		for _, card := range cm.ChunkDictCard {
			cs.DictCard = max(cs.DictCard, card)
		}
		out = append(out, cs)
	}
	return out, nil
}
