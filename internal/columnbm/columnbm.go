// Package columnbm is the ColumnBM-style storage substrate of the paper's
// Figure 5: a buffer-managed, chunked column store geared towards efficient
// sequential access.
//
// While MonetDB stores each BAT in a single continuous file, ColumnBM
// partitions column files into large (>1MB) chunks and applies lightweight
// compression so that scans are bandwidth-, not latency-, bound (Section 4
// "Disk"). Tables persisted here can be attached back as fragment-backed
// colstore tables (AttachTable): each chunk becomes one colstore.Fragment
// that decompresses on demand through the buffer pool, so the X100 engine
// scans straight off disk chunks with bounded memory — one decoded chunk
// per column per scan worker.
//
// On-disk format, per chunk:
//
//	magic(4) | codec(1) | count(4) | rawSize(4) | payloadSize(4) | payload
//
// Codecs: raw, RLE (run-length on repeated values), FoR (frame-of-reference:
// per-chunk base + narrow deltas), delta (FoR over successive differences,
// for sorted/clustered integer columns like l_orderkey), dict (per-chunk
// string dictionary with narrow integer codes, for low-cardinality string
// columns) and prefix (front coding: shared prefix with the previous value
// elided, for near-sorted or shared-prefix strings). The writer picks the
// smallest encoding per chunk. See docs/STORAGE_FORMAT.md for the full
// byte-level specification.
package columnbm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DefaultChunkValues is the number of values per chunk; at 8 bytes/value
// this is a little over 1MB, matching the paper's ">1MB chunks".
const DefaultChunkValues = 1 << 17

const chunkMagic = 0xB41C0DE

// Codec identifies a chunk compression scheme.
type Codec uint8

// Supported codecs. Integer chunks use raw/RLE/FoR/delta; string chunks
// use raw/dict/prefix.
const (
	CodecRaw Codec = iota
	CodecRLE
	CodecFoR
	CodecDelta
	CodecDict
	CodecPrefix
)

// codecNames lists every codec name indexed by its Codec value. It is the
// single registration point for codec enumeration: Codec.String and
// FormatCodecs both derive from it, so adding a codec constant plus one
// entry here keeps every report complete.
var codecNames = [...]string{
	CodecRaw:    "raw",
	CodecRLE:    "rle",
	CodecFoR:    "for",
	CodecDelta:  "delta",
	CodecDict:   "dict",
	CodecPrefix: "prefix",
}

func (c Codec) String() string {
	if int(c) < len(codecNames) {
		return codecNames[c]
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// FormatCodecs renders a codec-name -> chunk-count map as "rle:7,for:8",
// listing codecs in their declaration order ("memory" — used by storage
// reports for resident fragments — first, unknown names last) so output is
// stable.
func FormatCodecs(codecs map[string]int) string {
	known := append([]string{"memory"}, codecNames[:]...)
	out := ""
	emit := func(k string) {
		if n := codecs[k]; n > 0 {
			if out != "" {
				out += ","
			}
			out += fmt.Sprintf("%s:%d", k, n)
		}
	}
	for _, k := range known {
		emit(k)
	}
	rest := make([]string, 0, len(codecs))
	for k := range codecs {
		if !slices.Contains(known, k) {
			rest = append(rest, k)
		}
	}
	slices.Sort(rest)
	for _, k := range rest {
		emit(k)
	}
	return out
}

// ErrCorrupt is returned when a chunk fails validation.
var ErrCorrupt = errors.New("columnbm: corrupt chunk")

// ErrTransient classifies a read failure as retryable (wrapped by injected
// faults and matched, alongside EINTR/EAGAIN, by the read path's bounded
// exponential-backoff retry loop). Errors that still carry it after escaping
// the store exhausted their retries.
var ErrTransient = errors.New("columnbm: transient i/o error")

// Store manages chunked column files under a directory.
type Store struct {
	dir         string
	chunkValues int
	pool        *Pool
	dcache      *DecodedCache
	counters    *storeCounters

	// FaultHook, when non-nil, is called at the stages of a write-back
	// ("chunk" after each appended chunk file, "manifest-temp" after the
	// temp manifest is written, "manifest-commit" after the rename), of
	// the write-ahead log ("wal-append" after a record write, "wal-sync"
	// after an fsync, "wal-rotate" after the temp WAL of a rotation is
	// written, "wal-truncate" after the rotation rename, "wal-replay"
	// before replayed records are applied), and of the read path
	// ("read-chunk" before each chunk-file read attempt — errors wrapping
	// ErrTransient exercise the retry loop); a non-nil return aborts the
	// operation with that error. It exists for crash-safety and
	// fault-injection tests, which kill a checkpoint or a logged write
	// mid-stream and assert that re-attaching sees exactly the last
	// committed state.
	FaultHook func(stage string) error
}

// storeCounters aggregates the read-path and durability health counters of
// one store directory. They are shared across withChunkValues views and
// surfaced via Stats (the shell's \storage command and trace output).
type storeCounters struct {
	checksumFailures atomic.Int64
	dirSyncErrors    atomic.Int64
	dirSyncLogOnce   sync.Once
	retriedReads     atomic.Int64
	scrubVerified    atomic.Int64
	scrubFailed      atomic.Int64
}

// StoreStats is a snapshot of a store's health counters.
type StoreStats struct {
	// ChecksumFailures counts chunk loads rejected because the file's
	// CRC32 did not match the manifest (manifest v3 checksums).
	ChecksumFailures int64
	// DirSyncErrors counts directory fsync failures after a rename commit.
	// Renames may not survive power loss on such filesystems; the error is
	// logged once per store and counted here instead of being discarded.
	DirSyncErrors int64
	// RetriedReads counts chunk-file read attempts that failed with a
	// transient error and were retried with backoff.
	RetriedReads int64
	// ScrubVerified/ScrubFailed count chunks the background CRC scrubber
	// checked against the manifest: verified clean vs failed (corrupt or
	// unreadable).
	ScrubVerified, ScrubFailed int64
	// PoolHits/PoolMisses/PoolEvictions are the compressed-chunk buffer
	// pool counters (whole chunk files, pre-decode).
	PoolHits, PoolMisses, PoolEvictions int64
	// Cache is the decoded-chunk (cooperative scan) cache snapshot; the
	// zero value with CapacityBytes == 0 means the cache is disabled.
	Cache DecodedCacheStats
}

// Stats returns a snapshot of the store's health counters.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		ChecksumFailures: s.counters.checksumFailures.Load(),
		DirSyncErrors:    s.counters.dirSyncErrors.Load(),
		RetriedReads:     s.counters.retriedReads.Load(),
		ScrubVerified:    s.counters.scrubVerified.Load(),
		ScrubFailed:      s.counters.scrubFailed.Load(),
	}
	st.PoolHits, st.PoolMisses, st.PoolEvictions = s.pool.Stats()
	if s.dcache != nil {
		st.Cache = s.dcache.Stats()
	}
	return st
}

// syncDir fsyncs the store directory so a rename commit itself is durable:
// without it a power loss can roll a committed rename back even though the
// process saw it succeed. Filesystems that reject directory fsync make this
// a soft failure: the error is logged once per store and counted (Stats),
// never silently discarded.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		s.counters.dirSyncErrors.Add(1)
		s.counters.dirSyncLogOnce.Do(func() {
			log.Printf("columnbm: directory fsync of %s failed (rename commits may not survive power loss; counted in store stats): %v", s.dir, err)
		})
	}
}

// fault runs the fault-injection hook for a write-back stage.
func (s *Store) fault(stage string) error {
	if s.FaultHook == nil {
		return nil
	}
	return s.FaultHook(stage)
}

// NewStore opens (creating if needed) a store in dir. chunkValues <= 0
// selects DefaultChunkValues; poolChunks <= 0 selects 64 buffered chunks.
func NewStore(dir string, chunkValues, poolChunks int) (*Store, error) {
	if chunkValues <= 0 {
		chunkValues = DefaultChunkValues
	}
	if poolChunks <= 0 {
		poolChunks = 64
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("columnbm: %w", err)
	}
	return &Store{
		dir:         dir,
		chunkValues: chunkValues,
		pool:        NewPool(poolChunks),
		dcache:      NewDecodedCache(DefaultDecodedCacheBytes),
		counters:    &storeCounters{},
	}, nil
}

// DefaultDecodedCacheBytes is the default decoded-chunk cache budget:
// large enough that concurrent scans of a hot table share decodes, small
// enough to never dominate the process footprint.
const DefaultDecodedCacheBytes = 64 << 20

// DecodedCache exposes the decoded-chunk cooperative-scan cache (nil when
// disabled).
func (s *Store) DecodedCache() *DecodedCache { return s.dcache }

// ConfigureDecodedCache replaces the decoded-chunk cache: capacityBytes
// <= 0 disables cooperative scan sharing (every scan decodes privately,
// the pre-cache behaviour). Call before issuing queries; the previous
// cache's contents and counters are dropped.
func (s *Store) ConfigureDecodedCache(capacityBytes int64) {
	if capacityBytes <= 0 {
		s.dcache = nil
		return
	}
	s.dcache = NewDecodedCache(capacityBytes)
}

// ChunkValues returns the number of values per chunk this store writes.
func (s *Store) ChunkValues() int { return s.chunkValues }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// chunkPath names chunk idx of a column at a chunk-file generation.
// Generation 0 keeps the original (version 1) naming so old directories
// attach unchanged; rewrites bump the generation and add a ".gN" infix, so
// a rewrite never touches files referenced by the committed manifest.
func (s *Store) chunkPath(column string, gen, idx int) string {
	if gen == 0 {
		return filepath.Join(s.dir, fmt.Sprintf("%s.%06d.chunk", column, idx))
	}
	return filepath.Join(s.dir, fmt.Sprintf("%s.g%d.%06d.chunk", column, gen, idx))
}

// writeInt64Chunks writes vals as chunks [start, start+k) of a column at a
// generation; it returns k. start > 0 is the checkpoint append path. When
// crcs is non-nil the CRC32 of each written chunk file is appended to it
// (for the manifest's chunk_crc32 field).
func (s *Store) writeInt64Chunks(column string, gen, start int, vals []int64, crcs *[]uint32) (int, error) {
	nchunks := 0
	for lo := 0; lo < len(vals) || (lo == 0 && len(vals) == 0); lo += s.chunkValues {
		hi := min(lo+s.chunkValues, len(vals))
		payload, codec := encodeInt64(vals[lo:hi])
		crc, err := s.writeChunk(column, gen, start+nchunks, codec, hi-lo, 8*(hi-lo), payload)
		if err != nil {
			return nchunks, err
		}
		if crcs != nil {
			*crcs = append(*crcs, crc)
		}
		nchunks++
		if len(vals) == 0 {
			break
		}
	}
	return nchunks, nil
}

// writeFloat64Chunks is the float counterpart of writeInt64Chunks (raw
// codec: floats rarely compress with the integer codecs).
func (s *Store) writeFloat64Chunks(column string, gen, start int, vals []float64, crcs *[]uint32) (int, error) {
	nchunks := 0
	for lo := 0; lo < len(vals) || (lo == 0 && len(vals) == 0); lo += s.chunkValues {
		hi := min(lo+s.chunkValues, len(vals))
		payload := make([]byte, 8*(hi-lo))
		for i, v := range vals[lo:hi] {
			binary.LittleEndian.PutUint64(payload[8*i:], floatBits(v))
		}
		crc, err := s.writeChunk(column, gen, start+nchunks, CodecRaw, hi-lo, len(payload), payload)
		if err != nil {
			return nchunks, err
		}
		if crcs != nil {
			*crcs = append(*crcs, crc)
		}
		nchunks++
		if len(vals) == 0 {
			break
		}
	}
	return nchunks, nil
}

// writeStringChunks writes vals as chunks [start, start+k) of a column at a
// generation and, when cards is non-nil, appends the dictionary cardinality
// of each chunk (0 for non-dict chunks) to *cards; when crcs is non-nil,
// each chunk file's CRC32 is appended to it. rawSize always records the raw
// (length-prefixed) encoding size, so compression ratios compare against
// the uncompressed layout.
func (s *Store) writeStringChunks(column string, gen, start int, vals []string, cards *[]int, crcs *[]uint32) (int, error) {
	nchunks := 0
	for lo := 0; lo < len(vals) || (lo == 0 && len(vals) == 0); lo += s.chunkValues {
		hi := min(lo+s.chunkValues, len(vals))
		payload, codec, card, rawSize := encodeString(vals[lo:hi])
		crc, err := s.writeChunk(column, gen, start+nchunks, codec, hi-lo, rawSize, payload)
		if err != nil {
			return nchunks, err
		}
		if cards != nil {
			*cards = append(*cards, card)
		}
		if crcs != nil {
			*crcs = append(*crcs, crc)
		}
		nchunks++
		if len(vals) == 0 {
			break
		}
	}
	return nchunks, nil
}

type chunkHeader struct {
	codec   Codec
	count   int
	rawSize int
}

// writeChunk writes one chunk file (header + payload, fsynced) and returns
// the CRC32 (IEEE) of the full file contents, which the manifest records so
// readers can detect any on-disk corruption before decoding.
func (s *Store) writeChunk(column string, gen, idx int, codec Codec, count, rawSize int, payload []byte) (uint32, error) {
	buf := make([]byte, 17+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], chunkMagic)
	buf[4] = byte(codec)
	binary.LittleEndian.PutUint32(buf[5:], uint32(count))
	binary.LittleEndian.PutUint32(buf[9:], uint32(rawSize))
	binary.LittleEndian.PutUint32(buf[13:], uint32(len(payload)))
	copy(buf[17:], payload)
	crc := crc32.ChecksumIEEE(buf)
	// Chunk data is fsynced before the manifest commit can reference it:
	// the crash contract ("a committed manifest's chunks are readable")
	// must hold under power loss, not just process death.
	f, err := os.OpenFile(s.chunkPath(column, gen, idx), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return crc, s.fault("chunk")
}

// readChunkChecked reads a chunk through the buffer pool and, when check is
// set, verifies the CRC32 the manifest recorded for it. Verification happens
// inside the pool's load function, so a chunk is checksummed once per load —
// pool hits serve pre-verified bytes — and a corrupt file never enters the
// pool.
func (s *Store) readChunkChecked(column string, gen, idx int, crc uint32, check bool) (chunkHeader, []byte, error) {
	key := s.chunkPath(column, gen, idx)
	raw, err := s.pool.Get(key, func() ([]byte, error) {
		b, err := s.readChunkFile(key)
		if err != nil {
			return nil, err
		}
		if check {
			if got := crc32.ChecksumIEEE(b); got != crc {
				s.counters.checksumFailures.Add(1)
				return nil, fmt.Errorf("%w: %s checksum %08x, manifest records %08x", ErrCorrupt, key, got, crc)
			}
		}
		return b, nil
	})
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return chunkHeader{}, nil, err
		}
		return chunkHeader{}, nil, fmt.Errorf("columnbm: column %s gen %d chunk %d: %w", column, gen, idx, err)
	}
	if len(raw) < 17 || binary.LittleEndian.Uint32(raw[0:]) != chunkMagic {
		return chunkHeader{}, nil, fmt.Errorf("%w: %s", ErrCorrupt, key)
	}
	hdr := chunkHeader{
		codec:   Codec(raw[4]),
		count:   int(binary.LittleEndian.Uint32(raw[5:])),
		rawSize: int(binary.LittleEndian.Uint32(raw[9:])),
	}
	plen := int(binary.LittleEndian.Uint32(raw[13:]))
	if len(raw) != 17+plen {
		return chunkHeader{}, nil, fmt.Errorf("%w: %s payload size mismatch", ErrCorrupt, key)
	}
	return hdr, raw[17:], nil
}

// maxReadAttempts bounds the transient-read retry loop: up to three
// backoff sleeps (1/2/4 ms) after the initial attempt.
const maxReadAttempts = 4

// readChunkFile reads one chunk file, retrying transient failures
// (interrupted/temporarily-unavailable syscalls and injected faults
// wrapping ErrTransient) with bounded exponential backoff. Permanent
// failures — missing files, corruption — return immediately; a transient
// failure that survives every attempt escapes still wrapping ErrTransient
// so callers can classify it.
func (s *Store) readChunkFile(key string) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		var b []byte
		err := s.fault("read-chunk")
		if err == nil {
			b, err = os.ReadFile(key)
		}
		if err == nil {
			return b, nil
		}
		if !transientReadError(err) {
			return nil, err
		}
		if attempt == maxReadAttempts-1 {
			return nil, fmt.Errorf("read failed after %d attempts: %w", maxReadAttempts, err)
		}
		s.counters.retriedReads.Add(1)
		time.Sleep(time.Millisecond << attempt)
	}
}

// transientReadError classifies a chunk-read failure as retryable.
func transientReadError(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// --- int64 codecs ---

func encodeInt64(vals []int64) ([]byte, Codec) {
	rle := tryRLE(vals)
	forEnc := tryFoR(vals)
	deltaEnc := tryDelta(vals)
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	best, codec := raw, CodecRaw
	if rle != nil && len(rle) < len(best) {
		best, codec = rle, CodecRLE
	}
	if forEnc != nil && len(forEnc) < len(best) {
		best, codec = forEnc, CodecFoR
	}
	if deltaEnc != nil && len(deltaEnc) < len(best) {
		best, codec = deltaEnc, CodecDelta
	}
	return best, codec
}

// tryRLE encodes (value, runLength) pairs; nil when unprofitable.
func tryRLE(vals []int64) []byte {
	if len(vals) == 0 {
		return []byte{}
	}
	var out []byte
	i := 0
	for i < len(vals) {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] && j-i < 1<<31 {
			j++
		}
		var buf [12]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(vals[i]))
		binary.LittleEndian.PutUint32(buf[8:], uint32(j-i))
		out = append(out, buf[:]...)
		i = j
		if len(out) >= 8*len(vals) {
			return nil
		}
	}
	return out
}

// tryFoR encodes base + per-value deltas in the narrowest of 1/2/4 bytes;
// nil when deltas do not fit 4 bytes.
func tryFoR(vals []int64) []byte {
	if len(vals) == 0 {
		return nil
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(hi - lo)
	var width int
	switch {
	case span < 1<<8:
		width = 1
	case span < 1<<16:
		width = 2
	case span < 1<<32:
		width = 4
	default:
		return nil
	}
	out := make([]byte, 9+width*len(vals))
	binary.LittleEndian.PutUint64(out[0:], uint64(lo))
	out[8] = byte(width)
	for i, v := range vals {
		d := uint64(v - lo)
		switch width {
		case 1:
			out[9+i] = byte(d)
		case 2:
			binary.LittleEndian.PutUint16(out[9+2*i:], uint16(d))
		case 4:
			binary.LittleEndian.PutUint32(out[9+4*i:], uint32(d))
		}
	}
	return out
}

// tryDelta encodes the first value plus frame-of-reference-compressed
// successive differences: ideal for sorted or clustered integer columns
// (l_orderkey, dates) whose absolute values span too wide for plain FoR but
// whose steps are tiny. Layout: first(8) | diffBase(8) | width(1) | narrow
// (diff - diffBase) per value after the first. Arithmetic wraps, so the
// round trip is exact for any int64 input; nil when the diff span needs
// more than 4 bytes.
func tryDelta(vals []int64) []byte {
	if len(vals) < 2 {
		return nil
	}
	lo := vals[1] - vals[0]
	hi := lo
	for i := 2; i < len(vals); i++ {
		d := vals[i] - vals[i-1]
		lo, hi = min(lo, d), max(hi, d)
	}
	span := uint64(hi - lo)
	var width int
	switch {
	case span < 1<<8:
		width = 1
	case span < 1<<16:
		width = 2
	case span < 1<<32:
		width = 4
	default:
		return nil
	}
	out := make([]byte, 17+width*(len(vals)-1))
	binary.LittleEndian.PutUint64(out[0:], uint64(vals[0]))
	binary.LittleEndian.PutUint64(out[8:], uint64(lo))
	out[16] = byte(width)
	for i := 1; i < len(vals); i++ {
		d := uint64(vals[i] - vals[i-1] - lo)
		switch width {
		case 1:
			out[17+(i-1)] = byte(d)
		case 2:
			binary.LittleEndian.PutUint16(out[17+2*(i-1):], uint16(d))
		case 4:
			binary.LittleEndian.PutUint32(out[17+4*(i-1):], uint32(d))
		}
	}
	return out
}

// intNative constrains the destination element types of narrow-native chunk
// decoding: integer chunks decode straight into the column's physical
// representation (int32 keys, uint8/uint16 enum codes) with no intermediate
// int64 buffer.
type intNative interface {
	~uint8 | ~uint16 | ~int32 | ~int64
}

// decodeIntInto decodes an integer chunk into dst, which must have length
// hdr.count. Codec arithmetic runs in int64 (the stored representation) and
// each value is truncated to the destination type on store; the writer only
// produces values from the column's physical domain, so the truncation is
// lossless on well-formed chunks. It is the allocation-free core of the
// chunk-at-a-time scan path.
func decodeIntInto[T intNative](dst []T, hdr chunkHeader, payload []byte) error {
	if len(dst) != hdr.count {
		return ErrCorrupt
	}
	switch hdr.codec {
	case CodecRaw:
		if len(payload) != 8*hdr.count {
			return ErrCorrupt
		}
		for i := range dst {
			dst[i] = T(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return nil
	case CodecRLE:
		n := 0
		for off := 0; off+12 <= len(payload); off += 12 {
			v := T(binary.LittleEndian.Uint64(payload[off:]))
			k := int(binary.LittleEndian.Uint32(payload[off+8:]))
			if k < 0 || n+k > hdr.count {
				return ErrCorrupt
			}
			for j := 0; j < k; j++ {
				dst[n+j] = v
			}
			n += k
		}
		if n != hdr.count {
			return ErrCorrupt
		}
		return nil
	case CodecFoR:
		if len(payload) < 9 {
			return ErrCorrupt
		}
		base := int64(binary.LittleEndian.Uint64(payload[0:]))
		width := int(payload[8])
		if width != 1 && width != 2 && width != 4 {
			return ErrCorrupt
		}
		if len(payload) != 9+width*hdr.count {
			return ErrCorrupt
		}
		for i := range dst {
			switch width {
			case 1:
				dst[i] = T(base + int64(payload[9+i]))
			case 2:
				dst[i] = T(base + int64(binary.LittleEndian.Uint16(payload[9+2*i:])))
			case 4:
				dst[i] = T(base + int64(binary.LittleEndian.Uint32(payload[9+4*i:])))
			}
		}
		return nil
	case CodecDelta:
		if hdr.count < 2 || len(payload) < 17 {
			return ErrCorrupt
		}
		base := int64(binary.LittleEndian.Uint64(payload[8:]))
		width := int(payload[16])
		if width != 1 && width != 2 && width != 4 {
			return ErrCorrupt
		}
		if len(payload) != 17+width*(hdr.count-1) {
			return ErrCorrupt
		}
		v := int64(binary.LittleEndian.Uint64(payload[0:]))
		dst[0] = T(v)
		for i := 1; i < hdr.count; i++ {
			var d int64
			switch width {
			case 1:
				d = int64(payload[17+(i-1)])
			case 2:
				d = int64(binary.LittleEndian.Uint16(payload[17+2*(i-1):]))
			case 4:
				d = int64(binary.LittleEndian.Uint32(payload[17+4*(i-1):]))
			}
			v += base + d
			dst[i] = T(v)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown codec %d", ErrCorrupt, hdr.codec)
	}
}

// --- string codecs ---

// maxDictCard caps per-chunk dictionary cardinality: codes are at most two
// bytes wide.
const maxDictCard = 1 << 16

// encodeString compresses a chunk of strings with the best of the string
// codecs and reports the chosen codec, the dictionary cardinality for dict
// chunks (0 otherwise), and the raw-layout size the chunk header records.
// A compressed codec must beat the raw layout by at least 1/16th of its
// size: prefix coding's shorter varint lengths win a few percent on any
// input, and such marginal wins neither pay for the extra decode work nor
// keep codec reports stable across chunks.
func encodeString(vals []string) (payload []byte, codec Codec, dictCard, rawSize int) {
	raw := encodeStringRaw(vals)
	limit := len(raw) - len(raw)/16
	payload, codec = raw, CodecRaw
	if d, card := tryDictStr(vals, limit); d != nil && len(d) < min(limit, len(payload)) {
		payload, codec, dictCard = d, CodecDict, card
	}
	if p := tryPrefix(vals, limit); p != nil && len(p) < min(limit, len(payload)) {
		payload, codec, dictCard = p, CodecPrefix, 0
	}
	return payload, codec, dictCard, len(raw)
}

// encodeStringRaw is the uncompressed string layout: per value, a 4-byte
// little-endian length followed by the bytes.
func encodeStringRaw(vals []string) []byte {
	size := 0
	for _, v := range vals {
		size += 4 + len(v)
	}
	out := make([]byte, 0, size)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(v)))
		out = append(out, v...)
	}
	return out
}

// tryDictStr encodes a per-chunk dictionary of distinct values (in order of
// first occurrence) followed by narrow per-row codes:
//
//	card(4) | card × (len(4) | bytes) | width(1) | count × code(width)
//
// width is 1 byte for up to 256 distinct values, else 2. Returns nil when
// the chunk exceeds maxDictCard distinct values or the encoding would not
// beat the raw layout (limit short-circuits the dictionary build on
// high-cardinality chunks).
func tryDictStr(vals []string, limit int) ([]byte, int) {
	if len(vals) == 0 {
		return nil, 0
	}
	index := make(map[string]int)
	var order []string
	dictBytes := 4
	codes := make([]int, len(vals))
	for i, v := range vals {
		c, ok := index[v]
		if !ok {
			c = len(order)
			if c+1 > maxDictCard {
				return nil, 0
			}
			index[v] = c
			order = append(order, v)
			dictBytes += 4 + len(v)
			// A dict encoding is at least the dictionary plus one code per
			// row; stop early once that can no longer beat raw.
			if dictBytes+1+len(vals) >= limit {
				return nil, 0
			}
		}
		codes[i] = c
	}
	width := 1
	if len(order) > 256 {
		width = 2
	}
	out := make([]byte, 0, dictBytes+1+width*len(vals))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(order)))
	for _, v := range order {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(v)))
		out = append(out, v...)
	}
	out = append(out, byte(width))
	for _, c := range codes {
		if width == 1 {
			out = append(out, byte(c))
		} else {
			out = binary.LittleEndian.AppendUint16(out, uint16(c))
		}
	}
	return out, len(order)
}

// tryPrefix front-codes the chunk: each value stores the length of its
// common prefix with the previous value (uvarint), the suffix length
// (uvarint), and the suffix bytes. The first value has prefix length 0.
// Returns nil once the encoding reaches the raw size.
func tryPrefix(vals []string, limit int) []byte {
	if len(vals) == 0 {
		return nil
	}
	out := make([]byte, 0, limit)
	prev := ""
	for _, v := range vals {
		p := commonPrefixLen(prev, v)
		out = binary.AppendUvarint(out, uint64(p))
		out = binary.AppendUvarint(out, uint64(len(v)-p))
		out = append(out, v[p:]...)
		if len(out) >= limit {
			return nil
		}
		prev = v
	}
	return out
}

func commonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// stringBackingBytes caps the value bytes of one backing copy that decoded
// string values share. A value longer than this gets a copy of its own, so
// a retained value keeps at most 64 KiB (or its own bytes) alive, never a
// whole decoded chunk. A backing holds value bytes only, which keeps
// decodedSize an exact charge for raw and prefix chunks.
const stringBackingBytes = 64 << 10

// decodeStringInto decodes a string chunk (raw, dict or prefix codec) into
// dst, which must have length hdr.count. Decoded values are carved out of
// shared backing copies of at most stringBackingBytes each (a dict chunk's
// dictionary values likewise, with every row sharing its value's string);
// no value ever aliases the pooled, reusable compressed payload.
func decodeStringInto(dst []string, hdr chunkHeader, payload []byte) error {
	if len(dst) != hdr.count {
		return ErrCorrupt
	}
	switch hdr.codec {
	case CodecRaw:
		return decodeRawStrings(dst, payload)
	case CodecDict:
		dict, width, codes, err := scanDictPayload(hdr, payload, true)
		if err != nil {
			return err
		}
		for i := range dst {
			var c int
			if width == 1 {
				c = int(codes[i])
			} else {
				c = int(binary.LittleEndian.Uint16(codes[2*i:]))
			}
			if c >= len(dict) {
				return fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, c)
			}
			dst[i] = dict[c]
		}
		return nil
	case CodecPrefix:
		return decodePrefixStrings(dst, payload)
	default:
		return fmt.Errorf("%w: codec %v is not a string codec", ErrCorrupt, hdr.codec)
	}
}

// decodeRawStrings decodes len(dst) length-prefixed values, len(4) | bytes,
// which must fill b exactly. Each backing copy is sized in a first pass over
// the length words to the run of values whose bytes fit stringBackingBytes,
// then filled in a second.
func decodeRawStrings(dst []string, b []byte) error {
	off := 0
	for i := 0; i < len(dst); {
		j, end, size := i, off, 0
		for ; j < len(dst); j++ {
			if end+4 > len(b) {
				return fmt.Errorf("%w: truncated string chunk", ErrCorrupt)
			}
			n := int(binary.LittleEndian.Uint32(b[end:]))
			if n < 0 || n > len(b)-end-4 {
				return fmt.Errorf("%w: truncated string chunk", ErrCorrupt)
			}
			if j > i && size+n > stringBackingBytes {
				break
			}
			size += n
			end += 4 + n
		}
		var back strings.Builder
		back.Grow(size)
		for ; i < j; i++ {
			n := int(binary.LittleEndian.Uint32(b[off:]))
			from := back.Len()
			back.Write(b[off+4 : off+4+n])
			dst[i] = back.String()[from:]
			off += 4 + n
		}
	}
	if off != len(b) {
		return fmt.Errorf("%w: trailing bytes in string chunk", ErrCorrupt)
	}
	return nil
}

// decodePrefixStrings decodes len(dst) front-coded values (see tryPrefix),
// which must fill payload exactly, sizing each backing copy the way
// decodeRawStrings does. A value's shared prefix is copied from the previous
// value, so no backing refers to another.
func decodePrefixStrings(dst []string, payload []byte) error {
	off := 0
	prev := ""
	for i := 0; i < len(dst); {
		j, end, size, prevLen := i, off, 0, len(prev)
		for ; j < len(dst); j++ {
			p, n := binary.Uvarint(payload[end:])
			if n <= 0 || p > uint64(prevLen) {
				return fmt.Errorf("%w: bad prefix length", ErrCorrupt)
			}
			end += n
			sl, n := binary.Uvarint(payload[end:])
			if n <= 0 {
				return fmt.Errorf("%w: bad suffix length", ErrCorrupt)
			}
			end += n
			if sl > uint64(len(payload)-end) {
				return fmt.Errorf("%w: truncated prefix chunk", ErrCorrupt)
			}
			vlen := int(p) + int(sl)
			if j > i && size+vlen > stringBackingBytes {
				break
			}
			size += vlen
			end += int(sl)
			prevLen = vlen
		}
		var back strings.Builder
		back.Grow(size)
		for ; i < j; i++ {
			p, n := binary.Uvarint(payload[off:])
			off += n
			sl, n := binary.Uvarint(payload[off:])
			off += n
			from := back.Len()
			back.WriteString(prev[:p])
			back.Write(payload[off : off+int(sl)])
			off += int(sl)
			prev = back.String()[from:]
			dst[i] = prev
		}
	}
	if off != len(payload) {
		return fmt.Errorf("%w: trailing bytes in prefix chunk", ErrCorrupt)
	}
	return nil
}

// scanDictPayload validates a dict-codec chunk payload and splits it into
// its sections: the dictionary values (materialized only when wantValues is
// set — code-only readers skip the string allocations), the code width
// (1 or 2 bytes), and the raw code section.
func scanDictPayload(hdr chunkHeader, payload []byte, wantValues bool) (dict []string, width int, codes []byte, err error) {
	card, width, codes, dictBytes, err := dictSections(hdr, payload)
	if err != nil {
		return nil, 0, nil, err
	}
	if wantValues {
		dict = make([]string, card)
		if err := decodeRawStrings(dict, dictBytes[4:]); err != nil {
			return nil, 0, nil, err
		}
	}
	return dict, width, codes, nil
}

// dictSections walks a dict chunk payload without materializing any value:
// it returns the dictionary cardinality, code width, the code section, and
// the payload prefix holding card + the length-prefixed values.
func dictSections(hdr chunkHeader, payload []byte) (card, width int, codes, dictBytes []byte, err error) {
	if len(payload) < 4 {
		return 0, 0, nil, nil, fmt.Errorf("%w: dict chunk too short", ErrCorrupt)
	}
	card = int(binary.LittleEndian.Uint32(payload[0:]))
	if card <= 0 || card > maxDictCard {
		return 0, 0, nil, nil, fmt.Errorf("%w: dict cardinality %d", ErrCorrupt, card)
	}
	off := 4
	for i := 0; i < card; i++ {
		if off+4 > len(payload) {
			return 0, 0, nil, nil, fmt.Errorf("%w: truncated dict", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if n < 0 || off+n > len(payload) {
			return 0, 0, nil, nil, fmt.Errorf("%w: truncated dict", ErrCorrupt)
		}
		off += n
	}
	if off >= len(payload) {
		return 0, 0, nil, nil, fmt.Errorf("%w: dict chunk missing code width", ErrCorrupt)
	}
	width = int(payload[off])
	dictBytes = payload[:off]
	off++
	if width != 1 && width != 2 {
		return 0, 0, nil, nil, fmt.Errorf("%w: dict code width %d", ErrCorrupt, width)
	}
	if len(payload) != off+width*hdr.count {
		return 0, 0, nil, nil, fmt.Errorf("%w: dict code section size mismatch", ErrCorrupt)
	}
	return card, width, payload[off:], dictBytes, nil
}

// decodeDictCodesInto extracts the code section of a dict chunk into dst,
// mapping each chunk-local code through remap (chunk-local -> table-level
// code). It allocates nothing: the per-chunk dictionary strings are never
// materialized. dst must have length hdr.count; remap must cover the
// chunk's dictionary cardinality.
func decodeDictCodesInto[T intNative](dst []T, remap []T, hdr chunkHeader, payload []byte) error {
	if len(dst) != hdr.count {
		return ErrCorrupt
	}
	card, width, codes, _, err := dictSections(hdr, payload)
	if err != nil {
		return err
	}
	if card > len(remap) {
		return fmt.Errorf("%w: dict cardinality %d exceeds remap table %d", ErrCorrupt, card, len(remap))
	}
	if width == 1 {
		for i := range dst {
			c := int(codes[i])
			if c >= card {
				return fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, c)
			}
			dst[i] = remap[c]
		}
		return nil
	}
	for i := range dst {
		c := int(binary.LittleEndian.Uint16(codes[2*i:]))
		if c >= card {
			return fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, c)
		}
		dst[i] = remap[c]
	}
	return nil
}

// decodeLocalDictCodes extracts the code section of a dict chunk as
// chunk-local codes (uint8 or uint16 by the chunk's own width) plus the
// chunk dictionary, for per-chunk code-domain predicate evaluation.
func decodeLocalDictCodes(hdr chunkHeader, payload []byte, codeBuf any) (dict []string, out any, err error) {
	dict, width, codes, err := scanDictPayload(hdr, payload, true)
	if err != nil {
		return nil, nil, err
	}
	card := len(dict)
	if width == 1 {
		dst := sliceBuf[uint8](codeBuf, hdr.count)
		for i := range dst {
			if int(codes[i]) >= card {
				return nil, nil, fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, codes[i])
			}
			dst[i] = codes[i]
		}
		return dict, dst, nil
	}
	dst := sliceBuf[uint16](codeBuf, hdr.count)
	for i := range dst {
		c := binary.LittleEndian.Uint16(codes[2*i:])
		if int(c) >= card {
			return nil, nil, fmt.Errorf("%w: dict code %d out of range", ErrCorrupt, c)
		}
		dst[i] = c
	}
	return dict, dst, nil
}

// chunkInfo describes one stored chunk, for TableStorage's report (the
// shell's \storage command and dbgen's codec report).
type chunkInfo struct {
	Codec       Codec
	Count       int
	RawSize     int
	PayloadSize int
}

// chunkInfoGen reads the fixed-size header of chunk idx of a column at a
// generation, without loading the payload or touching the buffer pool.
func (s *Store) chunkInfoGen(column string, gen, idx int) (chunkInfo, error) {
	f, err := os.Open(s.chunkPath(column, gen, idx))
	if err != nil {
		return chunkInfo{}, fmt.Errorf("columnbm: %w", err)
	}
	defer f.Close()
	var hdr [17]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return chunkInfo{}, fmt.Errorf("%w: %s", ErrCorrupt, s.chunkPath(column, gen, idx))
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != chunkMagic {
		return chunkInfo{}, fmt.Errorf("%w: %s", ErrCorrupt, s.chunkPath(column, gen, idx))
	}
	return chunkInfo{
		Codec:       Codec(hdr[4]),
		Count:       int(binary.LittleEndian.Uint32(hdr[5:])),
		RawSize:     int(binary.LittleEndian.Uint32(hdr[9:])),
		PayloadSize: int(binary.LittleEndian.Uint32(hdr[13:])),
	}, nil
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }
