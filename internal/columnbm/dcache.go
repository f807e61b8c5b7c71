package columnbm

import (
	"container/list"
	"sync"
)

// DecodedCache is the cooperative-scan layer of the buffer manager: it
// holds decoded (decompressed, typed) chunk slices keyed by chunk file, so
// concurrent scans of the same table attach to the chunks the first scan
// is already circulating instead of each decoding every chunk privately.
// Entries are immutable shared slices — the same contract in-memory
// columns already have — which is what makes attaching free: a follower
// gets the finished slice, no hand-off protocol, no waiting on a leader.
//
// Capacity is in decoded bytes. Eviction is scan-resistant, a segmented
// LRU (2Q-style): fresh decodes enter a probationary segment and only a
// re-reference — a second scan attaching to the circulating chunk stream —
// promotes them to the protected segment, so a one-pass sequential flood
// cycles through probation and never displaces the protected working set.
// It runs under one mutex, which is off the decode path on hits and
// amortized over a whole chunk (≥ tens of thousands of values) otherwise.
type DecodedCache struct {
	mu       sync.Mutex
	capacity int64
	size     int64
	protSize int64

	probation *list.List // front = most recent
	protected *list.List // hot segment of re-referenced chunks
	entries   map[string]*list.Element

	hits, misses, attaches, evictions int64
}

type dcEntry struct {
	key  string
	data any
	size int64
	// prot marks residence in the protected segment.
	prot bool
	// refed marks that the entry has been re-referenced since it was
	// decoded; the first re-reference is an "attach" — a second scan
	// joining the chunk stream the first decode paid for.
	refed bool
}

// DecodedCacheStats is a point-in-time snapshot of the decoded-chunk
// cache: occupancy and the hit/miss/attach/eviction counters the
// `\storage` command and trace surface.
type DecodedCacheStats struct {
	// CapacityBytes is the configured decoded-byte budget.
	CapacityBytes int64
	// SizeBytes is the current decoded-byte occupancy.
	SizeBytes int64
	// Entries is the number of resident decoded chunks.
	Entries int
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that had to decode.
	Misses int64
	// Attaches counts first re-references of a decoded chunk — scans that
	// joined ("attached to") a chunk stream another scan already decoded.
	Attaches int64
	// Evictions counts evicted decoded chunks.
	Evictions int64
}

// NewDecodedCache creates a cache with the given decoded-byte capacity.
func NewDecodedCache(capacityBytes int64) *DecodedCache {
	if capacityBytes <= 0 {
		capacityBytes = 1
	}
	return &DecodedCache{
		capacity:  capacityBytes,
		probation: list.New(),
		protected: list.New(),
		entries:   make(map[string]*list.Element),
	}
}

// Get returns the decoded slice for key, decoding it with load on a miss.
// load must return a freshly allocated slice (never a caller-owned buffer)
// and its decoded size in bytes; the returned slice is shared and must be
// treated as immutable by every caller.
func (c *DecodedCache) Get(key string, load func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*dcEntry)
		c.hits++
		if !e.refed {
			e.refed = true
			c.attaches++
		}
		c.touch(el, e)
		data := e.data
		c.mu.Unlock()
		return data, nil
	}
	c.misses++
	c.mu.Unlock()

	data, size, err := load()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Raced with another decoder; keep the resident copy so all
		// followers share one slice.
		e := el.Value.(*dcEntry)
		if !e.refed {
			e.refed = true
			c.attaches++
		}
		c.touch(el, e)
		return e.data, nil
	}
	e := &dcEntry{key: key, data: data, size: size}
	c.entries[key] = c.probation.PushFront(e)
	c.size += size
	c.evict()
	return data, nil
}

// touch applies a re-reference move. Called with mu held.
func (c *DecodedCache) touch(el *list.Element, e *dcEntry) {
	if e.prot {
		c.protected.MoveToFront(el)
		return
	}
	// Promotion probation -> protected on re-reference.
	c.probation.Remove(el)
	e.prot = true
	c.entries[e.key] = c.protected.PushFront(e)
	c.protSize += e.size
	// The protected segment may use at most half the budget; overflow
	// demotes its coldest entries back to probation, where the normal
	// eviction order applies.
	for c.protSize > c.capacity/2 && c.protected.Len() > 1 {
		back := c.protected.Back()
		d := back.Value.(*dcEntry)
		c.protected.Remove(back)
		d.prot = false
		c.protSize -= d.size
		c.entries[d.key] = c.probation.PushBack(d)
	}
}

// evict enforces the byte budget: probation evicts from the back first;
// only when probation is empty does the protected segment shrink. Called
// with mu held.
func (c *DecodedCache) evict() {
	for c.size > c.capacity && len(c.entries) > 1 {
		seg := c.probation
		if seg.Len() == 0 {
			seg = c.protected
		}
		back := seg.Back()
		if back == nil {
			return
		}
		e := back.Value.(*dcEntry)
		seg.Remove(back)
		delete(c.entries, e.key)
		c.size -= e.size
		if e.prot {
			c.protSize -= e.size
		}
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *DecodedCache) Stats() DecodedCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DecodedCacheStats{
		CapacityBytes: c.capacity,
		SizeBytes:     c.size,
		Entries:       len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Attaches:      c.attaches,
		Evictions:     c.evictions,
	}
}

// Len returns the number of resident decoded chunks.
func (c *DecodedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// decodedSize estimates the in-memory bytes of a decoded chunk slice.
func decodedSize(data any) int64 {
	switch s := data.(type) {
	case []int64:
		return int64(len(s)) * 8
	case []float64:
		return int64(len(s)) * 8
	case []int32:
		return int64(len(s)) * 4
	case []uint16:
		return int64(len(s)) * 2
	case []uint8:
		return int64(len(s))
	case []bool:
		return int64(len(s))
	case []string:
		n := int64(len(s)) * 16 // string headers
		for _, v := range s {
			n += int64(len(v))
		}
		return n
	default:
		return 0
	}
}
