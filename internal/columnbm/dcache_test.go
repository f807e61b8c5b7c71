package columnbm

import (
	"fmt"
	"sync"
	"testing"
)

// loadInts is a deterministic chunk loader: key i decodes to an 8-value
// int64 slice stamped with i, 64 bytes per entry.
func loadInts(i int) func() (any, int64, error) {
	return func() (any, int64, error) {
		s := make([]int64, 8)
		for j := range s {
			s[j] = int64(i)
		}
		return s, decodedSize(s), nil
	}
}

func keyOf(i int) string { return fmt.Sprintf("chunk%06d", i) }

func getChunk(t *testing.T, c *DecodedCache, i int) []int64 {
	t.Helper()
	v, err := c.Get(keyOf(i), loadInts(i))
	if err != nil {
		t.Fatal(err)
	}
	s := v.([]int64)
	if len(s) != 8 || s[0] != int64(i) {
		t.Fatalf("key %d decoded to %v", i, s)
	}
	return s
}

// TestDecodedCacheCounterAccounting checks the counter identities every
// observable surface (\storage, trace, bench) relies on: each Get is
// exactly one hit or one miss, the first re-reference of an entry is
// exactly one attach, and occupancy equals the sum of resident entries.
func TestDecodedCacheCounterAccounting(t *testing.T) {
	c := NewDecodedCache(1 << 20)
	const n = 10
	for i := 0; i < n; i++ {
		getChunk(t, c, i)
	}
	st := c.Stats()
	if st.Misses != n || st.Hits != 0 || st.Attaches != 0 {
		t.Fatalf("after cold pass: %+v", st)
	}
	if st.Entries != n || st.SizeBytes != n*64 {
		t.Fatalf("occupancy: %+v", st)
	}
	// Second pass: every lookup hits; every entry attaches exactly once.
	for i := 0; i < n; i++ {
		getChunk(t, c, i)
	}
	// Third pass: hits again, but no further attaches.
	for i := 0; i < n; i++ {
		getChunk(t, c, i)
	}
	st = c.Stats()
	if st.Hits != 2*n || st.Misses != n {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
	if st.Attaches != n {
		t.Fatalf("attach must count first re-reference only: %+v", st)
	}
	if total := st.Hits + st.Misses; total != 3*n {
		t.Fatalf("every Get must be one hit or one miss: %+v", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("nothing should evict under capacity: %+v", st)
	}
}

// TestDecodedCacheScanResistantFlood checks the protected segment survives
// a one-pass sequential flood larger than the cache, the flood that wipes a
// plain LRU: re-referenced entries are promoted and the scan only cycles
// through probation.
func TestDecodedCacheScanResistantFlood(t *testing.T) {
	c := NewDecodedCache(16 * 64)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4; i++ {
			getChunk(t, c, i) // second pass promotes to protected
		}
	}
	for i := 100; i < 164; i++ {
		getChunk(t, c, i)
	}
	miss0 := c.Stats().Misses
	for i := 0; i < 4; i++ {
		getChunk(t, c, i)
	}
	if refetch := c.Stats().Misses - miss0; refetch != 0 {
		t.Fatalf("scan-resistant cache flooded out %d of 4 protected entries", refetch)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("the flood must have evicted probation entries: %+v", st)
	}
}

// TestDecodedCacheProtectedBounded checks the protected segment demotes
// instead of monopolizing the budget: promoting everything leaves at most
// half the capacity protected, and the cache never exceeds capacity.
func TestDecodedCacheProtectedBounded(t *testing.T) {
	c := NewDecodedCache(16 * 64)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			getChunk(t, c, i)
		}
	}
	c.mu.Lock()
	size, protSize, capacity := c.size, c.protSize, c.capacity
	prob, prot, ents := c.probation.Len(), c.protected.Len(), len(c.entries)
	c.mu.Unlock()
	if size > capacity {
		t.Fatalf("size %d exceeds capacity %d", size, capacity)
	}
	if protSize > capacity/2 {
		t.Fatalf("protected segment %d exceeds half the budget %d", protSize, capacity/2)
	}
	if prob+prot != ents {
		t.Fatalf("segment lists (%d+%d) disagree with entry map (%d)", prob, prot, ents)
	}
}

// TestDecodedCacheDisabledStore checks ConfigureDecodedCache(<=0) turns the
// cooperative layer off without breaking the store accessors.
func TestDecodedCacheDisabledStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodedCache() == nil {
		t.Fatal("decoded cache should default on")
	}
	s.ConfigureDecodedCache(0)
	if s.DecodedCache() != nil {
		t.Fatal("capacity <= 0 must disable the cache")
	}
	if st := s.Stats(); st.Cache.CapacityBytes != 0 {
		t.Fatalf("disabled cache must report zero stats: %+v", st.Cache)
	}
	s.ConfigureDecodedCache(1 << 20)
	if c := s.DecodedCache(); c == nil || c.Stats().CapacityBytes != 1<<20 {
		t.Fatal("reconfiguration must install a fresh cache with the given capacity")
	}
}

// FuzzDecodedCacheFollowers drives the cooperative-scan layer with an
// interleaving of scan followers attaching to and detaching from the
// circulating chunk stream mid-flight: a byte-string program schedules
// concurrent partial scans (attach at some chunk, detach after some
// count) over a shared key space. Invariants: every Get
// returns the correct chunk contents (shared slices are never corrupted or
// cross-wired), occupancy never exceeds capacity, the segment lists agree
// with the entry map, and hits+misses add up to the lookups issued.
func FuzzDecodedCacheFollowers(f *testing.F) {
	f.Add([]byte{0x01, 0x20, 0x83, 0x04, 0xff, 0x10, 0x42})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0xaa, 0x55, 0x13, 0x37, 0x99, 0x01, 0x02, 0x03, 0x04})
	f.Fuzz(func(t *testing.T, program []byte) {
		const keySpace = 24
		// Capacity below the key space so the interleaving exercises
		// eviction and re-decode races, not just warm hits.
		c := NewDecodedCache(8 * 64)
		var wg sync.WaitGroup
		var lookups int64
		var mu sync.Mutex
		if len(program) > 64 {
			program = program[:64]
		}
		// Each program byte schedules one follower: high nibble = chunk to
		// attach at, low nibble = chunks to read before detaching.
		for _, b := range program {
			start := int(b >> 4)
			count := int(b&0x0f) + 1
			wg.Add(1)
			go func(start, count int) {
				defer wg.Done()
				n := 0
				for j := 0; j < count; j++ {
					i := (start + j) % keySpace
					v, err := c.Get(keyOf(i), loadInts(i))
					if err != nil {
						t.Error(err)
						return
					}
					s := v.([]int64)
					for _, got := range s {
						if got != int64(i) {
							t.Errorf("chunk %d corrupted: %v", i, s)
							return
						}
					}
					n++
				}
				mu.Lock()
				lookups += int64(n)
				mu.Unlock()
			}(start, count)
		}
		wg.Wait()
		st := c.Stats()
		if st.Hits+st.Misses != lookups {
			t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
		}
		if st.SizeBytes > st.CapacityBytes && st.Entries > 1 {
			t.Fatalf("over budget with %d entries: %+v", st.Entries, st)
		}
		c.mu.Lock()
		prob, prot, ents := c.probation.Len(), c.protected.Len(), len(c.entries)
		c.mu.Unlock()
		if prob+prot != ents {
			t.Fatalf("segment lists (%d+%d) disagree with entry map (%d)", prob, prot, ents)
		}
	})
}
