package tpch

import (
	"fmt"
	"sync"
	"testing"

	"x100/internal/columnbm"
	"x100/internal/core"
)

var (
	plainDiskOnce sync.Once
	plainDiskVal  *core.Database
	plainDiskErr  error
)

// getPlainDiskDB persists a PlainColumns (enum-free) TPC-H database
// through ColumnBM and attaches it: the low-cardinality string columns
// (l_returnflag, l_shipmode, o_orderpriority, c_mktsegment, ...) land as
// dict-coded chunks and come back with table-level merged dictionaries —
// the dict-heavy layout code-domain execution targets.
func getPlainDiskDB(t *testing.T) *core.Database {
	t.Helper()
	plainDiskOnce.Do(func() {
		mem, err := Generate(Config{SF: 0.01, Seed: 1, PlainColumns: true})
		if err != nil {
			plainDiskErr = err
			return
		}
		dir := t.TempDir()
		wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
		if err != nil {
			plainDiskErr = err
			return
		}
		for _, name := range baseTables {
			tab, err := mem.Table(name)
			if err != nil {
				plainDiskErr = err
				return
			}
			if err := wstore.SaveTable(tab); err != nil {
				plainDiskErr = err
				return
			}
		}
		store, err := columnbm.NewStore(dir, diskChunkRows, 8)
		if err != nil {
			plainDiskErr = err
			return
		}
		db := core.NewDatabase()
		for _, name := range baseTables {
			if _, err := core.AttachDiskTable(db, store, name); err != nil {
				plainDiskErr = err
				return
			}
		}
		// Register the join indices as AttachDisk does.
		if err := RegisterJoinIndices(db); err != nil {
			plainDiskErr = err
			return
		}
		plainDiskVal = db
	})
	if plainDiskErr != nil {
		t.Fatal(plainDiskErr)
	}
	return plainDiskVal
}

// TestCodeDomainDifferential runs every TPC-H query with code-domain
// execution (the default) at parallelism 1, 2 and 8 against the
// decode-first execution of the same plan, on both databases: the
// in-memory enum-compressed layout and the disk-attached PlainColumns
// layout whose string columns carry merged dictionaries. Row multisets
// must match exactly (floats up to parallel summation order).
func TestCodeDomainDifferential(t *testing.T) {
	dbs := []struct {
		name string
		db   *core.Database
	}{
		{"memory-enum", getDB(t)},
		{"disk-dict", getPlainDiskDB(t)},
	}
	for _, d := range dbs {
		for q := 1; q <= NumQueries; q++ {
			q := q
			t.Run(fmt.Sprintf("%s/Q%d", d.name, q), func(t *testing.T) {
				plan, err := Query(q, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				decodeFirst := core.DefaultOptions()
				decodeFirst.NoCodeDomain = true
				want, err := core.Run(d.db, plan, decodeFirst)
				if err != nil {
					t.Fatalf("decode-first: %v", err)
				}
				for _, p := range []int{1, 2, 8} {
					opts := core.DefaultOptions()
					opts.Parallelism = p
					got, err := core.Run(d.db, plan, opts)
					if err != nil {
						t.Fatalf("code-domain p=%d: %v", p, err)
					}
					sameRowMultisets(t, fmt.Sprintf("Q%d p=%d", q, p), want, got)
				}
			})
		}
	}
}
