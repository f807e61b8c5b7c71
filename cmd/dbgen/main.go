// Command dbgen generates the deterministic TPC-H dataset and optionally
// persists it through the ColumnBM chunked column store (with manifests, so
// it can be attached back), reporting per-table row counts and the storage
// savings of enumeration compression and the lightweight chunk codecs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"x100/internal/columnbm"
	"x100/internal/tpch"
)

var tables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor")
	seed := flag.Uint64("seed", 1, "generator seed")
	out := flag.String("out", "", "directory to persist columns through ColumnBM (optional)")
	chunkValues := flag.Int("chunkvalues", 0, "values per ColumnBM chunk (0 = default >1MB chunks)")
	verify := flag.Bool("verify", false, "attach persisted tables, read every chunk (checksums verified) and compare row counts")
	flag.Parse()

	if err := run(*sf, *seed, *out, *chunkValues, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "dbgen:", err)
		os.Exit(1)
	}
}

func run(sf float64, seed uint64, out string, chunkValues int, verify bool) error {
	// Saving over saved tables moves their row-id epochs on, and the join
	// indices of the fresh lineitem, orders, ... would attach stale.
	if old, _ := filepath.Glob(filepath.Join(out, "*.manifest.json")); out != "" && len(old) > 0 {
		return fmt.Errorf("%s already holds saved tables; choose an empty directory", out)
	}
	db, err := tpch.Generate(tpch.Config{SF: sf, Seed: seed})
	if err != nil {
		return err
	}
	var total int64
	fmt.Printf("TPC-H SF=%g (seed %d)\n", sf, seed)
	fmt.Printf("%-10s %12s %14s\n", "table", "rows", "bytes")
	for _, name := range tables {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		b := int64(t.Bytes())
		total += b
		fmt.Printf("%-10s %12d %14d\n", name, t.N, b)
	}
	fmt.Printf("%-10s %12s %14d (enum-compressed, in memory)\n", "total", "", total)

	if out == "" {
		return nil
	}
	store, err := columnbm.NewStore(out, chunkValues, 0)
	if err != nil {
		return err
	}
	for _, name := range tables {
		t, _ := db.Table(name)
		if err := store.SaveTable(t); err != nil {
			return err
		}
	}
	onDisk, err := dirSize(out)
	if err != nil {
		return err
	}
	m, err := store.ReadManifest("lineitem")
	if err != nil {
		return err
	}
	fmt.Printf("persisted through ColumnBM to %s: %d bytes on disk (manifest v%d, chunk grid %d rows)\n",
		out, onDisk, m.Version, m.ChunkRows)

	// Per-codec usage over the fact table and the string-heavy tables: how
	// the best-codec heuristic chose among raw/RLE/FoR/delta for integers
	// and raw/dict/prefix for strings. The dict(n) suffix is the largest
	// per-chunk dictionary cardinality of dict-coded string chunks.
	for _, table := range []string{"lineitem", "orders", "customer", "part"} {
		cols, err := store.TableStorage(table)
		if err != nil {
			// Every listed table was just saved above, so a report failure
			// means the write left a corrupt manifest or chunk behind.
			return fmt.Errorf("storage report for %s: %w", table, err)
		}
		fmt.Printf("\n%s chunk codecs:\n", table)
		for _, c := range cols {
			ratio := 1.0
			if c.CompressedBytes > 0 {
				ratio = float64(c.RawBytes) / float64(c.CompressedBytes)
			}
			card := ""
			if c.DictCard > 0 {
				card = fmt.Sprintf(" dict(%d)", c.DictCard)
			}
			fmt.Printf("  %-18s %3d chunks  %-24s %6.2fx%s\n", c.Name, c.Chunks, columnbm.FormatCodecs(c.Codecs), ratio, card)
		}
	}

	if verify {
		for _, name := range tables {
			orig, _ := db.Table(name)
			loaded, err := store.AttachTable(name)
			if err != nil {
				return fmt.Errorf("verify %s: %w", name, err)
			}
			if loaded.N != orig.N || len(loaded.Cols) != len(orig.Cols) {
				return fmt.Errorf("verify %s: shape mismatch", name)
			}
			// Pinning reads every chunk, each checked against the CRC32
			// its manifest records.
			for _, c := range loaded.Cols {
				if _, err := c.Pin(); err != nil {
					return fmt.Errorf("verify %s: %w", name, err)
				}
			}
		}
		fmt.Println("verify: all tables attach and read back with matching shapes and checksums")
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
