package experiments

import (
	"context"
	"fmt"
	"sort"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/pbi"
	"btrblocks/internal/smoke"
)

// Serve measures scans through the networked blockstore: the §6.7
// serving scenario with a real HTTP server in the loop instead of the
// s3sim cost model. The largest five Public BI workbooks are compressed
// one file per column, hosted by a blockstore.Server on a loopback
// listener, and scanned block-by-block through blockstore.Client — once
// cold (every block decoded server-side on demand) and then warm (every
// block answered from the decompressed-block cache). The gap between the
// two lines is what the block cache buys; the count-eq check at the end
// verifies that pushed-down predicates return exactly the local scan's
// answer over the wire.
func Serve(cfg *Config) error {
	cols, err := smoke.Compress(pbi.Largest5(cfg.rows(), cfg.seed()), btrblocks.DefaultOptions())
	if err != nil {
		return err
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
	contents := make(map[string][]byte, len(cols))
	compressedBytes := 0
	for _, c := range cols {
		contents[c.Name] = c.Data
		compressedBytes += len(c.Data)
	}

	store, err := blockstore.NewStore(contents, blockstore.Config{
		CacheBytes:     1 << 30, // hold the whole working set: warm means warm
		PrefetchBlocks: 4,
		Options:        &btrblocks.Options{Telemetry: btrblocks.NewTelemetry()},
	})
	if err != nil {
		return err
	}
	defer store.Close()

	base, stop, err := smoke.Serve(blockstore.NewServer(store))
	if err != nil {
		return err
	}
	defer stop()

	ctx := context.Background()
	cl := blockstore.NewClient(base)

	scanAll := func() (int64, error) {
		var total int64
		for _, c := range cols {
			_, bytes, err := cl.ScanColumn(ctx, c.Name, cfg.threads())
			if err != nil {
				return 0, fmt.Errorf("scan %s: %w", c.Name, err)
			}
			total += bytes
		}
		return total, nil
	}

	// Cold: the cache is empty, so every block is decoded server-side.
	var scanned int64
	coldSec := timeSeconds(func() {
		scanned, err = scanAll()
	})
	if err != nil {
		return err
	}
	m := store.Metrics()
	coldDecoded := m.DecodedBlocks.Load()

	// Warm: best of reps (at least two, to keep the cold/warm comparison
	// robust to scheduler noise on small corpora) over the now-resident
	// working set.
	warmReps := cfg.reps()
	if warmReps < 2 {
		warmReps = 2
	}
	warmSec := 0.0
	for r := 0; r < warmReps; r++ {
		sec := timeSeconds(func() {
			_, err = scanAll()
		})
		if err != nil {
			return err
		}
		if r == 0 || sec < warmSec {
			warmSec = sec
		}
	}
	warmDecoded := m.DecodedBlocks.Load() - coldDecoded

	// Predicate pushdown over the wire must agree with the local scan.
	checked := 0
	for _, c := range cols {
		probe, ok := smoke.Probe(c.Col)
		if !ok {
			continue
		}
		res, err := cl.CountEq(ctx, c.Name, probe)
		if err != nil {
			return fmt.Errorf("count-eq %s: %w", c.Name, err)
		}
		want, err := smoke.LocalCount(c.Data, c.Col.Type, probe, nil)
		if err != nil {
			return err
		}
		if res.Count != want {
			return fmt.Errorf("count-eq %s %q: served %d, local %d", c.Name, probe, res.Count, want)
		}
		checked++
	}

	hits, misses := m.CacheHits.Load(), m.CacheMisses.Load()
	cfg.printf("§6.7 served scans through the networked blockstore (%d columns, %d threads)\n",
		len(cols), cfg.threads())
	cfg.printf("%-12s %14s %14s %12s\n", "cache", "scan [GB/s]", "decoded blks", "time [s]")
	cfg.printf("%-12s %14.2f %14d %12.3f\n", "cold", gbps(int(scanned), coldSec), coldDecoded, coldSec)
	cfg.printf("%-12s %14.2f %14d %12.3f\n", "warm", gbps(int(scanned), warmSec), warmDecoded, warmSec)
	cfg.printf("warm speedup: %.2fx; cache hits %d, misses %d; compressed %d bytes served as %d\n",
		coldSec/warmSec, hits, misses, compressedBytes, scanned)
	cfg.printf("count-eq pushdown verified on %d columns\n", checked)
	if warmSec >= coldSec {
		return fmt.Errorf("warm scan (%.3fs) not faster than cold (%.3fs)", warmSec, coldSec)
	}
	return nil
}
