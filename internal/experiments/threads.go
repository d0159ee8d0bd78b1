package experiments

import (
	"fmt"
	"runtime"

	"btrblocks"
)

// Threads regenerates the §6.4-style multithreaded decompression scaling
// curve: the PBI corpus is compressed once, then every chunk is
// decompressed end to end at 1/2/4/8 workers (Options.Parallelism) and
// the best-of-reps throughput is reported with the speedup over the
// single-worker baseline. Per-chunk decompression fans out across
// (column, block) tasks, so the curve measures the shared parallel
// decode engine — the knob every decode path honors.
func Threads(cfg *Config) error {
	chunks, uncompressedBytes, compressedBytes, err := compressChunks(cfg)
	if err != nil {
		return err
	}
	cfg.printf("multithreaded chunk decompression (§6.4), PBI corpus\n")
	cfg.printf("datasets: %d, rows/table: %d, uncompressed: %.1f MB, compressed: %.1f MB\n",
		len(chunks), cfg.rows(), float64(uncompressedBytes)/1e6, float64(compressedBytes)/1e6)
	cfg.printf("host: GOMAXPROCS=%d — speedups flatten once workers exceed cores\n\n", runtime.GOMAXPROCS(0))
	cfg.printf("%-8s %10s %10s %9s\n", "workers", "time", "GB/s", "speedup")

	baseline := 0.0
	for _, workers := range []int{1, 2, 4, 8} {
		best := decompressChunksSeconds(chunks, workers, cfg.reps())
		if workers == 1 {
			baseline = best
		}
		cfg.printf("%-8d %9.3fs %10.2f %8.2fx\n",
			workers, best, gbps(uncompressedBytes, best), baseline/best)
	}
	return nil
}

// compressChunks compresses every table of the PBI corpus as one chunk.
func compressChunks(cfg *Config) (chunks []*btrblocks.CompressedChunk, uncompressedBytes, compressedBytes int, err error) {
	for _, ds := range cfg.pbiCorpus() {
		chunk := ds.Chunk
		cc, err := btrblocks.CompressChunk(&chunk, nil)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("compress %s: %v", ds.Name, err)
		}
		chunks = append(chunks, cc)
		uncompressedBytes += chunk.UncompressedBytes()
		compressedBytes += cc.CompressedBytes()
	}
	return chunks, uncompressedBytes, compressedBytes, nil
}

// decompressChunksSeconds decompresses every chunk end to end at the
// given worker count and returns the best wall time of reps passes.
func decompressChunksSeconds(chunks []*btrblocks.CompressedChunk, workers, reps int) float64 {
	opt := &btrblocks.Options{Parallelism: workers}
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		secs := timeSeconds(func() {
			for i, cc := range chunks {
				if _, err := btrblocks.DecompressChunk(cc, opt); err != nil {
					panic(fmt.Sprintf("decompress chunk %d: %v", i, err))
				}
			}
		})
		if best == 0 || secs < best {
			best = secs
		}
	}
	return best
}
