// Command btrserved serves a directory of BtrBlocks files over HTTP:
// raw byte ranges for clients that bring their own decoder, decompressed
// blocks (JSON or binary) through a byte-bounded block cache with
// readahead, query plans (filters and aggregates, counts of
// column = literal included) answered from the compressed
// representation at /v1/query, and cascade decision traces at
// /v1/trace/NAME. Cache, decode and per-route series are Prometheus
// metrics at /metrics, request spans are at /v1/spans. Requests are
// logged as JSON slog records with per-request IDs; -debug-addr exposes
// pprof and expvar (where the library's decode telemetry is) on a
// second listener, SIGQUIT dumps a snapshot without exiting, and
// SIGINT/SIGTERM shut down gracefully with a summary log (the lifecycle
// is internal/serverkit's, shared with btrrouted and btringest).
//
// Usage:
//
//	btrserved -dir DATA [-addr HOST:PORT] [-addr-file PATH] [-cache-mb N]
//	          [-prefetch N] [-workers N] [-debug-addr HOST:PORT]
//	          [-log-level LEVEL] [-span-sample N] [-span-slow D]
//
// btrserved has no -smoke mode: everything it serves runs in one
// process, so internal/blockstore's tests check each endpoint against
// in-process decompression (README.md, "Serving").
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/serverkit"
)

func main() {
	var kit serverkit.Flags
	kit.Register(flag.CommandLine, "127.0.0.1:8080")
	kit.RegisterLogLevel(flag.CommandLine)
	dir := flag.String("dir", "", "directory of BtrBlocks files to serve")
	cacheMB := flag.Int("cache-mb", 256, "block cache size in MiB (negative disables)")
	prefetch := flag.Int("prefetch", 4, "blocks of readahead per request (0 disables)")
	workers := flag.Int("workers", 2, "readahead worker pool size")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "btrserved: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	logger := kit.Logger()
	if err := serve(*dir, storeConfig(*cacheMB, *prefetch, *workers), &kit, logger); err != nil {
		logger.Error("serve", "dir", *dir, "err", err.Error())
		os.Exit(1)
	}
}

// serve opens the store and runs it under the shared lifecycle.
func serve(dir string, cfg blockstore.Config, kit *serverkit.Flags, logger *slog.Logger) error {
	store, err := blockstore.Open(dir, cfg)
	if err != nil {
		return err
	}
	for _, f := range store.Files() {
		logger.Info("serving",
			"file", f.Name, "kind", f.Kind, "bytes", len(f.Data),
			"rows", f.Rows, "blocks", f.Blocks())
	}
	// The store's handler, its per-route series, and its cache and
	// decode state for the snapshot, summary and expvar section.
	p := &serverkit.Process{
		Name:    "btrserved",
		Handler: blockstore.NewServer(store, blockstore.WithLogger(logger), blockstore.WithSpans(kit.Spans("btrserved", logger))),
		Log:     logger,
		Routes:  &store.Metrics().HTTP,
		Stats: func() []any {
			c := store.Metrics().Cache()
			attrs := []any{"cache_hits", c.Hits, "cache_misses", c.Misses,
				"decoded_blocks", c.DecodedBlocks, "decoded_bytes", c.DecodedBytes}
			if opt := store.Options(); opt != nil && opt.Telemetry.Enabled() {
				attrs = append(attrs, "decode_latency", opt.Telemetry.Snapshot().DecodeLatency.String())
			}
			return attrs
		},
		Close: func() error { store.Close(); return nil },
	}
	return p.Run(context.Background(), kit)
}

func storeConfig(cacheMB, prefetch, workers int) blockstore.Config {
	cacheBytes := int64(cacheMB) << 20
	if cacheMB < 0 {
		cacheBytes = -1
	}
	return blockstore.Config{
		CacheBytes:      cacheBytes,
		PrefetchBlocks:  prefetch,
		PrefetchWorkers: workers,
		Options:         &btrblocks.Options{Telemetry: btrblocks.NewTelemetry()},
	}
}
