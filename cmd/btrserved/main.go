// Command btrserved serves a directory of BtrBlocks files over HTTP:
// raw byte ranges for clients that bring their own decoder, decompressed
// blocks (JSON or binary) through a byte-bounded block cache with
// readahead, pushed-down equality predicates answered from the
// compressed representation, and cascade decision traces at
// /v1/trace/NAME. Prometheus metrics at /metrics, cache and decode
// telemetry at /v1/telemetry. Requests are logged as JSON slog records
// with per-request IDs; -debug-addr exposes pprof and expvar on a
// second listener, SIGQUIT dumps a snapshot without exiting, and
// SIGINT/SIGTERM shut down gracefully with a summary log (the lifecycle
// is internal/serverkit's, shared with btrrouted and btringest).
//
// Usage:
//
//	btrserved -dir DATA [-addr HOST:PORT] [-addr-file PATH] [-cache-mb N]
//	          [-prefetch N] [-workers N] [-debug-addr HOST:PORT]
//	          [-log-level LEVEL] [-span-sample N] [-span-slow D]
//	btrserved -smoke
//
// -smoke generates a temporary corpus, serves it on a loopback port
// (debug server included), and verifies every endpoint against direct
// in-process decompression; it exits non-zero on any mismatch. CI runs
// it as an end-to-end gate.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/obs"
	"btrblocks/internal/pbi"
	"btrblocks/internal/query"
	"btrblocks/internal/serverkit"
	"btrblocks/internal/smoke"
	"btrblocks/metadata"
)

func main() {
	var kit serverkit.Flags
	kit.Register(flag.CommandLine, "127.0.0.1:8080")
	kit.RegisterLogLevel(flag.CommandLine)
	dir := flag.String("dir", "", "directory of BtrBlocks files to serve")
	cacheMB := flag.Int("cache-mb", 256, "block cache size in MiB (negative disables)")
	prefetch := flag.Int("prefetch", 4, "blocks of readahead per request (0 disables)")
	workers := flag.Int("workers", 2, "readahead worker pool size")
	smokeTest := flag.Bool("smoke", false, "self-test: serve a generated corpus and verify every endpoint")
	flag.Parse()

	cfg := storeConfig(*cacheMB, *prefetch, *workers)
	if *smokeTest {
		smoke.Exit("btrserved", runSmoke(cfg))
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "btrserved: -dir is required (or -smoke)")
		flag.Usage()
		os.Exit(2)
	}
	logger := kit.Logger()
	if err := serve(*dir, cfg, &kit, logger); err != nil {
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
	return process(store, logger, kit.Spans("btrserved", logger)).Run(context.Background(), kit)
}

// process is btrserved over a store, as both a deployment and the smoke
// run it: the store's handler, its per-route series, and its cache and
// decode state for the snapshot, summary and expvar section.
func process(store *blockstore.Store, logger *slog.Logger, spans *obs.SpanRecorder) *serverkit.Process {
	return &serverkit.Process{
		Name:    "btrserved",
		Handler: blockstore.NewServer(store, blockstore.WithLogger(logger), blockstore.WithSpans(spans)),
		Log:     logger,
		Routes:  &store.Metrics().HTTP,
		Stats: func() []any {
			c := store.Metrics().Cache()
			attrs := []any{"cache_hits", c.Hits, "cache_misses", c.Misses,
				"decoded_blocks", c.DecodedBlocks, "decoded_bytes", c.DecodedBytes}
			if opt := store.Options(); opt != nil && opt.Telemetry.Enabled() {
				snap := opt.Telemetry.Snapshot()
				attrs = append(attrs, "blocks_compressed", snap.Blocks, "decode_latency", snap.DecodeLatency.String())
			}
			return attrs
		},
		Close: func() error { store.Close(); return nil },
	}
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

// runSmoke is the end-to-end self-test: write a generated corpus to a
// temp directory, serve it from disk on a loopback port, and check every
// endpoint against direct decompression of the same bytes.
func runSmoke(cfg blockstore.Config) error {
	const (
		rows = 20000
		seed = 42
	)
	dir, err := os.MkdirTemp("", "btrserved-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Compress every pbi column to its own file, a data-lake directory in
	// miniature. Small blocks so multi-block paths (readahead, per-block
	// endpoints) actually exercise.
	opt := &btrblocks.Options{BlockSize: 4096}
	columns, err := smoke.Compress(pbi.Corpus(rows, seed), opt)
	if err != nil {
		return err
	}

	// A sorted timestamp column with its BTRM sidecar: the query phase
	// proves range plans prune most of its blocks before any decode.
	ts := make([]int64, rows)
	for i := range ts {
		ts[i] = 1_600_000_000_000 + int64(i)*250
	}
	tsCol := btrblocks.Int64Column("event_ts", ts)
	tsData, err := btrblocks.CompressColumn(tsCol, opt)
	if err != nil {
		return fmt.Errorf("compress timestamp column: %v", err)
	}
	tsName := "events/event_ts.btr"
	columns = append(columns, smoke.Column{Name: tsName, Data: tsData, Col: tsCol})
	for _, c := range columns {
		if err := smoke.WriteFile(dir, c.Name, c.Data); err != nil {
			return err
		}
	}
	meta := metadata.Build(tsCol, opt)
	if err := smoke.WriteFile(dir, tsName+blockstore.MetaSuffix, meta.AppendTo(nil)); err != nil {
		return err
	}

	store, err := blockstore.Open(dir, cfg)
	if err != nil {
		return err
	}
	defer store.Close()
	logger := obs.NewLogger(os.Stderr, slog.LevelWarn)
	p := process(store, logger, obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved", Logger: logger}))
	base, stop, err := smoke.Serve(p.Handler)
	if err != nil {
		return err
	}
	defer stop()

	// Debug server, as a deployment would run it: pprof + expvar on a
	// separate loopback listener.
	dbase, dstop, err := smoke.Serve(serverkit.DebugHandler(p.Name, p.Vars))
	if err != nil {
		return err
	}
	defer dstop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := blockstore.NewClient(base)

	if err := cl.Healthz(ctx); err != nil {
		return err
	}
	metas, err := cl.Files(ctx)
	if err != nil {
		return err
	}
	// Every column file plus the timestamp column's metadata sidecar.
	if len(metas) != len(columns)+1 {
		return fmt.Errorf("/v1/files lists %d files, wrote %d", len(metas), len(columns)+1)
	}

	for _, c := range columns {
		if err := smokeFile(ctx, cl, c.Name, c.Data, c.Col, store.Options()); err != nil {
			return fmt.Errorf("%s: %v", c.Name, err)
		}
	}

	// Query plans: /v1/query must agree with an in-process executor over
	// the same bytes, prune via the hosted sidecar, and 400 bad plans.
	if err := smokeQuery(ctx, cl, columns[len(columns)-1], store.Options()); err != nil {
		return fmt.Errorf("query: %v", err)
	}

	// Telemetry and metrics must be live and reflect the traffic above.
	rep, err := cl.Telemetry(ctx)
	if err != nil {
		return err
	}
	if rep.Cache.DecodedBlocks == 0 || rep.Cache.Hits == 0 {
		return fmt.Errorf("telemetry shows no activity: %+v", rep.Cache)
	}
	metrics, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	for _, want := range []string{
		"btrserved_cache_hits_total",
		"btrserved_decoded_blocks_total",
		`btrserved_http_requests_total{route="/v1/block"}`,
		"btrserved_http_request_duration_seconds_bucket",
		"btrserved_spans_recorded_total",
		"btrserved_query_requests_total",
		"btrserved_query_blocks_pruned_total",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}

	// Spans: every request above ran under a recorded server span. The
	// snapshot must validate against the schema and carry roots with
	// their decode children; the telemetry report must link exemplars.
	spanSet, err := cl.Spans(ctx, "", 0)
	if err != nil {
		return err
	}
	if err := smoke.CheckSpanChain(spanSet, "btrserved/v1/block", "block.decode"); err != nil {
		return err
	}
	if len(rep.SpanExemplars) == 0 {
		return fmt.Errorf("/v1/telemetry has no span exemplars after traffic")
	}

	// Decision traces: the re-derived trace must be valid per the schema
	// and agree with the scheme the stored block actually uses.
	tr, err := cl.Trace(ctx, columns[0].Name, 0)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	if len(tr.Blocks) != 1 || tr.Blocks[0].Root == nil {
		return fmt.Errorf("/v1/trace returned %d blocks", len(tr.Blocks))
	}

	// Debug server: pprof index and expvar must answer, and expvar must
	// carry the live btrserved section.
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		body, err := smoke.HTTPGet(ctx, dbase+path)
		if err != nil {
			return fmt.Errorf("debug %s: %v", path, err)
		}
		if path == "/debug/vars" && !strings.Contains(body, `"btrserved"`) {
			return fmt.Errorf("debug /debug/vars missing btrserved section")
		}
	}

	// Degraded serving: corrupt one block of a multi-block column on disk,
	// serve it from a fresh store, and check the full failure story —
	// detection, quarantine, partial scan, and the corruption metrics.
	if err := smokeDegraded(ctx, dir, columns, cfg); err != nil {
		return fmt.Errorf("degraded serving: %v", err)
	}

	fmt.Printf("smoke: %d files, cache hits=%d misses=%d decoded=%d blocks\n",
		len(columns), rep.Cache.Hits, rep.Cache.Misses, rep.Cache.DecodedBlocks)
	return nil
}

// smokeQuery drives POST /v1/query against the sorted timestamp column:
// a narrow range plan must answer exactly (checked against both the
// known row window and an in-process executor over the same bytes),
// skip more than half the blocks via the hosted sidecar, fold
// aggregates correctly, and reject a malformed plan with 400.
func smokeQuery(ctx context.Context, cl *blockstore.Client, ts smoke.Column, opt *btrblocks.Options) error {
	const lo, hi = 6200, 7800 // row window: values are sorted, so ids == offsets
	name, vals := ts.Name, ts.Col.Ints64
	plan := &query.Plan{
		Filter: &query.Node{Op: "range", Column: name,
			Lo: []byte(strconv.FormatInt(vals[lo], 10)),
			Hi: []byte(strconv.FormatInt(vals[hi], 10))},
		Aggregates: []query.AggSpec{
			{Op: "count", Column: name},
			{Op: "min", Column: name},
			{Op: "max", Column: name},
		},
		Rows: true,
	}
	// The served result must be bit-identical to an in-process run over
	// the same compressed bytes (sidecar-free: pruning must not change
	// the answer, only the work).
	src, err := smoke.Source(ts)
	if err != nil {
		return err
	}
	res, err := smoke.CheckQuery(ctx, cl, plan, src, opt)
	if err != nil {
		return err
	}
	wantMatched := int64(hi - lo + 1)
	if res.Matched != wantMatched || len(res.RowIDs) != int(wantMatched) ||
		res.RowIDs[0] != lo || res.RowIDs[len(res.RowIDs)-1] != hi {
		return fmt.Errorf("range [%d,%d]: matched=%d rows=%d", lo, hi, res.Matched, len(res.RowIDs))
	}
	for i, want := range []string{
		strconv.FormatInt(wantMatched, 10),
		strconv.FormatInt(vals[lo], 10),
		strconv.FormatInt(vals[hi], 10),
	} {
		if res.Aggregates[i].Value != want || res.Aggregates[i].Count != wantMatched {
			return fmt.Errorf("aggregate %d: %+v, want value %s", i, res.Aggregates[i], want)
		}
	}
	if res.Stats.BlocksPruned*2 <= res.Stats.BlocksTotal {
		return fmt.Errorf("sidecar pruned %d of %d blocks, want >50%%", res.Stats.BlocksPruned, res.Stats.BlocksTotal)
	}
	if res.Stats.BlocksPruned+res.Stats.BlocksScanned != res.Stats.BlocksTotal {
		return fmt.Errorf("pruned+scanned != total: %+v", res.Stats)
	}
	fmt.Printf("smoke query: range matched %d rows, %d/%d blocks pruned via sidecar\n",
		res.Matched, res.Stats.BlocksPruned, res.Stats.BlocksTotal)
	return nil
}

// smokeDegraded damages one served block and verifies graceful
// degradation: the corrupt block is refused (422) and quarantined (410),
// a partial scan still returns every healthy block, and the corruption
// counters reach /metrics.
func smokeDegraded(ctx context.Context, dir string, columns []smoke.Column, cfg blockstore.Config) error {
	// Flip one byte inside a middle block of a multi-block column on disk.
	victim, badBlock, damaged, err := smoke.Damage(columns)
	if err != nil {
		return err
	}
	name := columns[victim].Name
	path := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		return err
	}
	defer os.WriteFile(path, columns[victim].Data, 0o644)

	cfg.QuarantineThreshold = 1
	store, err := blockstore.Open(dir, cfg)
	if err != nil {
		return err
	}
	defer store.Close()
	base, stop, err := smoke.Serve(blockstore.NewServer(store))
	if err != nil {
		return err
	}
	defer stop()
	cl := blockstore.NewClient(base, blockstore.WithBackoff(time.Millisecond, 4*time.Millisecond))

	// First touch detects the corruption; the threshold-1 store
	// quarantines immediately, so the second touch is fenced.
	if _, err := cl.Block(ctx, name, badBlock); !blockstore.IsBlockDamage(err) {
		return fmt.Errorf("corrupt block served without damage error: %v", err)
	}
	if _, err := cl.Block(ctx, name, badBlock); !blockstore.IsBlockDamage(err) {
		return fmt.Errorf("quarantined block served without damage error: %v", err)
	}
	if _, err := cl.Block(ctx, name, badBlock-1); err != nil {
		return fmt.Errorf("healthy block of damaged column: %v", err)
	}

	res, err := cl.ScanColumnPartial(ctx, name, 2)
	if err != nil {
		return err
	}
	ix, err := btrblocks.ParseColumnIndex(columns[victim].Data)
	if err != nil {
		return err
	}
	wantRows := columns[victim].Col.Len() - ix.Blocks[badBlock].Rows
	if !res.Partial || res.Rows != wantRows || len(res.FailedBlocks) != 1 || res.FailedBlocks[0] != badBlock {
		return fmt.Errorf("partial scan: %+v (want partial, %d rows, failed block %d)", res, wantRows, badBlock)
	}

	metrics, err := cl.MetricsText(ctx)
	if err != nil {
		return err
	}
	if !strings.Contains(metrics, "btrserved_quarantined_blocks 1") {
		return fmt.Errorf("/metrics missing quarantine gauge")
	}
	if err := smoke.CheckMetrics(metrics, "btrserved_corrupt_blocks_total"); err != nil {
		return err
	}
	fmt.Printf("smoke degraded: block %d of %s refused and quarantined, partial scan rows=%d\n",
		badBlock, name, res.Rows)
	return nil
}

// smokeFile checks every access granularity of one served column against
// the in-process ground truth.
func smokeFile(ctx context.Context, cl *blockstore.Client, name string, data []byte, col btrblocks.Column, opt *btrblocks.Options) error {
	// Raw: served bytes must be exactly the file written to disk.
	raw, err := cl.Raw(ctx, name)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, data) {
		return fmt.Errorf("raw bytes differ: got %d bytes, want %d", len(raw), len(data))
	}
	// Range: a middle slice via the S3-style path.
	if len(data) > 64 {
		part, err := cl.RawRange(ctx, name, 16, 32)
		if err != nil {
			return err
		}
		if !bytes.Equal(part, data[16:48]) {
			return fmt.Errorf("range bytes differ")
		}
	}

	// Blocks: reassemble the column from per-block responses, in both
	// formats, and check each against the local column.
	if err := smoke.CheckColumn(ctx, cl, name, col, cl.Block); err != nil {
		return fmt.Errorf("binary: %v", err)
	}
	if err := smoke.CheckColumn(ctx, cl, name, col, cl.BlockJSON); err != nil {
		return fmt.Errorf("json: %v", err)
	}

	// Predicate pushdown: server count must equal the local scan for a
	// probe drawn from the data (guaranteed hits) and for a sure miss.
	for _, probe := range smokeProbes(col) {
		res, err := cl.CountEq(ctx, name, probe)
		if err != nil {
			return err
		}
		want, err := smoke.LocalCount(data, probe, opt)
		if err != nil {
			return err
		}
		if res.Count != want {
			return fmt.Errorf("count-eq %q: server %d, local %d", probe, res.Count, want)
		}
	}
	return nil
}

// smokeProbes picks predicate values for a column: a sure miss and,
// unless every row is NULL, the first non-NULL value (a guaranteed hit).
func smokeProbes(col btrblocks.Column) []string {
	miss := "no-such-value-in-any-generated-corpus"
	if col.Type != btrblocks.TypeString {
		miss = "-987654321"
	}
	probes := []string{miss}
	if hit, ok := smoke.Probe(col); ok && hit != miss {
		probes = append(probes, hit)
	}
	return probes
}
