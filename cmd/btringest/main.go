// Command btringest is the write path of the lake: a crash-safe,
// high-throughput ingestion server that accepts row appends over HTTP,
// stages them in a WAL-backed buffer, and publishes compressed BtrBlocks
// column files into the directory btrserved serves.
//
// Usage:
//
//	btringest -dir DIR [-addr HOST:PORT] [flags]
//	btringest -smoke
//
// Appends are acknowledged only after their WAL record is fsynced; a
// kill -9 at any moment loses no acknowledged row — startup replays the
// WAL, discards torn tails, and re-publishes whatever a crash
// interrupted. -smoke proves exactly that: it spawns a child server,
// appends through HTTP, kills the child with SIGKILL mid-append,
// restarts it, and verifies every acknowledged row survived.
//
// With -notify URL[,URL...], each published or replaced file is
// reported to every listed btrserved (or btrrouted) endpoint via
// POST /v1/invalidate/ so no block cache serves stale bytes — a
// replicated cluster lists one endpoint per replica (or the router,
// which fans the invalidation out to the file's replicas itself).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/ingest"
	"btrblocks/internal/obs"
	"btrblocks/internal/serverkit"
	"btrblocks/internal/smoke"
)

func main() {
	var kit serverkit.Flags
	kit.Register(flag.CommandLine, "127.0.0.1:9411")
	var (
		dir        = flag.String("dir", "", "store directory to publish into (required unless -smoke)")
		walDir     = flag.String("wal", "", "WAL directory (default DIR/.wal)")
		chunkRows  = flag.Int("chunk-rows", btrblocks.DefaultBlockSize, "buffered rows that trigger a flush")
		flushIvl   = flag.Duration("flush-interval", time.Second, "periodic flush of non-empty buffers (<0 disables)")
		compactIvl = flag.Duration("compact-interval", 5*time.Second, "background compaction period")
		compactMin = flag.Int("compact-min-chunks", 4, "small chunks that trigger compaction (<0 disables)")
		threads    = flag.Int("threads", 0, "compression parallelism (0 = GOMAXPROCS)")
		notify     = flag.String("notify", "", "comma-separated btrserved/btrrouted base URLs to send cache invalidations to")
		verbose    = flag.Bool("v", false, "log requests and flushes to stderr")
		smokeTest  = flag.Bool("smoke", false, "self-test: append, kill -9 a child mid-append, restart, verify no acked row lost")
	)
	flag.Parse()

	if *smokeTest {
		smoke.Exit("btringest", runSmoke())
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "btringest: -dir is required (or -smoke)")
		os.Exit(2)
	}

	logger := slog.New(slog.DiscardHandler)
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	cfg := ingest.Config{
		Dir:              *dir,
		WALDir:           *walDir,
		ChunkRows:        *chunkRows,
		FlushInterval:    *flushIvl,
		CompactInterval:  *compactIvl,
		CompactMinChunks: *compactMin,
		Options:          &btrblocks.Options{Parallelism: *threads},
		Logger:           logger,
		Spans:            kit.Spans("btringest", logger),
	}
	if *notify != "" {
		cfg.Invalidator = newRemoteInvalidator(*notify, logger)
	}
	if err := serve(cfg, &kit); err != nil {
		fmt.Fprintln(os.Stderr, "btringest:", err)
		os.Exit(1)
	}
}

// remoteInvalidator pushes invalidations to one or more btrserved (or
// btrrouted) instances over HTTP — a replicated cluster needs every
// replica's cache dropped, not just one. Failures are logged, not
// fatal: the store directory is the truth, and a restarted btrserved
// reloads it anyway.
type remoteInvalidator struct {
	cls []*blockstore.Client
	log *slog.Logger
}

// newRemoteInvalidator builds an invalidator from a comma-separated
// endpoint list (empty entries are skipped).
func newRemoteInvalidator(endpoints string, log *slog.Logger) *remoteInvalidator {
	ri := &remoteInvalidator{log: log}
	for _, ep := range serverkit.List(endpoints) {
		ri.cls = append(ri.cls, blockstore.NewClient(ep))
	}
	return ri
}

func (ri *remoteInvalidator) Invalidate(name string) {
	ri.InvalidateContext(context.Background(), name)
}

// InvalidateContext carries the publishing trace across the process
// boundary: blockstore.Client injects the context's traceparent and
// request ID, so the btrserved side of each invalidation shows up in
// the same trace as the append that caused it. Endpoints are notified
// concurrently; one slow or dead replica does not delay the others.
func (ri *remoteInvalidator) InvalidateContext(ctx context.Context, name string) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, cl := range ri.cls {
		wg.Add(1)
		go func(cl *blockstore.Client) {
			defer wg.Done()
			if _, err := cl.Invalidate(ctx, name); err != nil {
				ri.log.Warn("invalidate", "endpoint", cl.Endpoint(), "file", name, "err", err.Error())
			}
		}(cl)
	}
	wg.Wait()
}

// serve opens the service and runs it under the shared lifecycle. On
// shutdown — or any failure once the service is open — the service is
// closed, which flushes its buffers and closes the WAL.
func serve(cfg ingest.Config, kit *serverkit.Flags) error {
	svc, err := ingest.Open(cfg)
	if err != nil {
		return err
	}
	m := svc.Metrics()
	p := &serverkit.Process{
		Name:    "btringest",
		Handler: ingest.NewHandler(svc),
		Log:     cfg.Logger,
		Routes:  &m.HTTP,
		Stats: func() []any {
			attrs := []any{
				"appends", m.Appends.Load(),
				"appended_rows", m.AppendedRows.Load(),
				"chunks_published", m.Flushes.Load(),
				"published_bytes", m.PublishedBytes.Load(),
				"compactions", m.Compactions.Load(),
				"invalidations", m.Invalidations.Load(),
			}
			if rec := svc.Spans(); rec.Enabled() {
				st := rec.Stats()
				attrs = append(attrs, "spans_recorded", st.Recorded, "spans_evicted", st.Evicted)
			}
			return attrs
		},
		Ready: func(addr string) { fmt.Printf("btringest: serving %s on http://%s\n", cfg.Dir, addr) },
		Close: func() error {
			if err := svc.Close(); err != nil {
				return err
			}
			fmt.Printf("btringest: shut down: %d appends, %d rows, %d chunks published, %d compactions\n",
				m.Appends.Load(), m.AppendedRows.Load(), m.Flushes.Load(), m.Compactions.Load())
			return nil
		},
	}
	return p.Run(context.Background(), kit)
}

// --- smoke test -----------------------------------------------------

// smokeRows is how many single-row appends the smoke test issues before
// and around the kill.
const smokeRows = 400

// runSmoke is the crash-safety self-test: spawn a child btringest, ack
// appends over HTTP, SIGKILL the child mid-append, restart it, and
// verify that after replay every acknowledged row is present exactly
// once in the published chunks (and that at most the one unacked
// in-flight batch rode along). Published files must also pass
// btrblocks.Verify.
func runSmoke() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "btringest-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")

	// Phase 1: start the child and append until roughly half the rows are
	// acked, then SIGKILL it while appends are in flight.
	child, base, err := startChild(self, store, filepath.Join(dir, "addr1"))
	if err != nil {
		return err
	}
	defer child.Process.Kill()

	acked := make(map[int64]bool)
	var inFlight []int64
	killAt := smokeRows / 2
	for v := int64(1); v <= smokeRows; v++ {
		line := fmt.Sprintf("events v=%di,shard=%di", v, v%7)
		if len(acked) < killAt {
			if err := appendLine(base, line); err != nil {
				return fmt.Errorf("append before kill: %v", err)
			}
			acked[v] = true
			continue
		}
		// Mid-append kill: issue the next append and SIGKILL the child
		// while the request is in flight. The row may land anywhere between
		// "never written" and "durable but unacknowledged" — recovery must
		// keep every acked row and at most this one extra.
		inFlight = append(inFlight, v)
		done := make(chan error, 1)
		go func() { done <- appendLine(base, line) }()
		time.Sleep(time.Millisecond)
		if err := child.Process.Kill(); err != nil {
			return fmt.Errorf("kill child: %v", err)
		}
		child.Wait()
		if err := <-done; err == nil {
			// The ack beat the kill: the row is simply acked.
			acked[v] = true
			inFlight = inFlight[:0]
		}
		break
	}
	if len(acked) == 0 {
		return fmt.Errorf("no appends were acknowledged before the kill")
	}

	// Phase 2: restart over the same directory; the WAL replays every
	// acked row, then a flush publishes everything.
	child2, base2, err := startChild(self, store, filepath.Join(dir, "addr2"))
	if err != nil {
		return fmt.Errorf("restart: %v", err)
	}
	defer func() {
		child2.Process.Signal(syscall.SIGTERM)
		child2.Wait()
	}()
	if err := httpPost(base2+"/v1/flush", ""); err != nil {
		return fmt.Errorf("flush after restart: %v", err)
	}

	// Phase 3: decode the published chunks straight from disk and check
	// the multiset: every acked value exactly once; extras only from the
	// single in-flight batch.
	got, err := publishedValues(filepath.Join(store, "events"))
	if err != nil {
		return err
	}
	for v := range acked {
		if got[v] != 1 {
			return fmt.Errorf("acked row v=%d appears %d times after recovery (want 1)", v, got[v])
		}
	}
	allowed := make(map[int64]bool, len(inFlight))
	for _, v := range inFlight {
		allowed[v] = true
	}
	for v, n := range got {
		if n > 1 {
			return fmt.Errorf("row v=%d appears %d times (duplicate)", v, n)
		}
		if !acked[v] && !allowed[v] {
			return fmt.Errorf("row v=%d was never sent but is published", v)
		}
	}
	fmt.Printf("smoke: killed child after %d acked appends; recovery republished all of them (%d rows total, %d unacked in-flight allowed)\n",
		len(acked), len(got), len(inFlight))

	// Phase 4: cross-process trace continuity — one trace ID must follow
	// an append through WAL, flush, compress, publish, and the remote
	// invalidation into a second server's span store.
	return smokeSpans(self)
}

// smokeSpans proves end-to-end tracing across the process boundary: the
// harness (playing btrserved) runs a span-recording blockstore server,
// spawns a child btringest notifying it, and sends one traced append
// big enough to trigger a threshold flush. The trace ID minted here
// must then be retrievable from BOTH processes' span stores with
// parent/child links intact.
func smokeSpans(self string) error {
	dir, err := os.MkdirTemp("", "btringest-spans-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return err
	}

	// The harness side of the lake: a blockstore server over the same
	// directory, recording spans, as btrserved would run it. Seed one
	// column file so the store has something to serve before the child
	// publishes (it refuses an empty directory).
	seed, err := btrblocks.CompressColumn(btrblocks.Column{
		Name: "seed", Type: btrblocks.TypeInt, Ints: []int32{1, 2, 3},
	}, nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(store, "seed.btr"), seed, 0o644); err != nil {
		return err
	}
	bs, err := blockstore.Open(store, blockstore.Config{})
	if err != nil {
		return err
	}
	defer bs.Close()
	served := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved"})
	base1, stop1, err := smoke.Serve(blockstore.NewServer(bs, blockstore.WithSpans(served)))
	if err != nil {
		return err
	}
	defer stop1()

	// A second serving endpoint over the same directory — the child is
	// given both as a comma-separated -notify list, as it would be in
	// front of a replicated cluster, and the trace must reach both.
	served2 := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved"})
	base2, stop2, err := smoke.Serve(blockstore.NewServer(bs, blockstore.WithSpans(served2)))
	if err != nil {
		return err
	}
	defer stop2()

	child, base, err := startChild(self, store, filepath.Join(dir, "addr"), "-notify", base1+","+base2)
	if err != nil {
		return err
	}
	defer func() {
		child.Process.Signal(syscall.SIGTERM)
		child.Wait()
	}()

	// One traced append crossing the flush threshold (64 rows per
	// startChild), so the WAL write, the async flush, and the remote
	// invalidation all hang off this root span.
	local := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "smoke"})
	ctx, root := local.StartRoot(context.Background(), "smoke.append")
	traceID := root.TraceID().String()
	var lines strings.Builder
	for v := 0; v < 80; v++ {
		fmt.Fprintf(&lines, "traced v=%di\n", v)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/write", strings.NewReader(lines.String()))
	if err != nil {
		return err
	}
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	root.End()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("traced append: %s", resp.Status)
	}

	// The flush is asynchronous; poll the child's span store until the
	// trace contains its flush span, which ends after every span under
	// it (the invalidation, the last step of publication, included).
	cl := blockstore.NewClient(base)
	var ingestSet *obs.SpanSet
	deadline := time.Now().Add(10 * time.Second)
	for {
		ss, err := cl.Spans(context.Background(), traceID, 0)
		if err != nil {
			return fmt.Errorf("child /v1/spans: %v", err)
		}
		if hasSpan(ss, "ingest.flush") {
			ingestSet = ss
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trace %s never finished its flush in the child (have %d spans)", traceID, len(ss.Spans))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := ingestSet.Validate(); err != nil {
		return fmt.Errorf("child span set: %v", err)
	}
	byID := make(map[string]obs.SpanRecord, len(ingestSet.Spans))
	for _, s := range ingestSet.Spans {
		if s.TraceID != traceID {
			return fmt.Errorf("child returned span from trace %s, asked for %s", s.TraceID, traceID)
		}
		byID[s.SpanID] = s
	}
	var serverRoot *obs.SpanRecord
	for i, s := range ingestSet.Spans {
		if s.Name == "btringest/v1/write" {
			serverRoot = &ingestSet.Spans[i]
		}
	}
	if serverRoot == nil {
		return fmt.Errorf("child recorded no btringest/v1/write span for trace %s", traceID)
	}
	if serverRoot.ParentID != root.SpanID().String() {
		return fmt.Errorf("child server span parent %s, want the harness root %s", serverRoot.ParentID, root.SpanID())
	}
	for _, name := range []string{"wal.append", "wal.sync", "ingest.flush", "compress.cascade", "publish.atomic", "invalidate"} {
		if !hasSpan(ingestSet, name) {
			return fmt.Errorf("trace %s is missing a %s span in the child", traceID, name)
		}
	}

	// The same trace ID must appear in the harness server's span store,
	// parented under the child's invalidate span.
	servedSet := served.Snapshot(obs.SpanFilter{TraceID: traceID})
	if err := servedSet.Validate(); err != nil {
		return fmt.Errorf("served span set: %v", err)
	}
	crossed := false
	for _, s := range servedSet.Spans {
		if strings.HasPrefix(s.Name, "btrserved/v1/invalidate") {
			parent, ok := byID[s.ParentID]
			if !ok || parent.Name != "invalidate" {
				return fmt.Errorf("served invalidate span parent %s does not resolve to the child's invalidate span", s.ParentID)
			}
			crossed = true
		}
	}
	if !crossed {
		return fmt.Errorf("trace %s never reached the serving process", traceID)
	}
	// The comma-separated notify list fanned the same traced
	// invalidation out to the second endpoint too.
	served2Set := served2.Snapshot(obs.SpanFilter{TraceID: traceID})
	crossed2 := false
	for _, s := range served2Set.Spans {
		if strings.HasPrefix(s.Name, "btrserved/v1/invalidate") {
			crossed2 = true
		}
	}
	if !crossed2 {
		return fmt.Errorf("trace %s never reached the second -notify endpoint", traceID)
	}
	fmt.Printf("smoke spans: trace %s crossed processes: %d ingest spans, %d+%d served spans across two notify endpoints\n",
		traceID, len(ingestSet.Spans), len(servedSet.Spans), len(served2Set.Spans))
	return nil
}

func hasSpan(ss *obs.SpanSet, name string) bool {
	return slices.ContainsFunc(ss.Spans, func(s obs.SpanRecord) bool { return s.Name == name })
}

// startChild spawns `self -dir store` with small chunks and short
// flush and compaction periods (forcing several publishes), plus any
// extra flags, and waits until it serves.
func startChild(self, store, addrFile string, extra ...string) (*exec.Cmd, string, error) {
	return smoke.StartChild(self, addrFile, append([]string{
		"-dir", store,
		"-chunk-rows", "64",
		"-flush-interval", "100ms",
		"-compact-interval", "200ms",
		"-compact-min-chunks", "3",
	}, extra...)...)
}

func appendLine(base, line string) error { return httpPost(base+"/v1/write", line) }

// httpPost posts body and fails on a non-2xx reply.
func httpPost(url, body string) error {
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return nil
}

// publishedValues decodes every committed chunk of the smoke table and
// returns the multiset of values in its "v" column, verifying each
// column file's integrity along the way.
func publishedValues(tableDir string) (map[int64]int, error) {
	entries, err := os.ReadDir(tableDir)
	if err != nil {
		return nil, fmt.Errorf("read table dir: %v", err)
	}
	var markers []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".commit") {
			markers = append(markers, e.Name())
		}
	}
	sort.Strings(markers)
	if len(markers) == 0 {
		return nil, fmt.Errorf("no committed chunks under %s", tableDir)
	}
	got := make(map[int64]int)
	for _, m := range markers {
		data, err := os.ReadFile(filepath.Join(tableDir, m))
		if err != nil {
			return nil, err
		}
		var marker struct {
			Columns []struct {
				Name string `json:"name"`
				File string `json:"file"`
			} `json:"columns"`
		}
		if err := json.Unmarshal(data, &marker); err != nil {
			return nil, fmt.Errorf("%s: %v", m, err)
		}
		for _, c := range marker.Columns {
			if c.Name != "v" {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(tableDir, c.File))
			if err != nil {
				return nil, err
			}
			if rep := btrblocks.Verify(raw, nil); !rep.OK {
				return nil, fmt.Errorf("%s: published file fails verification: %s",
					c.File, strings.Join(rep.Errors, "; "))
			}
			col, err := btrblocks.DecompressColumn(raw, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", c.File, err)
			}
			for _, v := range col.Ints64 {
				got[v]++
			}
		}
	}
	return got, nil
}
