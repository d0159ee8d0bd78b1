package ingest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/obs"
)

// clientInvalidator is what cmd/btringest wires for -notify: a
// blockstore client pushing invalidations, carrying the publishing
// trace across the process boundary via InvalidateContext.
type clientInvalidator struct{ cl *blockstore.Client }

func (ci clientInvalidator) Invalidate(name string) {
	ci.InvalidateContext(context.Background(), name)
}

func (ci clientInvalidator) InvalidateContext(ctx context.Context, name string) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	ci.cl.Invalidate(ctx, name)
}

func spanNames(ss *obs.SpanSet) map[string]obs.SpanRecord {
	out := make(map[string]obs.SpanRecord, len(ss.Spans))
	for _, s := range ss.Spans {
		out[s.Name] = s
	}
	return out
}

func attrVal(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTracePropagatesAcrossServers follows one trace ID end to end
// through two HTTP servers: a traced append into the ingest service
// triggers a threshold flush whose WAL write, cascade compression,
// atomic publication, and remote invalidation all join the trace; the
// invalidation crosses into a blockstore server which records its side
// under the same trace ID; finally a scan against the published file
// extends the same trace on the serving side. Both servers' /v1/spans
// must return the trace with parent/child links intact, and the
// X-Request-ID sent with the append must ride along.
func TestTracePropagatesAcrossServers(t *testing.T) {
	dir := t.TempDir()

	// Serving side: a blockstore server over the ingest target directory
	// (seeded, because an empty store refuses to open).
	seed, err := btrblocks.CompressColumn(btrblocks.Column{
		Name: "seed", Type: btrblocks.TypeInt, Ints: []int32{1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seed.btr"), seed, 0o644); err != nil {
		t.Fatal(err)
	}
	bs, err := blockstore.Open(dir, blockstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	servedRec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved"})
	serveSrv := httptest.NewServer(blockstore.NewServer(bs, blockstore.WithSpans(servedRec)))
	defer serveSrv.Close()
	serveCl := blockstore.NewClient(serveSrv.URL)

	// Ingest side: span-recording service notifying the serving side.
	ingestRec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btringest"})
	svc, err := Open(Config{
		Dir:              dir,
		ChunkRows:        64,
		FlushInterval:    -1, // only the traced threshold flush may publish
		CompactMinChunks: -1,
		Invalidator:      clientInvalidator{cl: serveCl},
		Spans:            ingestRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ingestSrv := httptest.NewServer(NewHandler(svc))
	defer ingestSrv.Close()
	ingestCl := blockstore.NewClient(ingestSrv.URL)

	// The traced append: one request, 80 rows, crossing the 64-row flush
	// threshold so publication happens under this trace.
	local := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "client"})
	ctx, root := local.StartRoot(context.Background(), "client.append")
	ctx = obs.WithRequestID(ctx, "req-propagation-1")
	var body strings.Builder
	for i := 0; i < 80; i++ {
		body.WriteString("traced v=")
		body.WriteString(strings.Repeat("1", 1+i%3))
		body.WriteString("i\n")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ingestSrv.URL+"/v1/write", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %s", resp.Status)
	}
	root.End()
	traceID := root.TraceID().String()

	// The flush is asynchronous: wait until the trace's flush span lands
	// in the ingest recorder. It ends after every span under it, the
	// invalidation included, so waiting for the invalidate span alone
	// can observe the trace before the flush span is recorded.
	var ingestSet *obs.SpanSet
	deadline := time.Now().Add(10 * time.Second)
	for {
		ss, err := ingestCl.Spans(context.Background(), traceID, 0)
		if err != nil {
			t.Fatalf("ingest /v1/spans: %v", err)
		}
		if _, ok := spanNames(ss)["ingest.flush"]; ok {
			ingestSet = ss
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached invalidation (have %d spans)", traceID, len(ss.Spans))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := ingestSet.Validate(); err != nil {
		t.Fatalf("ingest span set: %v", err)
	}
	ingestByName := spanNames(ingestSet)
	for _, name := range []string{"btringest/v1/write", "wal.append", "wal.sync", "ingest.flush", "compress.cascade", "publish.atomic", "invalidate"} {
		s, ok := ingestByName[name]
		if !ok {
			t.Fatalf("ingest trace missing span %q", name)
		}
		if s.TraceID != traceID {
			t.Fatalf("span %q in trace %s, want %s", name, s.TraceID, traceID)
		}
	}
	serverRoot := ingestByName["btringest/v1/write"]
	if serverRoot.ParentID != root.SpanID().String() {
		t.Fatalf("ingest server span parent = %s, want client root %s", serverRoot.ParentID, root.SpanID())
	}
	if got := attrVal(serverRoot, "request_id"); got != "req-propagation-1" {
		t.Fatalf("ingest server span request_id = %q, want the inbound header", got)
	}

	// A scan of the just-published file, traced under the same trace.
	var published string
	files, err := serveCl.Files(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name, "traced/") && strings.HasSuffix(f.Name, ".btr") {
			published = f.Name
		}
	}
	if published == "" {
		t.Fatal("no published file visible on the serving side")
	}
	sctx, scan := obs.StartChild(obs.ContextWithSpan(context.Background(), root), "client.scan")
	if _, err := serveCl.Block(sctx, published, 0); err != nil {
		t.Fatalf("scan %s: %v", published, err)
	}
	scan.End()

	// The serving side must hold the same trace: the invalidation parented
	// under the ingest side's invalidate span, and the scan under our
	// client span — one trace ID across both servers.
	servedSet, err := serveCl.Spans(context.Background(), traceID, 0)
	if err != nil {
		t.Fatalf("served /v1/spans: %v", err)
	}
	if err := servedSet.Validate(); err != nil {
		t.Fatalf("served span set: %v", err)
	}
	ingestByID := make(map[string]obs.SpanRecord, len(ingestSet.Spans))
	for _, s := range ingestSet.Spans {
		ingestByID[s.SpanID] = s
	}
	var sawInvalidate, sawScan bool
	for _, s := range servedSet.Spans {
		if s.TraceID != traceID {
			t.Fatalf("served span %q in trace %s, want %s", s.Name, s.TraceID, traceID)
		}
		if strings.HasPrefix(s.Name, "btrserved/v1/invalidate") {
			parent, ok := ingestByID[s.ParentID]
			if !ok || parent.Name != "invalidate" {
				t.Fatalf("served invalidate parent %s does not resolve to the ingest invalidate span", s.ParentID)
			}
			if got := attrVal(s, "request_id"); got != "req-propagation-1" {
				t.Fatalf("served invalidate request_id = %q, want the append's", got)
			}
			sawInvalidate = true
		}
		if s.Name == "btrserved/v1/block" && s.ParentID == scan.SpanID().String() {
			sawScan = true
		}
	}
	if !sawInvalidate {
		t.Fatalf("trace %s never crossed into the serving process", traceID)
	}
	if !sawScan {
		t.Fatalf("scan of %s did not join trace %s on the serving side", published, traceID)
	}
}
