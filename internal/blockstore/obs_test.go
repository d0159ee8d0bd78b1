package blockstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"btrblocks"
	"btrblocks/internal/obs"
)

// lockedBuffer serializes writes so the log sink itself cannot race;
// corruption, if any, would have to come from the logging path.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServerTraceEndpoint(t *testing.T) {
	_, cl, contents, _ := newTestServer(t, Config{})
	ctx := context.Background()

	for name := range contents {
		tr, err := cl.Trace(ctx, name, -1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ix, err := btrblocks.ParseColumnIndex(contents[name])
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Blocks) != len(ix.Blocks) {
			t.Fatalf("%s: trace has %d blocks, file has %d", name, len(tr.Blocks), len(ix.Blocks))
		}
		// The re-derived winner must match the scheme stored in the file:
		// seeded sampling plus idempotent densification make the
		// re-compression reproduce the original pick.
		for i, bt := range tr.Blocks {
			if bt.Block != i {
				t.Fatalf("%s: trace block %d labeled %d", name, i, bt.Block)
			}
			if got, want := bt.Root.Scheme, ix.Blocks[i].Scheme.String(); got != want {
				t.Errorf("%s block %d: traced winner %s, stored scheme %s", name, i, got, want)
			}
		}
	}

	// Single-block form.
	tr, err := cl.Trace(ctx, "t/i.btr", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks) != 1 || tr.Blocks[0].Block != 1 {
		t.Fatalf("single-block trace: %+v", tr.Blocks)
	}

	// Errors: absent file is 404, non-column and bad block are 4xx.
	if _, err := cl.Trace(ctx, "nope.btr", -1); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("missing file: %v", err)
	}
	if _, err := cl.Trace(ctx, "t/i.btr", 99); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

// TestStoreTraceCancelled checks that a trace stops with its caller: a
// cancelled context returns context.Canceled before any block is decoded
// for re-compression.
func TestStoreTraceCancelled(t *testing.T) {
	contents, _ := testCorpus(t)
	store, err := NewStore(contents, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := store.Trace(ctx, "t/i.btr", -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled trace: err = %v, want context.Canceled", err)
	}
	if got := store.Metrics().Cache().DecodedBlocks; got != 0 {
		t.Fatalf("cancelled trace decoded %d blocks", got)
	}
}

// TestServerParallelScansWithLogging is the serving-side race satellite:
// concurrent scans and trace requests against a server with slog request
// logging enabled must leave a log in which every line is independently
// parseable JSON carrying a request ID (run under -race in CI tier 2).
func TestServerParallelScansWithLogging(t *testing.T) {
	contents, _ := testCorpus(t)
	store, err := NewStore(contents, Config{PrefetchBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	sink := &lockedBuffer{}
	logger := obs.NewLogger(sink, slog.LevelInfo)
	srv := httptest.NewServer(NewServer(store, WithLogger(logger)))
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)
	ctx := context.Background()

	names := make([]string, 0, len(contents))
	for name := range contents {
		names = append(names, name)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w%len(names)]
			if _, _, err := cl.ScanColumn(ctx, name, 3); err != nil {
				t.Error(err)
			}
			if _, err := cl.Trace(ctx, name, 0); err != nil {
				t.Error(err)
			}
			if _, err := cl.MetricsText(ctx); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	lines := 0
	sc := bufio.NewScanner(strings.NewReader(sink.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("corrupt log line: %v\n%s", err, line)
		}
		if rec["msg"] == "request" {
			if rid, _ := rec["request_id"].(string); rid == "" {
				t.Fatalf("request log without request_id: %s", line)
			}
			if _, ok := rec["duration_us"]; !ok {
				t.Fatalf("request log without duration: %s", line)
			}
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no request logs produced")
	}

	// The shared histograms behind those requests render as Prometheus
	// bucket series.
	metrics, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`btrserved_http_request_duration_seconds_bucket{route="/v1/block",le="+Inf"}`,
		`btrserved_http_request_duration_seconds_sum{route="/v1/block"}`,
		`btrserved_http_request_duration_seconds_count{route="/v1/block"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestRequestIDEchoAndPropagation checks the middleware contract: a
// client-sent X-Request-ID is preserved, a missing one is minted, and
// the header always comes back.
func TestRequestIDEchoAndPropagation(t *testing.T) {
	contents, _ := testCorpus(t)
	store, err := NewStore(contents, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-1" {
		t.Fatalf("supplied request ID not echoed: %q", got)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		t.Fatal("no request ID minted")
	}
}

// TestTelemetryEndpointsSection checks that /metrics carries the
// per-route request counter and latency histogram of a route that
// served traffic.
func TestTelemetryEndpointsSection(t *testing.T) {
	_, cl, _, _ := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := cl.Files(ctx); err != nil {
		t.Fatal(err)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`btrserved_http_requests_total{route="/v1/files"}`,
		`btrserved_http_request_duration_seconds_count{route="/v1/files"}`,
	} {
		if n := metricValue(t, text, series); n < 1 {
			t.Errorf("%s = %v, want >= 1", series, n)
		}
	}
}

// metricValue returns the value of one series of a Prometheus text
// exposition, failing t when the series is absent.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}
