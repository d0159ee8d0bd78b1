package obs_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"btrblocks"
	"btrblocks/internal/blockstore"
	"btrblocks/internal/cluster"
	"btrblocks/internal/ingest"
	"btrblocks/internal/obs"
)

// server is one of the three servers, wired the way its binary wires it,
// with a request it must answer with an error and one with a wrong
// method.
type server struct {
	name    string
	handler http.Handler
	spans   *obs.SpanRecorder
	routes  *obs.Routes
	// failMethod failPath is answered with a non-2xx status and counted
	// under failRoute.
	failMethod, failPath, failRoute string
	// wrongMethod is a POST to a route that only answers GET.
	wrongMethod string
}

func servers(t *testing.T) []server {
	t.Helper()
	data, err := btrblocks.CompressColumn(btrblocks.IntColumn("c", []int32{1, 2, 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := blockstore.NewStore(map[string][]byte{"c.btr": data}, blockstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	servedSpans := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved"})

	routedSpans := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrrouted"})
	router, err := cluster.NewRouter(cluster.Config{
		Nodes: []string{"n1=http://127.0.0.1:1"}, ProbeInterval: -1, Spans: routedSpans,
	})
	if err != nil {
		t.Fatal(err)
	}

	ingestSpans := obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btringest"})
	svc, err := ingest.Open(ingest.Config{Dir: t.TempDir(), FlushInterval: -1, CompactMinChunks: -1, Spans: ingestSpans})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	return []server{
		{"btrserved", blockstore.NewServer(store, blockstore.WithSpans(servedSpans)), servedSpans, &store.Metrics().HTTP,
			http.MethodGet, "/v1/block?file=nope.btr&block=0", "/v1/block", "/v1/files"},
		{"btrrouted", cluster.NewServer(router, nil), routedSpans, &router.Metrics().HTTP,
			http.MethodGet, "/v1/block?file=c.btr&block=x", "/v1/block", "/v1/files"},
		{"btringest", ingest.NewHandler(svc), ingestSpans, &svc.Metrics().HTTP,
			http.MethodPost, "/v1/flush/nosuch", "/v1/flush", "/metrics"},
	}
}

func serve(h http.Handler, method, target string, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	for k, v := range header {
		req.Header.Set(k, v[0])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServersShareTheMiddleware holds every server to the one request
// contract: an inbound X-Request-ID is echoed and a missing one minted,
// an inbound traceparent is continued by the server span, a non-2xx
// reply counts as an error of its route, and a wrong method is 405.
func TestServersShareTheMiddleware(t *testing.T) {
	const (
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		spanID  = "00f067aa0ba902b7"
	)
	for _, s := range servers(t) {
		t.Run(s.name, func(t *testing.T) {
			rec := serve(s.handler, http.MethodGet, "/healthz", http.Header{obs.RequestIDHeader: {"caller-1"}})
			if rec.Code != http.StatusOK || rec.Header().Get(obs.RequestIDHeader) != "caller-1" {
				t.Fatalf("inbound request ID: status %d, echoed %q", rec.Code, rec.Header().Get(obs.RequestIDHeader))
			}
			minted := serve(s.handler, http.MethodGet, "/healthz", nil).Header().Get(obs.RequestIDHeader)
			if minted == "" || minted == "caller-1" {
				t.Fatalf("minted request ID %q", minted)
			}

			serve(s.handler, http.MethodGet, "/healthz",
				http.Header{"Traceparent": {"00-" + traceID + "-" + spanID + "-01"}})
			continued := false
			for _, sp := range s.spans.Snapshot(obs.SpanFilter{TraceID: traceID}).Spans {
				continued = continued || sp.Name == s.name+"/healthz" && sp.ParentID == spanID
			}
			if !continued {
				t.Fatal("no server span continued the inbound traceparent")
			}

			before := s.routes.Errors.At(s.failRoute).Load()
			if rec := serve(s.handler, s.failMethod, s.failPath, nil); rec.Code/100 == 2 {
				t.Fatalf("%s %s answered %d", s.failMethod, s.failPath, rec.Code)
			}
			if got := s.routes.Errors.At(s.failRoute).Load(); got != before+1 {
				t.Fatalf("errors{route=%q} = %d after a failed request, want %d", s.failRoute, got, before+1)
			}

			if rec := serve(s.handler, http.MethodPost, s.wrongMethod, nil); rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("POST %s answered %d, want 405", s.wrongMethod, rec.Code)
			}
		})
	}
}

// TestMetricCatalogue holds OBSERVABILITY.md to the registries in both
// directions: every series a server emits (span counters included) is
// named there in full, and every btrserved_/btrrouted_/btringest_ series
// named there is emitted by some server.
func TestMetricCatalogue(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	names = append(names, blockstore.NewMetrics().Registry(nil).Names()...)
	names = append(names, cluster.NewMetrics().Registry(nil).Names()...)
	names = append(names, ingest.NewMetrics().Registry(nil).Names()...)
	emitted := make(map[string]bool, len(names))
	for _, n := range names {
		emitted[n] = true
		if !regexp.MustCompile(`(^|[^a-z0-9_])` + n + `($|[^a-z0-9_])`).Match(doc) {
			t.Errorf("%s is emitted but OBSERVABILITY.md does not name it in full", n)
		}
	}
	for _, n := range regexp.MustCompile(`btr(served|routed|ingest)_[a-z0-9_]*[a-z0-9]`).FindAllString(string(doc), -1) {
		family := n
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(n, suffix); ok && emitted[base] {
				family = base
			}
		}
		if !emitted[family] {
			t.Errorf("OBSERVABILITY.md names %s, which no server emits", n)
		}
	}
}
