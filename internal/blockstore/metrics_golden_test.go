package blockstore

import (
	"context"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"btrblocks/internal/obs"
)

// TestMetricsGolden pins btrserved's /metrics exposition byte for byte:
// every counter holds a value derived from its name, every histogram
// holds the same fixed durations, the span recorder holds a fixed
// history, and the body the handler serves must equal
// testdata/metrics_btrserved.golden. UPDATE_GOLDEN=1 rewrites the file.
func TestMetricsGolden(t *testing.T) {
	contents, _ := testCorpus(t)
	store, err := NewStore(contents, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	spans := goldenSpans()
	srv := NewServer(store, WithSpans(spans))
	m := store.Metrics()
	fillGolden(reflect.ValueOf(m).Elem())
	for _, route := range []string{"/v1/block", "/v1/files", "/v1/query", "/healthz"} {
		m.HTTP.Requests.At(route).Store(goldenValue(route))
		m.HTTP.Errors.At(route).Store(goldenValue(route) % 7)
		observeGolden(m.HTTP.Latency.At(route))
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	checkGolden(t, "testdata/metrics_btrserved.golden", rec.Body.Bytes())
}

// goldenValue is a counter value derived from a series' name, so the
// golden does not depend on the order fields are declared in.
func goldenValue(name string) int64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int64(h.Sum32()%100000) + 1
}

// observeGolden records the fixed duration set every golden histogram
// holds: one per decade from 1µs to 10s.
func observeGolden(h *obs.Histogram) {
	for d := time.Microsecond; d <= 10*time.Second; d *= 10 {
		h.Observe(d)
	}
}

// fillGolden gives every exported counter and histogram of a metrics
// struct its golden contents. The in-flight gauge is left to the scrape
// itself, which is the one request in flight.
func fillGolden(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || f.Name == "InFlight" {
			continue
		}
		switch p := v.Field(i).Addr().Interface().(type) {
		case *atomic.Int64:
			p.Store(goldenValue(f.Name))
		case *obs.Histogram:
			observeGolden(p)
		case *obs.HistogramGroup:
			for _, l := range []string{"n1", "n2"} {
				observeGolden(p.At(l))
			}
		case *obs.CounterGroup:
			for _, l := range []string{"n1", "n2"} {
				p.At(l).Store(goldenValue(f.Name + l))
			}
		}
	}
}

// goldenSpans returns a recorder holding a fixed history: ten root
// spans, half head-sampled out, into a ring of four.
func goldenSpans() *obs.SpanRecorder {
	rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Capacity: 4, SampleEvery: 2})
	for i := 0; i < 10; i++ {
		_, s := rec.StartRoot(context.Background(), "golden")
		s.End()
	}
	return rec
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("/metrics differs from %s (UPDATE_GOLDEN=1 rewrites it):\n%s", path, got)
	}
}
