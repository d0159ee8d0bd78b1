package ingest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"btrblocks/internal/obs"
)

// raceBuild is set under the race detector, whose runtime allocates.
var raceBuild bool

// TestAppendAllocs pins what one small POST /v1/append allocates end to
// end through the handler — middleware, decode, WAL and ack — bare and
// with every trace recorded.
func TestAppendAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime changes allocation counts")
	}
	for _, tc := range []struct {
		name  string
		spans *obs.SpanRecorder
		max   float64
	}{
		{"bare", nil, 55},
		{"traced", obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btringest"}), 85},
	} {
		cfg := quietConfig(t.TempDir())
		cfg.Spans = tc.spans
		svc, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHandler(svc)
		const body = `{"table":"t","rows":[{"v":1,"s":"x"},{"v":2,"s":"y"}]}`
		rd := strings.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/append", io.NopCloser(rd))
		w := &discardResponse{h: http.Header{}}
		post := func() {
			rd.Reset(body)
			clear(w.h)
			w.status = 0
			h.ServeHTTP(w, req)
		}
		post() // create the table
		allocs := testing.AllocsPerRun(200, post)
		svc.Close()
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("%s: append answered %d", tc.name, w.status)
		}
		t.Logf("%s: %v allocs per append", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per append; want <= %v", tc.name, allocs, tc.max)
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so what the
// handler itself allocates is all that is measured.
type discardResponse struct {
	h      http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(code int)        { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
