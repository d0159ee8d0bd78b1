package blockstore

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"btrblocks/internal/obs"
)

// raceBuild is set under the race detector, whose runtime allocates.
var raceBuild bool

// TestBlockHitAllocs pins what one cached GET /v1/block?format=binary
// allocates through the server's middleware, bare and as btrserved ships
// (request log formatted, every trace recorded).
func TestBlockHitAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime changes allocation counts")
	}
	contents, _ := testCorpus(t)
	store, err := NewStore(contents, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	for _, tc := range []struct {
		name string
		srv  *Server
		max  float64
	}{
		{"bare", NewServer(store), 27},
		{"shipped", NewServer(store,
			WithLogger(obs.NewLogger(io.Discard, slog.LevelInfo)),
			WithSpans(obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrserved"}))), 57},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/block?format=binary&file=t/i.btr&block=1", nil)
		w := &discardResponse{h: http.Header{}}
		tc.srv.ServeHTTP(w, req) // warm the cache
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			tc.srv.ServeHTTP(w, req)
		})
		t.Logf("%s: %v allocs per cached binary block", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per cached binary block; want <= %v", tc.name, allocs, tc.max)
		}
	}
}
