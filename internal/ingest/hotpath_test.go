package ingest

import (
	"fmt"
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
		{"bare", nil, 28},
		{"traced", obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btringest"}), 57},
	} {
		allocs := appendAllocs(t, tc.spans, `{"table":"t","rows":[{"v":1,"s":"x"},{"v":2,"s":"y"}]}`)
		t.Logf("%s: %v allocs per append", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per append; want <= %v", tc.name, allocs, tc.max)
		}
	}
}

// TestAppendAllocsIndependentOfRows pins that one append through the
// handler makes as many allocations at 500 rows as at 2, within 4: the
// decoder sizes each slice before it fills it, and nothing is allocated
// per row or per value.
func TestAppendAllocsIndependentOfRows(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime changes allocation counts")
	}
	body := func(rows int) string {
		var b strings.Builder
		b.WriteString(`{"table":"t","rows":[`)
		for r := 0; r < rows; r++ {
			if r > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"v":%d,"d":%d.5,"s":"row-%d"}`, r, r, r%16)
		}
		b.WriteString("]}")
		return b.String()
	}
	two, many := appendAllocs(t, nil, body(2)), appendAllocs(t, nil, body(500))
	t.Logf("%v allocs per append of 2 rows, %v of 500", two, many)
	if many > two+4 || many < two-4 {
		t.Errorf("%v allocs per append of 500 rows against %v of 2; want within 4", many, two)
	}
}

// appendAllocs posts body to a fresh service's /v1/append (once to
// create the table, then 200 times) and returns the allocations of one
// post.
func appendAllocs(t *testing.T, spans *obs.SpanRecorder, body string) float64 {
	t.Helper()
	cfg := quietConfig(t.TempDir())
	cfg.Spans = spans
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := NewHandler(svc)
	rd := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/append", io.NopCloser(rd))
	req.ContentLength = int64(len(body)) // as a client sends it
	w := &discardResponse{h: http.Header{}}
	post := func() {
		rd.Reset(body)
		clear(w.h)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	post() // create the table
	allocs := testing.AllocsPerRun(200, post)
	if w.status != 0 && w.status != http.StatusOK {
		t.Fatalf("append answered %d", w.status)
	}
	return allocs
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
