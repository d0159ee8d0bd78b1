package ingest

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	svc, err := Open(quietConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv, dir
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

func TestHTTPAppendJSONAndFlush(t *testing.T) {
	_, srv, dir := newTestServer(t)

	code, body := post(t, srv.URL+"/v1/append",
		`{"table":"m","rows":[{"v":1,"tag":"a"},{"v":2,"tag":"b"},{"v":3}]}`)
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}
	var res appendResult
	if err := json.Unmarshal([]byte(body), &res); err != nil || res.Rows != 3 || res.Seq == 0 {
		t.Fatalf("append response: %s", body)
	}

	code, body = post(t, srv.URL+"/v1/flush/m", "")
	if code != http.StatusOK {
		t.Fatalf("flush: %d %s", code, body)
	}
	got := tableValues(t, dir, "m")
	// Missing "tag" in the third row becomes NULL.
	want := map[string]int{"a|1": 1, "b|2": 1, "NULL|3": 1}
	diffMultiset(t, want, got)
}

func TestHTTPLineProtocol(t *testing.T) {
	_, srv, dir := newTestServer(t)
	lines := "cpu v=1i,host=\"a\"\ncpu v=2i,host=\"b\"\n\n# comment\ncpu v=3i,host=\"a\"\n"
	code, body := post(t, srv.URL+"/v1/write", lines)
	if code != http.StatusOK {
		t.Fatalf("write: %d %s", code, body)
	}
	if code, body = post(t, srv.URL+"/v1/flush", ""); code != http.StatusOK {
		t.Fatalf("flush: %d %s", code, body)
	}
	want := map[string]int{"a|1": 1, "b|2": 1, "a|3": 1}
	diffMultiset(t, want, tableValues(t, dir, "cpu"))
}

func TestHTTPCreateTableAndStats(t *testing.T) {
	_, srv, _ := newTestServer(t)
	code, body := post(t, srv.URL+"/v1/tables",
		`{"table":"t","columns":[{"name":"v","type":"int64"},{"name":"s","type":"string"}]}`)
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	// Appends must now conform to the declared schema.
	code, body = post(t, srv.URL+"/v1/append", `{"table":"t","rows":[{"v":1,"s":"x"}]}`)
	if code != http.StatusOK {
		t.Fatalf("conforming append: %d %s", code, body)
	}
	code, body = post(t, srv.URL+"/v1/append", `{"table":"t","rows":[{"v":1,"other":2}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("nonconforming append: %d %s (want 400)", code, body)
	}

	code, body = get(t, srv.URL+"/v1/stats")
	if code != http.StatusOK || !strings.Contains(body, `"buffered_rows":1`) {
		t.Fatalf("stats: %d %s", code, body)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	_, srv, _ := newTestServer(t)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/v1/append", `{"table":`, http.StatusBadRequest},
		{"empty rows", "/v1/append", `{"table":"t","rows":[]}`, http.StatusBadRequest},
		{"bad table name", "/v1/append", `{"table":"../evil","rows":[{"v":1}]}`, http.StatusBadRequest},
		{"bad column name", "/v1/append", `{"table":"t","rows":[{"a b":1}]}`, http.StatusBadRequest},
		{"unknown flush table", "/v1/flush/nosuch", ``, http.StatusNotFound},
		{"bad line protocol", "/v1/write", `cpu v=`, http.StatusBadRequest},
		{"empty write", "/v1/write", "\n\n", http.StatusBadRequest},
		{"bad create type", "/v1/tables", `{"table":"t","columns":[{"name":"v","type":"blob"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, srv.URL+tc.path, tc.body)
			if code != tc.want {
				t.Fatalf("%s: %d %s (want %d)", tc.path, code, body, tc.want)
			}
			if !strings.Contains(body, `"error"`) {
				t.Fatalf("error body missing: %s", body)
			}
		})
	}
	// Wrong method on a POST-only route.
	code, _ := get(t, srv.URL+"/v1/append")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/append: %d, want 405", code)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	_, srv, _ := newTestServer(t)
	if code, body := get(t, srv.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	post(t, srv.URL+"/v1/append", `{"table":"t","rows":[{"v":1}]}`)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"btringest_appends_total 1",
		"btringest_wal_records_total 1",
		`btringest_http_requests_total{route="/v1/append"} 1`,
		"btringest_append_duration_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestHandlerLogsRequests: with a logger configured (btringest -v), every
// request leaves one "request" record carrying its ID, route and status.
func TestHandlerLogsRequests(t *testing.T) {
	var logs strings.Builder
	cfg := quietConfig(t.TempDir())
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/flush/nosuch", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, req)
	if rec.Header().Get("X-Request-ID") != "caller-7" {
		t.Fatalf("request ID not echoed: %q", rec.Header().Get("X-Request-ID"))
	}
	for _, want := range []string{"msg=request", "request_id=caller-7", "route=/v1/flush", "status=404"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("request log missing %s:\n%s", want, logs.String())
		}
	}
}
