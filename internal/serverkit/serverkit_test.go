package serverkit

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"btrblocks/internal/obs"
)

// lockedBuffer is a log sink safe for the server's goroutines.
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

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// An -addr-file that cannot be written fails the run, and on the way out
// the listener is released and the service closed: a server that opened
// a WAL and a flusher must not leak them when its handshake fails.
func TestRunAddrFileFailureReleasesEverything(t *testing.T) {
	addr := freeAddr(t)
	closed := 0
	p := &Process{
		Name:    "test",
		Handler: http.NotFoundHandler(),
		Log:     obs.NewLogger(io.Discard, slog.LevelInfo),
		Close:   func() error { closed++; return nil },
	}
	f := &Flags{Addr: addr, AddrFile: filepath.Join(t.TempDir(), "missing", "addr")}
	if err := p.Run(context.Background(), f); err == nil {
		t.Fatal("run with an unwritable addr file succeeded")
	}
	if closed != 1 {
		t.Fatalf("Close ran %d times, want 1", closed)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener still held after the failed run: %v", err)
	}
	ln.Close()
}

// A run publishes its address, serves until its context ends, drains,
// closes the service, and logs a summary with the service's stats and
// one line per route.
func TestRunLifecycle(t *testing.T) {
	var routes obs.Routes
	mux := obs.NewMux("test", &routes, &obs.Registry{}, nil, nil)
	mux.Handle("GET /v1/thing", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "thing") })
	logs := &lockedBuffer{}
	closed := make(chan struct{})
	var ready string
	p := &Process{
		Name:    "test",
		Handler: mux,
		Log:     obs.NewLogger(logs, slog.LevelInfo),
		Routes:  &routes,
		Stats:   func() []any { return []any{"widgets", 7} },
		Ready:   func(addr string) { ready = addr },
		Close:   func() error { close(closed); return nil },
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx, &Flags{Addr: "127.0.0.1:0", AddrFile: addrFile}) }()

	var base string
	for deadline := time.Now().Add(5 * time.Second); base == ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no address published")
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			base = "http://" + strings.TrimSpace(string(data))
		}
	}
	resp, err := http.Get(base + "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "thing" {
		t.Fatalf("served %q", body)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	select {
	case <-closed:
	default:
		t.Fatal("Close did not run")
	}
	if "http://"+ready != base {
		t.Fatalf("Ready got %q, address file says %q", ready, base)
	}
	log := logs.String()
	for _, want := range []string{`"msg":"listening"`, `"msg":"shutting down"`, `"msg":"summary"`, `"widgets":7`,
		`"msg":"summary endpoint","route":"/v1/thing","requests":1`} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %s:\n%s", want, log)
		}
	}
}

// The debug handler serves pprof and the process's expvar section, and
// a second handler for the same name repoints the section instead of
// panicking in expvar.Publish.
func TestDebugHandlerPublishesOnce(t *testing.T) {
	get := func(h http.Handler, path string) string {
		t.Helper()
		rec := &recorder{header: http.Header{}}
		req, _ := http.NewRequest(http.MethodGet, path, nil)
		h.ServeHTTP(rec, req)
		if rec.status != 0 && rec.status != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.status)
		}
		return rec.body.String()
	}
	first := DebugHandler("serverkit_test", func() any { return "first" })
	if !strings.Contains(get(first, "/debug/vars"), `"serverkit_test": "first"`) {
		t.Fatal("section missing from /debug/vars")
	}
	second := DebugHandler("serverkit_test", func() any { return "second" })
	if !strings.Contains(get(second, "/debug/vars"), `"serverkit_test": "second"`) {
		t.Fatal("second handler did not repoint the section")
	}
	if !strings.Contains(get(second, "/debug/pprof/"), "goroutine") {
		t.Fatal("pprof index missing")
	}
}

type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func TestList(t *testing.T) {
	got := List(" n1=http://a:1, ,n2=http://b:2,")
	if len(got) != 2 || got[0] != "n1=http://a:1" || got[1] != "n2=http://b:2" {
		t.Fatalf("List = %q", got)
	}
	if len(List("")) != 0 {
		t.Fatal("empty list not empty")
	}
}

func TestLoggerLevels(t *testing.T) {
	for level, debug := range map[string]bool{"debug": true, "DEBUG": true, "info": false, "bogus": false} {
		f := &Flags{LogLevel: level}
		if got := f.Logger().Enabled(context.Background(), slog.LevelDebug); got != debug {
			t.Errorf("-log-level %s: debug enabled = %v", level, got)
		}
	}
	if (&Flags{}).Spans("x", nil) != nil {
		t.Fatal("-span-sample 0 must disable span recording")
	}
	if (&Flags{SpanSample: 1}).Spans("x", nil) == nil {
		t.Fatal("-span-sample 1 must record spans")
	}
}
