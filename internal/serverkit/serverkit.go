// Package serverkit is the process lifecycle the repository's servers
// share: the deployment flags, listening and the -addr-file handshake,
// the optional pprof/expvar debug listener, SIGINT/SIGTERM graceful
// shutdown with a summary log, and the SIGQUIT snapshot. A server binary
// supplies its handler and its own state; everything else is here.
package serverkit

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode"

	"btrblocks/internal/obs"
)

// Flags are the deployment flags every server binary shares.
type Flags struct {
	Addr       string
	AddrFile   string
	DebugAddr  string
	LogLevel   string
	SpanSample int
	SpanSlow   time.Duration
}

// Register defines -addr (defaulting to addr), -addr-file, -debug-addr,
// -span-sample and -span-slow on fs.
func (f *Flags) Register(fs *flag.FlagSet, addr string) {
	fs.StringVar(&f.Addr, "addr", addr, "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&f.AddrFile, "addr-file", "", "write the bound address to this file once listening")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "listen address for pprof + expvar (empty disables)")
	fs.IntVar(&f.SpanSample, "span-sample", 1, "head-sample 1 in N traces (0 disables span recording)")
	fs.DurationVar(&f.SpanSlow, "span-slow", 250*time.Millisecond, "force-record and warn-log spans at least this slow")
}

// RegisterLogLevel defines -log-level on fs.
func (f *Flags) RegisterLogLevel(fs *flag.FlagSet) {
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
}

// List splits a comma-separated flag value, trimming spaces and dropping
// empty entries.
func List(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
}

// Logger returns the JSON-lines stderr logger at the -log-level
// (debug, info, warn or error, any case; anything else is info).
func (f *Flags) Logger() *slog.Logger {
	var level slog.Level
	if level.UnmarshalText([]byte(f.LogLevel)) != nil {
		level = slog.LevelInfo
	}
	return obs.NewLogger(os.Stderr, level)
}

// Spans returns the span recorder -span-sample and -span-slow describe
// for the named process, or nil when -span-sample is 0.
func (f *Flags) Spans(process string, log *slog.Logger) *obs.SpanRecorder {
	if f.SpanSample <= 0 {
		return nil
	}
	return obs.NewSpanRecorder(obs.SpanRecorderConfig{
		Process:       process,
		SampleEvery:   f.SpanSample,
		SlowThreshold: f.SpanSlow,
		Logger:        log,
	})
}

// Process is one run of a server.
type Process struct {
	// Name is the process name (e.g. "btrserved"): the expvar section
	// of the debug listener.
	Name    string
	Handler http.Handler
	Log     *slog.Logger
	// Routes, when set, is summarized route by route in the snapshot and
	// shutdown records.
	Routes *obs.Routes
	// Stats returns the service's own state as key/value attributes for
	// the "snapshot" and "summary" records and the expvar section; nil
	// adds none.
	Stats func() []any
	// Ready, when set, runs once the address is bound and published.
	Ready func(addr string)
	// Close, when set, releases the service after the listeners stop. It
	// runs on every path out of Run, failures included.
	Close func() error
}

// shutdownTimeout bounds the drain of in-flight requests.
const shutdownTimeout = 10 * time.Second

// Run listens on f.Addr, writes the bound address to f.AddrFile, serves
// (and the debug listener on f.DebugAddr) until ctx ends or SIGINT or
// SIGTERM arrives, then drains in-flight requests, runs Close and logs
// the "summary" record. SIGQUIT logs a "snapshot" record and keeps
// serving. A listener failure returns its error after Close.
func (p *Process) Run(ctx context.Context, f *Flags) error {
	start := time.Now()
	err := p.serve(ctx, f)
	if p.Close != nil {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		p.logState("summary", "uptime", time.Since(start).Round(time.Millisecond).String())
	}
	return err
}

func (p *Process) serve(ctx context.Context, f *Flags) error {
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		return err
	}
	if err := writeAddrFile(f.AddrFile, ln.Addr().String()); err != nil {
		ln.Close()
		return err
	}
	errCh := make(chan error, 2)
	servers := []*http.Server{{Handler: p.Handler}}
	go func() { errCh <- servers[0].Serve(ln) }()
	p.Log.Info("listening", "addr", "http://"+ln.Addr().String())
	if f.DebugAddr != "" {
		dln, err := net.Listen("tcp", f.DebugAddr)
		if err != nil {
			servers[0].Close()
			return err
		}
		debug := &http.Server{Handler: DebugHandler(p.Name, p.Vars)}
		servers = append(servers, debug)
		go func() { errCh <- debug.Serve(dln) }()
		p.Log.Info("debug listening", "addr", "http://"+dln.Addr().String(),
			"endpoints", "/debug/pprof/, /debug/vars")
	}
	if p.Ready != nil {
		p.Ready(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	for ctx.Err() == nil {
		select {
		case err := <-errCh:
			for _, s := range servers {
				s.Close()
			}
			return err
		case <-quit:
			p.logState("snapshot")
		case <-ctx.Done():
		}
	}
	stop() // a second signal kills immediately
	p.Log.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	for _, s := range servers {
		if serr := s.Shutdown(shutCtx); err == nil {
			err = serr
		}
	}
	return err
}

// logState logs one record named msg with attrs and the service's
// Stats, then one "<msg> endpoint" record per route.
func (p *Process) logState(msg string, attrs ...any) {
	if p.Stats != nil {
		attrs = append(attrs, p.Stats()...)
	}
	p.Log.Info(msg, attrs...)
	if p.Routes == nil {
		return
	}
	for _, rt := range p.Routes.Snapshot() {
		p.Log.Info(msg+" endpoint", "route", rt.Route, "requests", rt.Requests,
			"errors", rt.Errors, "latency", rt.Latency.String())
	}
}

// Vars is the process's expvar section: its Stats as a map, and the
// per-route summaries under "endpoints".
func (p *Process) Vars() any {
	out := make(map[string]any)
	if p.Stats != nil {
		attrs := p.Stats()
		for i := 0; i+1 < len(attrs); i += 2 {
			out[fmt.Sprint(attrs[i])] = attrs[i+1]
		}
	}
	if p.Routes != nil {
		out["endpoints"] = p.Routes.Snapshot()
	}
	return out
}

// writeAddrFile publishes the bound address via temp-and-rename so a
// watcher never reads a partial line. An empty path is a no-op.
func writeAddrFile(path, addr string) error {
	if path == "" {
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// DebugHandler serves the Go profiles under /debug/pprof/ and expvar at
// /debug/vars, with vars as the expvar section called name. The debug
// listener stays off the data listener so profiling access can be
// firewall-scoped separately.
func DebugHandler(name string, vars func() any) http.Handler {
	publish(name, vars)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// sections maps an expvar section name to the function it reads.
// expvar.Publish panics on a name it has seen, so each name is published
// once per process and a later DebugHandler repoints it.
var sections sync.Map // name → *atomic.Pointer[func() any]

func publish(name string, vars func() any) {
	v, loaded := sections.LoadOrStore(name, new(atomic.Pointer[func() any]))
	cur := v.(*atomic.Pointer[func() any])
	cur.Store(&vars)
	if !loaded {
		expvar.Publish(name, expvar.Func(func() any { return (*cur.Load())() }))
	}
}
