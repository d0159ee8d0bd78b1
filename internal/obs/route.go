package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the request middleware every server shares: one Mux type
// gives btrserved, btrrouted and btringest the same request IDs, server
// spans, per-route series and request log, and serves their common
// routes.

// Routes holds one server's per-route HTTP series, labeled by route. A
// route's series exist from the moment it is registered on a Mux. The
// zero value is ready to use.
type Routes struct {
	InFlight atomic.Int64 // gauge: requests being served
	Requests CounterGroup
	Errors   CounterGroup // responses that are neither 2xx nor 304
	Latency  HistogramGroup
}

// RouteSnapshot is a point-in-time summary of one route, used by the
// expvar section and the lifecycle log records.
type RouteSnapshot struct {
	Route    string            `json:"route"`
	Requests int64             `json:"requests"`
	Errors   int64             `json:"errors"`
	Latency  HistogramSnapshot `json:"latency"`
}

// Snapshot summarizes every route, sorted by route.
func (rt *Routes) Snapshot() []RouteSnapshot {
	labels := rt.Requests.Labels()
	out := make([]RouteSnapshot, len(labels))
	for i, l := range labels {
		out[i] = RouteSnapshot{
			Route:    l,
			Requests: rt.Requests.At(l).Load(),
			Errors:   rt.Errors.At(l).Load(),
			Latency:  rt.Latency.At(l).Snapshot(),
		}
	}
	return out
}

// Mux is an http.ServeMux whose every route runs under the request
// middleware:
//
//   - an inbound X-Request-ID is kept, otherwise one is minted; either
//     way it is echoed in the response and stored in the context;
//   - a server span named process+route continues an inbound W3C
//     traceparent or starts a trace (nothing with a nil recorder);
//   - the in-flight gauge, and the route's request counter, error
//     counter (from the status code) and latency histogram;
//   - one "request" log record, when a logger is set.
//
// NewMux also registers the routes every server has: GET /healthz,
// GET /metrics and GET /v1/spans.
type Mux struct {
	mux     http.ServeMux
	process string
	routes  *Routes
	spans   *SpanRecorder
	log     *slog.Logger
}

// NewMux returns a Mux for the named process (e.g. "btrserved") that
// records into routes and spans, logs to log (nil: no request records),
// and serves metrics at /metrics.
func NewMux(process string, routes *Routes, metrics *Registry, spans *SpanRecorder, log *slog.Logger) *Mux {
	m := &Mux{process: process, routes: routes, spans: spans, log: log}
	m.Handle("GET /healthz", Healthz)
	m.Handle("GET /metrics", metrics.ServeHTTP)
	m.Handle("GET /v1/spans", spans.ServeHTTP)
	return m
}

// Handle registers h for a method pattern such as "GET /v1/block"; a GET
// pattern also answers HEAD, and other methods get 405. The route label
// is the pattern's path up to its first wildcard, so
// "POST /v1/flush/{table}" counts under "/v1/flush", and patterns that
// share a label share its series.
func (m *Mux) Handle(pattern string, h http.HandlerFunc) {
	path := pattern[strings.IndexByte(pattern, ' ')+1:]
	route, _, _ := strings.Cut(path, "/{")
	m.mux.Handle(pattern, &routeHandler{
		mux:      m,
		route:    route,
		span:     m.process + route,
		h:        h,
		requests: m.routes.Requests.At(route),
		errors:   m.routes.Errors.At(route),
		latency:  m.routes.Latency.At(route),
	})
}

// ServeHTTP implements http.Handler.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// The header keys in canonical form, so the middleware indexes header
// maps directly instead of canonicalizing a key on every request.
var (
	requestIDKey   = http.CanonicalHeaderKey(RequestIDHeader)
	traceparentKey = http.CanonicalHeaderKey(TraceparentHeader)
)

func header(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// routeHandler is one registered route: the handler and the series it
// records into, resolved once at registration.
type routeHandler struct {
	mux         *Mux
	route, span string
	h           http.HandlerFunc
	requests    *atomic.Int64
	errors      *atomic.Int64
	latency     *Histogram
}

func (rh *routeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := rh.mux
	rid := header(r.Header, requestIDKey)
	if rid == "" {
		rid = NewRequestID()
	}
	w.Header()[requestIDKey] = []string{rid}
	ctx := WithRequestID(r.Context(), rid)
	ctx, span := m.spans.StartRemote(ctx, rh.span, header(r.Header, traceparentKey))
	span.SetAttr("request_id", rid)
	r = r.WithContext(ctx)
	m.routes.InFlight.Add(1)
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	rh.h(sw, r)
	elapsed := time.Since(start)
	rh.latency.Observe(elapsed)
	rh.requests.Add(1)
	if sw.status/100 != 2 && sw.status != http.StatusNotModified {
		rh.errors.Add(1)
		if !span.failed() {
			span.SetError(fmt.Errorf("status %d", sw.status))
		}
	}
	span.SetAttrInt("status", int64(sw.status))
	span.End()
	m.routes.InFlight.Add(-1)
	if m.log != nil && m.log.Enabled(ctx, slog.LevelInfo) {
		m.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("request_id", rid),
			slog.String("route", rh.route),
			slog.String("method", r.Method),
			slog.String("path", r.URL.RequestURI()),
			slog.Int("status", sw.status),
			slog.Int64("duration_us", elapsed.Microseconds()),
		)
	}
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// WriteJSON writes v as a JSON reply.
func WriteJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// Healthz answers GET /healthz: liveness.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}
