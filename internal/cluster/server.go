package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"btrblocks/internal/blockstore"
	"btrblocks/internal/obs"
	"btrblocks/internal/query"
)

// Server is the HTTP surface of a Router. It speaks the blockstore wire
// protocol — the same paths, parameters, and response shapes as a
// single btrserved node — so an unmodified blockstore.Client pointed at
// the router sees one logical store backed by the whole cluster:
//
//	GET  /healthz                      liveness
//	GET  /v1/files[?file=NAME]         merged file metadata (JSON)
//	GET  /v1/raw/NAME                  raw bytes from any replica; honors Range
//	GET  /v1/block?file=N&block=I      block via hedged replica fetch
//	     [&format=json|binary]         (default json; binary = the
//	                                   replica's BTBK frame, untouched)
//	GET  /v1/count-eq?file=N&value=V   pushed-down count, replica failover
//	GET  /v1/count-eq?value=V          scatter-gather count over every column
//	GET  /v1/nodes                     per-node health and client counters
//	GET  /v1/spans                     retained router spans (JSON)
//	GET  /metrics                      Prometheus text exposition
//	POST /v1/query                     JSON query plan, scatter-gathered per leaf
//	POST /v1/invalidate/NAME           fan invalidation out to the replicas
type Server struct {
	router *Router
	mux    *http.ServeMux
	log    *slog.Logger
}

// NewServer wraps a router. log may be nil to disable request logging.
func NewServer(r *Router, log *slog.Logger) *Server {
	s := &Server{router: r, mux: http.NewServeMux(), log: log}
	s.handle("/healthz", s.handleHealthz)
	s.handle("/v1/files", s.handleFiles)
	s.handle("/v1/raw/", s.handleRaw)
	s.handle("/v1/block", s.handleBlock)
	s.handle("/v1/count-eq", s.handleCountEq)
	s.handle("/v1/nodes", s.handleNodes)
	s.handle("/v1/spans", s.handleSpans)
	s.handle("/metrics", s.handleMetrics)
	s.handleWith("/v1/query", s.handleQuery, http.MethodPost)
	s.handleWith("/v1/invalidate/", s.handleInvalidate, http.MethodPost)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) handle(route string, h http.HandlerFunc) {
	s.handleWith(route, h, http.MethodGet, http.MethodHead)
}

// handleWith wraps a route with the same middleware shape as btrserved:
// per-route counters and latency, a request ID echoed as X-Request-ID,
// and a server span continuing any inbound W3C traceparent.
func (s *Server) handleWith(route string, h http.HandlerFunc, methods ...string) {
	ep := s.router.metrics.endpoint(route)
	allowed := make(map[string]bool, len(methods))
	for _, m := range methods {
		allowed[m] = true
	}
	s.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		if !allowed[r.Method] {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		ctx := obs.WithRequestID(r.Context(), rid)
		ctx, span := s.router.spans.StartRemote(ctx, "btrrouted"+route, r.Header.Get(obs.TraceparentHeader))
		span.SetAttr("request_id", rid)
		r = r.WithContext(ctx)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		ep.latency.Observe(elapsed)
		ep.requests.Add(1)
		if sw.status/100 != 2 && sw.status != http.StatusPartialContent &&
			sw.status != http.StatusNotModified {
			ep.errors.Add(1)
			span.SetError(fmt.Errorf("status %d", sw.status))
		}
		span.SetAttrInt("status", int64(sw.status))
		span.End()
		if s.log != nil {
			s.log.Info("request",
				"request_id", rid,
				"route", route,
				"method", r.Method,
				"path", r.URL.RequestURI(),
				"status", sw.status,
				"duration_us", elapsed.Microseconds(),
			)
		}
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// fail maps a routed error to an HTTP status. When the underlying
// replica responses carry a status (all replicas failed the same way),
// the first one is propagated — a file absent everywhere stays 404 and
// a block damaged on every replica stays 422 — so clients keep the
// single-node failure semantics. Errors with no HTTP cause (no replica
// reachable) map to 502.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var he *blockstore.HTTPError
	if errors.As(err, &he) {
		http.Error(w, err.Error(), he.Status)
		return
	}
	if blockstore.IsEndpointDown(err) {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	http.Error(w, err.Error(), http.StatusBadGateway)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleFiles(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("file"); name != "" {
		meta, err := s.router.FileMeta(r.Context(), name)
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, []blockstore.FileMeta{*meta})
		return
	}
	files, err := s.router.Files(r.Context())
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, files)
}

func (s *Server) handleRaw(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/raw/")
	data, err := s.router.Raw(r.Context(), name)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent provides Range (206) and HEAD on the replica's bytes.
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(data))
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("file")
	if name == "" {
		http.Error(w, "missing file parameter", http.StatusBadRequest)
		return
	}
	idx, err := strconv.Atoi(q.Get("block"))
	if err != nil {
		http.Error(w, "missing or bad block parameter", http.StatusBadRequest)
		return
	}
	switch q.Get("format") {
	case "", "json":
		blk, err := s.router.FetchBlock(r.Context(), name, idx)
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, blk.Payload())
	case "binary":
		// The winning replica's validated frame goes out as it came in.
		frame, err := s.router.FetchBlockFrame(r.Context(), name, idx)
		if err != nil {
			s.fail(w, err)
			return
		}
		_, _ = blockstore.BinaryReply(w, len(frame)).Write(frame)
	default:
		http.Error(w, "format must be json or binary", http.StatusBadRequest)
	}
}

func (s *Server) handleCountEq(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if !q.Has("value") {
		http.Error(w, "missing value parameter", http.StatusBadRequest)
		return
	}
	value := q.Get("value")
	if name := q.Get("file"); name != "" {
		res, err := s.router.CountEq(r.Context(), name, value)
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, res)
		return
	}
	res, err := s.router.CountEqScatter(r.Context(), value)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, res)
}

// ClusterStatus is the GET /v1/nodes response.
type ClusterStatus struct {
	Replicas int          `json:"replicas"`
	Nodes    []NodeStatus `json:"nodes"`
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, ClusterStatus{
		Replicas: s.router.mem.Replicas(),
		Nodes:    s.router.mem.Statuses(),
	})
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if !s.router.spans.Enabled() {
		http.Error(w, "span recording disabled", http.StatusNotFound)
		return
	}
	var f obs.SpanFilter
	q := r.URL.Query()
	f.TraceID = q.Get("trace")
	if v := q.Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, "bad min_dur parameter", http.StatusBadRequest)
			return
		}
		f.MinDuration = d
	}
	writeJSON(w, s.router.spans.Snapshot(f))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.router.metrics.WriteTo(w)
	s.router.spans.WritePromLines(w, "btrrouted")
}

// handleQuery serves POST /v1/query with single-node semantics: plan
// problems are 400s, a column file absent on every replica is 404, a
// block damaged on every replica is 422, no replica reachable is 502.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, query.MaxPlanBytes))
	if err != nil {
		http.Error(w, "reading plan: "+err.Error(), http.StatusBadRequest)
		return
	}
	p, err := query.ParsePlan(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.router.Query(r.Context(), p)
	if err != nil {
		if query.IsPlanError(err) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.fail(w, err)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/invalidate/")
	if name == "" {
		http.Error(w, "missing file name", http.StatusBadRequest)
		return
	}
	res, err := s.router.Invalidate(r.Context(), name)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, res)
}
