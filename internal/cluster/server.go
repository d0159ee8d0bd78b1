package cluster

import (
	"bytes"
	"errors"
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
//	     [&format=json|binary]         (default json, written from the
//	                                   replica's BTBK frame; binary = the
//	                                   frame, untouched)
//	GET  /v1/nodes                     per-node health and client counters
//	GET  /v1/spans                     retained router spans (JSON)
//	GET  /metrics                      Prometheus text exposition
//	POST /v1/query                     JSON query plan, scatter-gathered per leaf
//	POST /v1/invalidate/NAME           fan invalidation out to the replicas
type Server struct {
	router  *Router
	handler http.Handler
}

// NewServer wraps a router. log may be nil to disable request logging.
// Every route runs under the shared request middleware (obs.Mux), which
// also serves /healthz, /metrics and /v1/spans.
func NewServer(r *Router, log *slog.Logger) *Server {
	s := &Server{router: r}
	m := r.metrics
	mux := obs.NewMux("btrrouted", &m.HTTP, m.Registry(r.spans), r.spans, log)
	mux.Handle("GET /v1/files", s.handleFiles)
	mux.Handle("GET /v1/raw/", s.handleRaw)
	mux.Handle("GET /v1/block", s.handleBlock)
	mux.Handle("GET /v1/nodes", s.handleNodes)
	mux.Handle("POST /v1/query", s.handleQuery)
	mux.Handle("POST /v1/invalidate/", s.handleInvalidate)
	s.handler = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

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
	http.Error(w, err.Error(), http.StatusBadGateway)
}

// reply writes v as JSON, or err through fail.
func (s *Server) reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		s.fail(w, err)
		return
	}
	_ = obs.WriteJSON(w, v)
}

func (s *Server) handleFiles(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("file")
	if name == "" {
		files, err := s.router.Files(r.Context())
		s.reply(w, files, err)
		return
	}
	meta, err := s.router.FileMeta(r.Context(), name)
	if err != nil {
		s.fail(w, err)
		return
	}
	_ = obs.WriteJSON(w, []blockstore.FileMeta{*meta})
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
	format := q.Get("format")
	if format != "" && format != "json" && format != "binary" {
		http.Error(w, "format must be json or binary", http.StatusBadRequest)
		return
	}
	// The winning replica's validated frame goes out as it came in, or is
	// written as JSON straight from its bytes.
	frame, err := s.router.FetchBlockFrame(r.Context(), name, idx)
	if err != nil {
		s.fail(w, err)
		return
	}
	if format == "binary" {
		_, _ = blockstore.BinaryReply(w, len(frame)).Write(frame)
		return
	}
	// The frame was validated on arrival, so an error here is the client
	// going away; there is no one to tell.
	w.Header().Set("Content-Type", "application/json")
	_ = blockstore.WriteBlockJSON(w, name, idx, frame)
}

// ClusterStatus is the GET /v1/nodes response.
type ClusterStatus struct {
	Replicas int          `json:"replicas"`
	Nodes    []NodeStatus `json:"nodes"`
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	_ = obs.WriteJSON(w, ClusterStatus{
		Replicas: s.router.mem.Replicas(),
		Nodes:    s.router.mem.Statuses(),
	})
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
	if query.IsPlanError(err) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.reply(w, res, err)
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/invalidate/")
	if name == "" {
		http.Error(w, "missing file name", http.StatusBadRequest)
		return
	}
	res, err := s.router.Invalidate(r.Context(), name)
	s.reply(w, res, err)
}
