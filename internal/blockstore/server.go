package blockstore

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"btrblocks"
	"btrblocks/internal/obs"
)

// Server is the HTTP surface of a Store:
//
//	GET /healthz                          liveness
//	GET /v1/files[?file=NAME]             hosted-file metadata (JSON)
//	GET /v1/raw/NAME                      raw file bytes; honors Range
//	GET /v1/block?file=N&block=I          decompressed block
//	    [&format=json|binary]             (default json; binary = BTBK,
//	                                      sent with Content-Length)
//	GET /v1/count-eq?file=N&value=V       pushed-down equality predicate
//	POST /v1/query                        JSON query plan over column files
//	GET /v1/trace/NAME[?block=I]          cascade decision trace (JSON)
//	GET /v1/telemetry                     cache + library telemetry (JSON)
//	GET /metrics                          Prometheus text exposition
//	PUT /v1/repair/NAME                   install a verified replacement copy
//
// The raw endpoint is the S3-style path: compute nodes that want to run
// their own decoder fetch byte ranges, exactly as against an object
// store. The block endpoint moves decompression server-side, through the
// block cache. The count-eq endpoint pushes the predicate all the way
// down: the value is parsed with btrblocks.ParseEq and counted by
// ColumnIndex.Count, so OneValue/RLE/Dict blocks are answered without
// decompression. The trace endpoint re-derives the scheme
// selection of a served column, block by block, for debugging.
type Server struct {
	store   *Store
	handler http.Handler
	log     *slog.Logger
	timeout time.Duration
	spans   *obs.SpanRecorder
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLogger installs a structured request logger: one slog record per
// request with the request ID, route, status, and duration. nil (the
// default) disables request logging.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// WithRequestTimeout bounds every request: handlers that exceed d are
// cut off with 503 Service Unavailable (via http.TimeoutHandler) and
// their request context is canceled. Zero (the default) disables the
// bound.
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.timeout = d }
}

// WithSpans installs a span recorder: every request runs under a server
// span (continuing an inbound W3C traceparent when present), handlers
// record child spans for cache lookups, block decodes, and per-block
// scan tasks, and GET /v1/spans serves the retained spans. nil (the
// default) disables span recording with zero overhead.
func WithSpans(r *obs.SpanRecorder) ServerOption {
	return func(s *Server) { s.spans = r }
}

// NewServer wraps a store. Every route runs under the shared request
// middleware (obs.Mux), which also serves /healthz, /metrics and
// /v1/spans.
func NewServer(store *Store, opts ...ServerOption) *Server {
	s := &Server{store: store}
	for _, o := range opts {
		o(s)
	}
	m := store.Metrics()
	mux := obs.NewMux("btrserved", &m.HTTP, m.Registry(s.spans), s.spans, s.log)
	mux.Handle("GET /v1/files", s.handleFiles)
	mux.Handle("GET /v1/raw/", s.handleRaw)
	mux.Handle("GET /v1/block", s.handleBlock)
	mux.Handle("GET /v1/count-eq", s.handleCountEq)
	mux.Handle("GET /v1/trace/", s.handleTrace)
	mux.Handle("GET /v1/telemetry", s.handleTelemetry)
	mux.Handle("POST /v1/query", s.handleQuery)
	mux.Handle("POST /v1/invalidate/", s.handleInvalidate)
	mux.Handle("PUT /v1/repair/", s.handleRepair)
	mux.Handle("POST /v1/repair/", s.handleRepair)
	s.handler = mux
	if s.timeout > 0 {
		s.handler = http.TimeoutHandler(mux, s.timeout, "request timed out")
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// BinaryReply sets the headers of a binary reply n bytes long and
// returns the writer for its body. The writer passes everything on but
// the body's last byte, which stays in net/http's buffer until the
// handler returns: a reply with Content-Length is complete the moment
// its last byte arrives, and a client holding a complete reply must
// find the request already in the server's counters, spans and log —
// as it did when these replies were chunked and ended with the handler.
func BinaryReply(w http.ResponseWriter, n int) io.Writer {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	return &replyWriter{w: w, left: n}
}

type replyWriter struct {
	w    io.Writer
	left int // body bytes not yet written
}

func (r *replyWriter) Write(p []byte) (int, error) {
	r.left -= len(p)
	if r.left > 0 || len(p) < 2 {
		return r.w.Write(p)
	}
	n, err := r.w.Write(p[:len(p)-1])
	if err != nil {
		return n, err
	}
	m, err := r.w.Write(p[len(p)-1:]) // one byte: buffered, not sent
	return n + m, err
}

// fail maps a store error to an HTTP status. The damage statuses are
// distinct so clients can tell block-level loss (422 corrupt, 410
// quarantined — skip the block, keep scanning) from request errors.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case IsNotFound(err):
		http.Error(w, err.Error(), http.StatusNotFound)
	case IsQuarantined(err):
		http.Error(w, err.Error(), http.StatusGone)
	case IsCorrupt(err):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func fileMeta(f *File) FileMeta {
	meta := FileMeta{
		Name:  f.Name,
		Bytes: len(f.Data),
		Kind:  f.Kind,
		Rows:  f.Rows,
	}
	if f.Index != nil {
		meta.Type = f.Index.Type.String()
		meta.Blocks = len(f.Index.Blocks)
	}
	return meta
}

func (s *Server) handleFiles(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("file"); name != "" {
		f := s.store.File(name)
		if f == nil {
			s.fail(w, errNotFound)
			return
		}
		_ = obs.WriteJSON(w, []FileMeta{fileMeta(f)})
		return
	}
	files := s.store.Files()
	out := make([]FileMeta, len(files))
	for i, f := range files {
		out[i] = fileMeta(f)
	}
	_ = obs.WriteJSON(w, out)
}

func (s *Server) handleRaw(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/raw/")
	f := s.store.File(name)
	if f == nil {
		s.fail(w, errNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, read := obs.StartChild(r.Context(), "file.read")
	read.SetAttr("file", name)
	read.SetAttrInt("bytes", int64(len(f.Data)))
	// ServeContent provides Range (206), If-Modified-Since and HEAD.
	http.ServeContent(w, r, "", s.store.ModTime(), bytes.NewReader(f.Data))
	read.End()
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
	blk, err := s.store.BlockContext(r.Context(), name, idx)
	if err != nil {
		s.fail(w, err)
		return
	}
	switch q.Get("format") {
	case "", "json":
		_ = obs.WriteJSON(w, blockPayload(blk))
	case "binary":
		// A failed write is the client going away; there is no one to tell.
		_ = writeBlockFrame(BinaryReply(w, blockFrameLen(blk)), blk, hostLittleEndian)
	default:
		http.Error(w, "format must be json or binary", http.StatusBadRequest)
	}
}

func (s *Server) handleCountEq(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("file")
	if name == "" {
		http.Error(w, "missing file parameter", http.StatusBadRequest)
		return
	}
	if !q.Has("value") {
		http.Error(w, "missing value parameter", http.StatusBadRequest)
		return
	}
	value := q.Get("value")
	start := time.Now()
	f, err := s.store.column(name)
	count := 0
	if err == nil {
		var p btrblocks.Predicate
		if p, err = btrblocks.ParseEq(f.Index.Type, value); err == nil {
			count, _, err = f.Index.CountContext(r.Context(), f.Data, p, s.store.Options())
		}
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	_ = obs.WriteJSON(w, CountEqResult{
		File:  name,
		Type:  f.Index.Type.String(),
		Value: value,
		Count: count,
		Nanos: time.Since(start).Nanoseconds(),
	})
}

// handleTrace serves /v1/trace/NAME[?block=I]: the cascade decision
// trace of one block, or of every block when the parameter is absent.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if name == "" {
		http.Error(w, "missing file name", http.StatusBadRequest)
		return
	}
	idx := -1
	if v := r.URL.Query().Get("block"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad block parameter", http.StatusBadRequest)
			return
		}
		idx = n
	}
	tr, err := s.store.Trace(name, idx)
	if err != nil {
		s.fail(w, err)
		return
	}
	_ = obs.WriteJSON(w, tr)
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	m := s.store.Metrics()
	report := TelemetryReport{Cache: m.Cache(), Endpoints: m.HTTP.Snapshot()}
	if opt := s.store.Options(); opt != nil && opt.Telemetry.Enabled() {
		snap := opt.Telemetry.Snapshot()
		snap.Events = nil // bound the payload; aggregates carry the story
		report.Telemetry = &snap
	}
	if s.spans.Enabled() {
		report.SpanExemplars = s.spans.Exemplars()
		st := s.spans.Stats()
		report.Spans = &st
	}
	_ = obs.WriteJSON(w, report)
}

// handleInvalidate serves POST /v1/invalidate/NAME: drop cached state
// for the named file and reload it from the backing directory — the
// cross-process hook a writer (btringest) calls after atomically
// replacing a served file. Responds with the file's post-invalidation
// status: "reloaded" when it is (still) served, "removed" when it no
// longer exists.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/invalidate/")
	if name == "" {
		http.Error(w, "missing file name", http.StatusBadRequest)
		return
	}
	_, inv := obs.StartChild(r.Context(), "store.invalidate")
	inv.SetAttr("file", name)
	s.store.Invalidate(name)
	inv.End()
	status := "removed"
	if s.store.File(name) != nil {
		status = "reloaded"
	}
	_ = obs.WriteJSON(w, InvalidateResult{File: name, Status: status})
}

// maxRepairBytes bounds a repair payload; column files are far smaller,
// and an unbounded body would let one bad push exhaust memory.
const maxRepairBytes = 1 << 30

// handleRepair serves PUT /v1/repair/NAME: install a pushed replacement
// copy of a file after verifying every checksum and payload — the
// receiving half of cross-replica repair. A payload that fails
// verification is refused with 422 and changes nothing.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/repair/")
	if name == "" {
		http.Error(w, "missing file name", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRepairBytes))
	if err != nil {
		http.Error(w, "reading repair payload: "+err.Error(), http.StatusBadRequest)
		return
	}
	_, rep := obs.StartChild(r.Context(), "store.repair")
	rep.SetAttr("file", name)
	rep.SetAttrInt("bytes", int64(len(data)))
	err = s.store.AcceptRepair(name, data)
	rep.SetError(err)
	rep.End()
	if err != nil {
		s.fail(w, err)
		return
	}
	_ = obs.WriteJSON(w, RepairResult{File: name, Bytes: len(data), Status: "accepted"})
}
