package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"btrblocks"
	"btrblocks/internal/obs"
)

// maxBodyBytes bounds an append request body.
const maxBodyBytes = 256 << 20

// Schema returns the registered schema of a table.
func (s *Service) Schema(table string) ([]btrblocks.Column, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tables[table]
	if ts == nil {
		return nil, false
	}
	return ts.schema, true
}

// NewHandler wires the ingestion HTTP API around a Service:
//
//	POST /v1/append          JSON rows: {"table":"t","rows":[{"a":1},...]}
//	POST /v1/write           line protocol: `t a=1i,b=2.5,c="s"` per line
//	POST /v1/tables          create table: {"table":"t","columns":[{"name","type"},...]}
//	GET  /v1/tables          table stats
//	POST /v1/flush           flush all buffers (or /v1/flush/{table})
//	POST /v1/compact         run compaction now
//	GET  /v1/stats           same as GET /v1/tables
//	GET  /v1/spans           retained spans (when recording is enabled)
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus text
//
// Every route runs under the shared request middleware (obs.Mux); the
// service's Config.Logger, when set, receives one record per request.
func NewHandler(svc *Service) http.Handler {
	m := obs.NewMux("btringest", &svc.met.HTTP, svc.met.Registry(svc.Spans()), svc.Spans(), svc.cfg.Logger)
	h := &handler{svc: svc}
	m.Handle("POST /v1/append", reply(h.appendJSON))
	m.Handle("POST /v1/write", reply(h.appendLines))
	m.Handle("POST /v1/tables", reply(h.createTable))
	m.Handle("GET /v1/tables", reply(h.stats))
	m.Handle("GET /v1/stats", reply(h.stats))
	m.Handle("POST /v1/flush", reply(h.flushAll))
	m.Handle("POST /v1/flush/{table}", reply(h.flushTable))
	m.Handle("POST /v1/compact", reply(h.compact))
	return m
}

type handler struct {
	svc *Service
}

// httpError carries an explicit status through the handler plumbing.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

// reply adapts a handler that returns an error: the error becomes a JSON
// {"error": ...} body with its status (an httpError's own, 400 for a bad
// request, 404 for an unknown table, 500 otherwise) and marks the
// request's span failed with the error's text.
func reply(fn func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := fn(w, r)
		if err == nil {
			return
		}
		obs.SpanFromContext(r.Context()).SetError(err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(statusOf(err))
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	}
}

// statusOf maps a handler's error to its HTTP status.
func statusOf(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, ErrSchema), errors.Is(err, ErrBadValue),
		errors.Is(err, ErrBadName), errors.Is(err, ErrEmptyBatch):
		return http.StatusBadRequest
	case isUnknownTable(err):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// bodyChunk is the most readBody allocates ahead of the bytes arriving.
const bodyChunk = 8 << 20

// readBody reads a request body of at most maxBodyBytes. The buffer is
// sized from Content-Length up to bodyChunk and grows by at most
// bodyChunk as bytes arrive beyond that, so a body that lies about its
// length cannot size an allocation; one of unknown length starts small.
func readBody(r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, tooLarge()
	}
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength+1, bodyChunk) // +1: room to read the EOF
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(cap(buf), bodyChunk))
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBodyBytes {
			return nil, tooLarge()
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, fmt.Errorf("read body: %v", err)}
		}
	}
}

func tooLarge() error {
	return &httpError{http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)}
}

// appendResult acknowledges a durable append.
type appendResult struct {
	Seq  uint64 `json:"seq"`
	Rows int    `json:"rows"`
}

func (h *handler) appendJSON(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	b, err := decodeJSON(body)
	if err != nil {
		return err
	}
	return h.appendRows(w, r, b)
}

func (h *handler) appendLines(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	b, err := decodeLines(body)
	if err != nil {
		return err
	}
	return h.appendRows(w, r, b)
}

// appendRows resolves the schema (registered, or inferred on first
// contact), binds the decoded rows to it, and hands the batch to the
// service.
func (h *handler) appendRows(w http.ResponseWriter, r *http.Request, b *appendBatch) error {
	chunk, err := b.resolve(h.svc.Schema)
	if err != nil {
		return err
	}
	seq, err := h.svc.AppendContext(r.Context(), b.table, &chunk)
	if err != nil {
		return err
	}
	return obs.WriteJSON(w, appendResult{Seq: seq, Rows: chunk.NumRows()})
}

type createTableRequest struct {
	Table   string       `json:"table"`
	Columns []ColumnSpec `json:"columns"`
}

func (h *handler) createTable(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	var req createTableRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return &httpError{http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err)}
	}
	if err := h.svc.CreateTable(req.Table, req.Columns); err != nil {
		return err
	}
	return obs.WriteJSON(w, map[string]string{"table": req.Table, "status": "ok"})
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) error {
	return obs.WriteJSON(w, map[string]any{"tables": h.svc.Stats()})
}

func (h *handler) flushAll(w http.ResponseWriter, r *http.Request) error {
	if err := h.svc.FlushAllContext(r.Context()); err != nil {
		return err
	}
	return obs.WriteJSON(w, map[string]string{"status": "flushed"})
}

func (h *handler) flushTable(w http.ResponseWriter, r *http.Request) error {
	table := strings.TrimSpace(r.PathValue("table"))
	if err := h.svc.FlushTableContext(r.Context(), table); err != nil {
		return err
	}
	return obs.WriteJSON(w, map[string]string{"status": "flushed", "table": table})
}

func (h *handler) compact(w http.ResponseWriter, r *http.Request) error {
	if err := h.svc.CompactNow(); err != nil {
		return err
	}
	return obs.WriteJSON(w, map[string]string{"status": "compacted"})
}
