package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
		status := http.StatusInternalServerError
		var he *httpError
		switch {
		case errors.As(err, &he):
			status = he.status
		case errors.Is(err, ErrSchema), errors.Is(err, ErrBadValue),
			errors.Is(err, ErrBadName), errors.Is(err, ErrEmptyBatch):
			status = http.StatusBadRequest
		case isUnknownTable(err):
			status = http.StatusNotFound
		}
		obs.SpanFromContext(r.Context()).SetError(err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	}
}

func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Errorf("read body: %v", err)}
	}
	if len(body) > maxBodyBytes {
		return nil, &httpError{http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)}
	}
	return body, nil
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
	var req jsonAppendRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return &httpError{http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err)}
	}
	if len(req.Rows) == 0 {
		return ErrEmptyBatch
	}
	return h.appendRows(w, r, req.Table, req.Rows)
}

func (h *handler) appendLines(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	table, rows, err := parseLineProtocol(string(body))
	if err != nil {
		if errors.Is(err, ErrEmptyBatch) {
			return err
		}
		return &httpError{http.StatusBadRequest, err}
	}
	return h.appendRows(w, r, table, rows)
}

// appendRows resolves the schema (registered, or inferred on first
// contact), builds the columnar batch, and hands it to the service.
func (h *handler) appendRows(w http.ResponseWriter, r *http.Request, table string, rows []map[string]json.RawMessage) error {
	if !validName(table) {
		return fmt.Errorf("%w: table %q", ErrBadName, table)
	}
	schema, ok := h.svc.Schema(table)
	if !ok {
		var err error
		schema, err = inferSchemaJSON(rows)
		if err != nil {
			return err
		}
	}
	chunk, err := chunkFromJSONRows(schema, rows)
	if err != nil {
		return err
	}
	seq, err := h.svc.AppendContext(r.Context(), table, &chunk)
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
