package main

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"btrblocks/internal/obs"
)

// The traced run records spans from the benchmark's own files only:
// around each client call, in an http.Handler the benchmark wraps around
// each server's handler, and around "boundary replays" — the same op
// issued directly at the next boundary down on a twin instance. Spans
// stay in memory and are written once, at exit, in the SpanSet v1 JSON
// of internal/obs, so `btrblocks spans -format tree` renders them.

// span is one recorded interval. Handler spans carry parent 0 until
// fold() nests them by time under the client span that caused them
// (the traced run has one caller, so intervals never interleave).
type span struct {
	id, parent uint64
	layer      string // module the interval belongs to
	name       string
	start, end int64  // unix nanos
	bytes      int64  // response body bytes, for handler spans
	format     string // "format" query parameter, for handler spans
	replay     bool   // issued after its logical parent returned, on a twin
	// under, on a replay whose parent is a client span, names the layer
	// of the handler span it logically ran inside; fold() re-parents it
	// there once the middleware's spans are nested.
	under string
}

func (s *span) dur() int64 { return s.end - s.start }

type tracer struct {
	on     atomic.Bool // false: the middleware passes requests through
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent uint64, layer, name string, start, end time.Time, replay bool) uint64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, layer: layer, name: name,
		start: start.UnixNano(), end: end.UnixNano(), replay: replay})
	t.mu.Unlock()
	return id
}

// addUnder records a boundary replay of the op whose client span is
// client: logically a child of that op's handler span of layer under.
func (t *tracer) addUnder(client uint64, under, layer, name string, start, end time.Time) uint64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: client, layer: layer, name: name,
		start: start.UnixNano(), end: end.UnixNano(), replay: true, under: under})
	t.mu.Unlock()
	return id
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrap returns middleware that records one handler span per request.
// Health probes are the router's own background traffic, not part of
// any op, and are skipped.
func (t *tracer) wrap(layer string) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !t.on.Load() || r.URL.Path == "/healthz" {
				h.ServeHTTP(w, r)
				return
			}
			cw := &countingWriter{ResponseWriter: w}
			start := time.Now()
			h.ServeHTTP(cw, r)
			end := time.Now()
			id := t.nextID.Add(1)
			t.mu.Lock()
			t.spans = append(t.spans, span{id: id, layer: layer, name: r.Method + " " + r.URL.Path,
				start: start.UnixNano(), end: end.UnixNano(), bytes: cw.n, format: r.URL.Query().Get("format")})
			t.mu.Unlock()
		})
	}
}

// fold nests the handler spans by time and returns the spans ordered by
// start. A handler span's parent is the innermost earlier-started span
// still open when it began: router handler under client span, node
// handler under router handler.
func (t *tracer) fold() []span {
	spans := t.snapshot()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var open []int // indices of non-replay spans that may still contain later ones
	for i := range spans {
		s := &spans[i]
		if s.replay {
			continue
		}
		for len(open) > 0 && spans[open[len(open)-1]].end < s.start {
			open = open[:len(open)-1]
		}
		if s.parent == 0 && len(open) > 0 {
			s.parent = spans[open[len(open)-1]].id
		}
		open = append(open, i)
	}
	type key struct {
		client uint64
		layer  string
	}
	handler := make(map[key]uint64) // the handler span nested directly in a client span
	for i := range spans {
		if s := &spans[i]; !s.replay && s.parent != 0 {
			handler[key{s.parent, s.layer}] = s.id
		}
	}
	for i := range spans {
		if s := &spans[i]; s.under != "" {
			if h, ok := handler[key{s.parent, s.under}]; ok {
				s.parent = h
			}
		}
	}
	return spans
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover (children of a replayed boundary were not inside
// the parent's wall interval, so their durations are subtracted as
// reported and the result is clamped at 0). over is the total by which
// children claimed more than their parent had — time the table cannot
// attribute consistently.
func selfTimes(spans []span) (self map[uint64]int64, over int64) {
	self = make(map[uint64]int64, len(spans))
	for i := range spans {
		self[spans[i].id] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			self[p] -= spans[i].dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			over -= v
			self[id] = 0
		}
	}
	return self, over
}

// hexID renders id as an n-byte lower-case hex ID, zero-padded on the left.
func hexID(id uint64, n int) string {
	b := make([]byte, n)
	binary.BigEndian.PutUint64(b[n-8:], id)
	return hex.EncodeToString(b)
}

// write stores the spans as bench/out/<workload>.trace.json. The trace
// ID of a span is its root's, so one op is one trace.
func writeTrace(dir, workload string, spans []span) (string, error) {
	root := make(map[uint64]uint64, len(spans))
	set := obs.SpanSet{Version: obs.SpanVersion, Process: "bench"}
	for _, s := range spans {
		r := s.id
		if s.parent != 0 {
			r = root[s.parent]
		}
		root[s.id] = r
		rec := obs.SpanRecord{
			TraceID:        hexID(r, 16),
			SpanID:         hexID(s.id, 8),
			Name:           s.layer + ":" + s.name,
			Process:        "bench",
			StartUnixNanos: s.start,
			DurationNanos:  s.dur(),
		}
		if s.parent != 0 {
			rec.ParentID = hexID(s.parent, 8)
		}
		if s.replay {
			rec.Attrs = append(rec.Attrs, obs.Attr{Key: "replay", Value: "twin"})
		}
		set.Spans = append(set.Spans, rec)
	}
	if err := set.Validate(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(set)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
