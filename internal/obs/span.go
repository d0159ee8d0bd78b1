package obs

import (
	"cmp"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanVersion identifies the span JSON schema documented in
// OBSERVABILITY.md. Bump it when a field changes meaning.
const SpanVersion = 1

// TraceparentHeader is the W3C trace-context header used to propagate a
// trace across processes.
const TraceparentHeader = "traceparent"

// RequestIDHeader carries the request ID alongside traceparent so the
// downstream process logs the originator's ID instead of minting one.
const RequestIDHeader = "X-Request-ID"

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the all-zero (invalid) ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the all-zero (invalid) ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// ID generation mirrors the request-ID scheme: a per-process seed from
// startup time plus an atomic counter. Unique within and across process
// restarts without crypto randomness, and cheap enough to mint per span.
var (
	idSeed = uint64(time.Now().UnixNano())
	idSeq  atomic.Uint64
)

// splitmix64 is a tiny statistically-solid mixer; it spreads the seed+seq
// pairs over the full 64-bit space so IDs don't share visible prefixes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newTraceID() TraceID {
	var t TraceID
	a := splitmix64(idSeed + idSeq.Add(1))
	b := splitmix64(a)
	for i := 0; i < 8; i++ {
		t[i] = byte(a >> (8 * i))
		t[8+i] = byte(b >> (8 * i))
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	a := splitmix64(idSeed ^ idSeq.Add(1)*0x9e3779b97f4a7c15)
	for i := 0; i < 8; i++ {
		s[i] = byte(a >> (8 * i))
	}
	if s.IsZero() {
		s[0] = 1
	}
	return s
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a trace. Spans form a tree via parent
// IDs; the root span of a process carries the trace ID minted by (or
// propagated to) that process. A nil *Span is valid and all methods
// no-op, so instrumented code calls unconditionally without nil checks
// and the disabled path stays allocation-free.
type Span struct {
	rec      *SpanRecorder
	traceID  TraceID
	spanID   SpanID
	parentID SpanID
	name     string
	start    time.Time
	sampled  bool
	// sticky is the per-trace always-sample bit, shared by every local
	// span of the trace: flipped on error or slow finish so the whole
	// upward path records even when head sampling said no. Parents
	// finish after children, so a flip at child-finish is seen by every
	// ancestor's End.
	sticky *atomic.Bool

	mu    sync.Mutex
	attrs []Attr
	err   bool
	ended bool
	// attrBuf holds the first attributes, so a span with few costs no
	// allocation beyond the span itself.
	attrBuf [2]Attr
}

type spanKey struct{}

// ContextWithSpan attaches a span to the context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceID returns the span's trace ID, or the zero ID on nil.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// SpanID returns the span's ID, or the zero ID on nil.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// SetAttr annotates the span. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value. No-op on nil.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetError marks the span failed and flips the trace's sticky
// always-sample bit so the error's whole path records. No-op on nil or
// nil error.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = true
	s.attrs = append(s.attrs, Attr{Key: "error", Value: err.Error()})
	s.mu.Unlock()
	if s.sticky != nil {
		s.sticky.Store(true)
	}
}

// failed reports whether SetError marked the span.
func (s *Span) failed() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// End finishes the span: a slow or failed span flips the sticky bit,
// then the span is recorded if head sampling or the sticky bit says so.
// Safe to call more than once; later calls no-op. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	err := s.err
	attrs := s.attrs
	s.mu.Unlock()
	r := s.rec
	if r == nil {
		return
	}
	if (err || (r.slowThreshold > 0 && dur >= r.slowThreshold)) && s.sticky != nil {
		s.sticky.Store(true)
	}
	sample := s.sampled || (s.sticky != nil && s.sticky.Load())
	if r.slowThreshold > 0 && dur >= r.slowThreshold && r.logger != nil {
		r.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow span",
			slog.String("span", s.name),
			slog.String("trace_id", s.traceID.String()),
			slog.String("span_id", s.spanID.String()),
			slog.Int64("duration_ms", dur.Milliseconds()),
			slog.Bool("error", err),
		)
	}
	if !sample {
		r.sampledOut.Add(1)
		return
	}
	rec := &SpanRecord{
		TraceID:        s.traceID.String(),
		SpanID:         s.spanID.String(),
		Name:           s.name,
		Process:        r.process,
		StartUnixNanos: s.start.UnixNano(),
		DurationNanos:  int64(dur),
		Error:          err,
	}
	if !s.parentID.IsZero() {
		rec.ParentID = s.parentID.String()
	}
	if len(attrs) > 0 {
		rec.Attrs = attrs
	}
	r.record(rec)
}

// SpanRecord is the serialized form of one finished span.
type SpanRecord struct {
	TraceID        string `json:"trace_id"`
	SpanID         string `json:"span_id"`
	ParentID       string `json:"parent_id,omitempty"`
	Name           string `json:"name"`
	Process        string `json:"process,omitempty"`
	StartUnixNanos int64  `json:"start_unix_nanos"`
	DurationNanos  int64  `json:"duration_nanos"`
	Error          bool   `json:"error,omitempty"`
	Attrs          []Attr `json:"attrs,omitempty"`
}

// SpanSet is the exported span document: schema version, the recording
// process, and the spans ordered by start time.
type SpanSet struct {
	Version int          `json:"version"`
	Process string       `json:"process,omitempty"`
	Spans   []SpanRecord `json:"spans"`
}

// SpanStats are cumulative recorder counters.
type SpanStats struct {
	Recorded   uint64 `json:"recorded"`
	SampledOut uint64 `json:"sampled_out"`
	Evicted    uint64 `json:"evicted"`
}

// SpanRecorder is a bounded lock-light sink for finished spans: a ring
// of atomic pointers where the (capacity+1)th record overwrites the
// oldest. Head sampling keeps 1-in-N traces; errors and slow spans set a
// sticky per-trace bit that overrides the head decision for every span
// that finishes after the flip. A nil *SpanRecorder is valid: root spans
// come back nil and the whole instrumented path stays allocation-free.
type SpanRecorder struct {
	slots         []atomic.Pointer[SpanRecord]
	seq           atomic.Uint64 // next slot; also total recorded
	process       string
	sampleEvery   uint64 // head-sample 1 in N root spans (1 = all)
	headSeq       atomic.Uint64
	slowThreshold time.Duration
	logger        *slog.Logger

	sampledOut atomic.Uint64
}

// SpanRecorderConfig configures a recorder.
type SpanRecorderConfig struct {
	// Capacity is the ring size in spans (default 4096).
	Capacity int
	// Process names the recording process in serialized spans
	// (e.g. "btrserved").
	Process string
	// SampleEvery head-samples 1 in N new traces; <=1 samples all.
	SampleEvery int
	// SlowThreshold force-samples and warn-logs spans at least this
	// slow; 0 disables the slow path.
	SlowThreshold time.Duration
	// Logger receives slow-span warnings; nil disables logging.
	Logger *slog.Logger
}

// NewSpanRecorder returns a recorder with the given config.
func NewSpanRecorder(cfg SpanRecorderConfig) *SpanRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	return &SpanRecorder{
		slots:         make([]atomic.Pointer[SpanRecord], cfg.Capacity),
		process:       cfg.Process,
		sampleEvery:   uint64(cfg.SampleEvery),
		slowThreshold: cfg.SlowThreshold,
		logger:        cfg.Logger,
	}
}

// Enabled reports whether the recorder collects anything (is non-nil).
func (r *SpanRecorder) Enabled() bool { return r != nil }

func (r *SpanRecorder) record(rec *SpanRecord) {
	i := r.seq.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(rec)
}

// Stats returns cumulative counters. Zero on nil.
func (r *SpanRecorder) Stats() SpanStats {
	if r == nil {
		return SpanStats{}
	}
	rec := r.seq.Load()
	var evicted uint64
	if n := uint64(len(r.slots)); rec > n {
		evicted = rec - n
	}
	return SpanStats{Recorded: rec, SampledOut: r.sampledOut.Load(), Evicted: evicted}
}

// ServeHTTP serves GET /v1/spans: the retained spans as a versioned
// SpanSet, optionally filtered by ?trace=TRACE_ID and ?min_dur=DURATION
// (a Go duration literal like 5ms). A nil recorder answers 404, so
// operators can tell "disabled" from "nothing recorded".
func (r *SpanRecorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r == nil {
		http.Error(w, "span recording disabled", http.StatusNotFound)
		return
	}
	q := req.URL.Query()
	f := SpanFilter{TraceID: q.Get("trace")}
	if v := q.Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, "bad min_dur parameter", http.StatusBadRequest)
			return
		}
		f.MinDuration = d
	}
	_ = WriteJSON(w, r.Snapshot(f))
}

// SpanFilter selects spans from a snapshot.
type SpanFilter struct {
	// TraceID keeps only spans of that trace when non-empty.
	TraceID string
	// MinDuration keeps only spans at least that slow.
	MinDuration time.Duration
}

// Snapshot returns the retained spans matching the filter as a SpanSet
// ordered by start time (ties by span ID, so output is deterministic).
// Returns an empty document on nil.
func (r *SpanRecorder) Snapshot(f SpanFilter) SpanSet {
	out := SpanSet{Version: SpanVersion}
	if r == nil {
		return out
	}
	out.Process = r.process
	for i := range r.slots {
		rec := r.slots[i].Load()
		if rec == nil {
			continue
		}
		if f.TraceID != "" && rec.TraceID != f.TraceID {
			continue
		}
		if f.MinDuration > 0 && rec.DurationNanos < int64(f.MinDuration) {
			continue
		}
		out.Spans = append(out.Spans, *rec)
	}
	slices.SortFunc(out.Spans, func(a, b SpanRecord) int {
		return cmp.Or(cmp.Compare(a.StartUnixNanos, b.StartUnixNanos), strings.Compare(a.SpanID, b.SpanID))
	})
	return out
}

// StartRoot opens a new trace: mints trace and span IDs, makes the head
// sampling decision, and attaches the span to the context. On a nil
// recorder it returns (ctx, nil) without allocating.
func (r *SpanRecorder) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	return openSpan(ctx, r, newTraceID(), SpanID{}, name, r.headSeq.Add(1)%r.sampleEvery == 0, new(atomic.Bool))
}

// StartRemote opens a server span continuing the trace described by a
// W3C traceparent header value. An empty or malformed header starts a
// fresh root trace instead; a propagated sampled flag overrides the
// local head-sampling decision so cross-process traces stay whole. On a
// nil recorder it returns (ctx, nil).
func (r *SpanRecorder) StartRemote(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	traceID, parentID, sampled, ok := ParseTraceparent(traceparent)
	if !ok {
		return r.StartRoot(ctx, name)
	}
	return openSpan(ctx, r, traceID, parentID, name, sampled, new(atomic.Bool))
}

// StartChild opens a child of the context's span, inheriting its trace,
// recorder, sampling decision, and sticky bit. With no span in the
// context it returns (ctx, nil) without allocating — this is the hot
// path's disabled branch.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return openSpan(ctx, parent.rec, parent.traceID, parent.spanID, name, parent.sampled, parent.sticky)
}

// openSpan starts a span with a fresh span ID and attaches it to the
// context.
func openSpan(ctx context.Context, rec *SpanRecorder, trace TraceID, parent SpanID, name string, sampled bool, sticky *atomic.Bool) (context.Context, *Span) {
	s := &Span{rec: rec, traceID: trace, spanID: newSpanID(), parentID: parent, name: name,
		start: time.Now(), sampled: sampled, sticky: sticky}
	return ContextWithSpan(ctx, s), s
}

// Traceparent renders the span as a W3C traceparent header value, with
// the sampled flag set when head sampling or the sticky bit say the
// trace records. Empty on nil.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	flags := "00"
	if s.sampled || (s.sticky != nil && s.sticky.Load()) {
		flags = "01"
	}
	return "00-" + s.traceID.String() + "-" + s.spanID.String() + "-" + flags
}

// InjectTraceparent sets the traceparent header (and the request-ID
// header, when the context carries one) on an outbound request so the
// receiving server continues this trace. No-op without a span.
func InjectTraceparent(ctx context.Context, h http.Header) {
	if s := SpanFromContext(ctx); s != nil {
		h.Set(TraceparentHeader, s.Traceparent())
	}
	if id := RequestIDFrom(ctx); id != "" {
		h.Set(RequestIDHeader, id)
	}
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace>-<16 hex span>-<2 hex flags>"). ok is false on any
// malformed or all-zero field.
func ParseTraceparent(v string) (traceID TraceID, spanID SpanID, sampled bool, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || parts[0] != "00" ||
		len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(traceID[:], []byte(parts[1])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(spanID[:], []byte(parts[2])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(parts[3])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if traceID.IsZero() || spanID.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return traceID, spanID, flags[0]&1 == 1, true
}

// Validate checks the span set against the documented schema
// (OBSERVABILITY.md): version, ID shapes, positive timings, and — for
// spans whose parent is in the set — child-inside-parent timing. Used by
// the spans smoke gates and tests.
func (ss SpanSet) Validate() error {
	if ss.Version != SpanVersion {
		return fmt.Errorf("spans: version %d, want %d", ss.Version, SpanVersion)
	}
	byID := make(map[string]*SpanRecord, len(ss.Spans))
	for i := range ss.Spans {
		s := &ss.Spans[i]
		where := fmt.Sprintf("span %d (%s)", i, s.Name)
		if !isHex(s.TraceID, 32) {
			return fmt.Errorf("spans: %s: bad trace_id %q", where, s.TraceID)
		}
		if !isHex(s.SpanID, 16) {
			return fmt.Errorf("spans: %s: bad span_id %q", where, s.SpanID)
		}
		if s.ParentID != "" && !isHex(s.ParentID, 16) {
			return fmt.Errorf("spans: %s: bad parent_id %q", where, s.ParentID)
		}
		if s.Name == "" {
			return fmt.Errorf("spans: span %d: empty name", i)
		}
		if s.StartUnixNanos <= 0 || s.DurationNanos < 0 {
			return fmt.Errorf("spans: %s: bad timing start=%d dur=%d", where, s.StartUnixNanos, s.DurationNanos)
		}
		byID[s.SpanID] = s
	}
	for i := range ss.Spans {
		s := &ss.Spans[i]
		p, ok := byID[s.ParentID]
		if s.ParentID == "" || !ok {
			continue
		}
		if p.TraceID != s.TraceID {
			return fmt.Errorf("spans: span %d (%s): parent %s in different trace", i, s.Name, s.ParentID)
		}
		if s.StartUnixNanos < p.StartUnixNanos {
			return fmt.Errorf("spans: span %d (%s): starts before parent %s", i, s.Name, p.Name)
		}
	}
	return nil
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// RenderTree writes the span set as indented duration trees, one
// section per trace ordered by the trace's earliest span. Spans whose
// parent is missing from the set (evicted, sampled out, or recorded by
// the other process) render as additional roots.
func (ss SpanSet) RenderTree(w io.Writer) {
	children := make(map[string][]*SpanRecord)
	byID := make(map[string]*SpanRecord)
	var roots []*SpanRecord
	traceStart := make(map[string]int64)
	for i := range ss.Spans {
		s := &ss.Spans[i]
		byID[s.SpanID] = s
		if t, ok := traceStart[s.TraceID]; !ok || s.StartUnixNanos < t {
			traceStart[s.TraceID] = s.StartUnixNanos
		}
	}
	for i := range ss.Spans {
		s := &ss.Spans[i]
		if s.ParentID != "" && byID[s.ParentID] != nil {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	slices.SortStableFunc(roots, func(a, b *SpanRecord) int {
		return cmp.Or(cmp.Compare(traceStart[a.TraceID], traceStart[b.TraceID]),
			strings.Compare(a.TraceID, b.TraceID), cmp.Compare(a.StartUnixNanos, b.StartUnixNanos))
	})
	lastTrace := ""
	for _, root := range roots {
		if root.TraceID != lastTrace {
			fmt.Fprintf(w, "trace %s\n", root.TraceID)
			lastTrace = root.TraceID
		}
		renderSpan(w, root, children, 1)
	}
}

func renderSpan(w io.Writer, s *SpanRecord, children map[string][]*SpanRecord, indent int) {
	pad := strings.Repeat("  ", indent)
	fmt.Fprintf(w, "%s%-28s %10s", pad, s.Name, time.Duration(s.DurationNanos).Round(time.Microsecond))
	if s.Process != "" {
		fmt.Fprintf(w, "  [%s]", s.Process)
	}
	if s.Error {
		fmt.Fprint(w, "  ERROR")
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(w, "  %s=%s", a.Key, a.Value)
	}
	fmt.Fprintln(w)
	kids := children[s.SpanID]
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].StartUnixNanos < kids[j].StartUnixNanos })
	for _, c := range kids {
		renderSpan(w, c, children, indent+1)
	}
}
