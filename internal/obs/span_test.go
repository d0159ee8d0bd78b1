package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNilSafety(t *testing.T) {
	var r *SpanRecorder
	if r.Enabled() {
		t.Fatal("nil recorder enabled")
	}
	ctx, s := r.StartRoot(context.Background(), "root")
	if s != nil {
		t.Fatal("nil recorder returned a span")
	}
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 7)
	s.SetError(errors.New("x"))
	s.End()
	if s.Traceparent() != "" {
		t.Fatal("nil span traceparent")
	}
	if got := s.TraceID(); !got.IsZero() {
		t.Fatal("nil span trace ID")
	}
	_, c := StartChild(ctx, "child")
	if c != nil {
		t.Fatal("child of no-span context")
	}
	if got := r.Snapshot(SpanFilter{}); len(got.Spans) != 0 || got.Version != SpanVersion {
		t.Fatalf("nil snapshot: %+v", got)
	}
	if st := r.Stats(); st != (SpanStats{}) {
		t.Fatalf("nil stats: %+v", st)
	}
}

// StartChild on a context without a span must not allocate: that is the
// disabled tracing path on the decode hot loop.
func TestStartChildDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		_, s := StartChild(ctx, "decode")
		s.SetAttrInt("i", 1)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartChild allocates %v per run", allocs)
	}
}

func TestSpanRecordAndTree(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 16, Process: "test"})
	ctx, root := r.StartRoot(context.Background(), "ingest.append")
	root.SetAttr("table", "t1")
	ctx2, c1 := StartChild(ctx, "wal.append")
	c1.End()
	_, c2 := StartChild(ctx2, "wal.frame")
	c2.End()
	root.End()

	ss := r.Snapshot(SpanFilter{})
	if len(ss.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(ss.Spans))
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	if ss.Process != "test" {
		t.Fatalf("process %q", ss.Process)
	}
	for _, s := range ss.Spans {
		if s.TraceID != root.TraceID().String() {
			t.Fatalf("span %s trace %s != root %s", s.Name, s.TraceID, root.TraceID())
		}
	}
	// Filter by trace ID.
	if got := r.Snapshot(SpanFilter{TraceID: root.TraceID().String()}); len(got.Spans) != 3 {
		t.Fatalf("trace filter: %d spans", len(got.Spans))
	}
	if got := r.Snapshot(SpanFilter{TraceID: strings.Repeat("0", 31) + "1"}); len(got.Spans) != 0 {
		t.Fatalf("other-trace filter: %d spans", len(got.Spans))
	}
	var buf bytes.Buffer
	ss.RenderTree(&buf)
	out := buf.String()
	if !strings.Contains(out, "trace "+root.TraceID().String()) {
		t.Fatalf("tree missing trace header:\n%s", out)
	}
	// wal.frame is nested two levels below the root.
	if !strings.Contains(out, "      wal.frame") {
		t.Fatalf("tree missing nested child:\n%s", out)
	}
	if !strings.Contains(out, "table=t1") {
		t.Fatalf("tree missing attr:\n%s", out)
	}
}

// The ring must evict strictly oldest-first: after capacity+k records,
// exactly the first k are gone.
func TestSpanRingEvictionOrder(t *testing.T) {
	const cap, extra = 8, 5
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: cap, Process: "test"})
	for i := 0; i < cap+extra; i++ {
		_, s := r.StartRoot(context.Background(), fmt.Sprintf("span-%02d", i))
		s.End()
	}
	ss := r.Snapshot(SpanFilter{})
	if len(ss.Spans) != cap {
		t.Fatalf("retained %d spans, want %d", len(ss.Spans), cap)
	}
	names := make(map[string]bool)
	for _, s := range ss.Spans {
		names[s.Name] = true
	}
	for i := 0; i < extra; i++ {
		if names[fmt.Sprintf("span-%02d", i)] {
			t.Fatalf("span-%02d not evicted; retained %v", i, names)
		}
	}
	for i := extra; i < cap+extra; i++ {
		if !names[fmt.Sprintf("span-%02d", i)] {
			t.Fatalf("span-%02d missing; retained %v", i, names)
		}
	}
	st := r.Stats()
	if st.Recorded != cap+extra || st.Evicted != extra {
		t.Fatalf("stats %+v", st)
	}
}

func TestHeadSampling(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 64, SampleEvery: 4})
	for i := 0; i < 16; i++ {
		_, s := r.StartRoot(context.Background(), "op")
		s.End()
	}
	ss := r.Snapshot(SpanFilter{})
	if len(ss.Spans) != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4", len(ss.Spans))
	}
	if st := r.Stats(); st.SampledOut != 12 {
		t.Fatalf("sampled_out %d", st.SampledOut)
	}
}

// An error flips the sticky bit: the erroring span and every span of the
// trace finishing after it record even when head sampling said no.
func TestStickyBitOnError(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 64, SampleEvery: 1 << 30})
	ctx, root := r.StartRoot(context.Background(), "root")
	_, ok := StartChild(ctx, "fine")
	ok.End() // finishes before the flip: lost, by design
	_, bad := StartChild(ctx, "bad")
	bad.SetError(errors.New("boom"))
	bad.End()
	root.End()
	ss := r.Snapshot(SpanFilter{})
	got := map[string]bool{}
	for _, s := range ss.Spans {
		got[s.Name] = true
	}
	if !got["bad"] || !got["root"] {
		t.Fatalf("sticky bit lost error path: %v", got)
	}
	if got["fine"] {
		t.Fatalf("span finished before the flip was recorded: %v", got)
	}
	for _, s := range ss.Spans {
		if s.Name == "bad" && !s.Error {
			t.Fatal("bad span not marked error")
		}
	}
}

func TestStickyBitOnSlowSpan(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	r := NewSpanRecorder(SpanRecorderConfig{
		Capacity: 64, SampleEvery: 1 << 30, SlowThreshold: time.Nanosecond, Logger: logger,
	})
	ctx, root := r.StartRoot(context.Background(), "root")
	_, c := StartChild(ctx, "slow")
	time.Sleep(time.Millisecond)
	c.End()
	root.End()
	ss := r.Snapshot(SpanFilter{})
	if len(ss.Spans) != 2 {
		t.Fatalf("slow span did not force-sample: %d spans", len(ss.Spans))
	}
	var rec struct {
		Msg     string `json:"msg"`
		Span    string `json:"span"`
		TraceID string `json:"trace_id"`
	}
	line, _, _ := strings.Cut(logBuf.String(), "\n")
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow log not JSON: %v: %q", err, line)
	}
	if rec.Msg != "slow span" || rec.Span != "slow" || rec.TraceID != root.TraceID().String() {
		t.Fatalf("slow log record: %+v", rec)
	}
}

func TestMinDurationFilter(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 16})
	_, fast := r.StartRoot(context.Background(), "fast")
	fast.End()
	_, slow := r.StartRoot(context.Background(), "slow")
	time.Sleep(2 * time.Millisecond)
	slow.End()
	ss := r.Snapshot(SpanFilter{MinDuration: time.Millisecond})
	if len(ss.Spans) != 1 || ss.Spans[0].Name != "slow" {
		t.Fatalf("min-duration filter: %+v", ss.Spans)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 16, Process: "a"})
	ctx, s := r.StartRoot(context.Background(), "client")
	tp := s.Traceparent()
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q", tp)
	}
	traceID, parentID, sampled, ok := ParseTraceparent(tp)
	if !ok || !sampled {
		t.Fatalf("parse %q: ok=%v sampled=%v", tp, ok, sampled)
	}
	if traceID != s.TraceID() || parentID != s.SpanID() {
		t.Fatalf("round trip: got %s/%s want %s/%s", traceID, parentID, s.TraceID(), s.SpanID())
	}

	// Inject carries both headers.
	ctx = WithRequestID(ctx, "r1234-000001")
	h := make(http.Header)
	InjectTraceparent(ctx, h)
	if h.Get(TraceparentHeader) != tp {
		t.Fatalf("injected %q, want %q", h.Get(TraceparentHeader), tp)
	}
	if h.Get(RequestIDHeader) != "r1234-000001" {
		t.Fatalf("request ID header %q", h.Get(RequestIDHeader))
	}

	// Remote side continues the same trace.
	r2 := NewSpanRecorder(SpanRecorderConfig{Capacity: 16, Process: "b", SampleEvery: 1 << 30})
	_, srv := r2.StartRemote(context.Background(), "server", tp)
	srv.End()
	s.End()
	got := r2.Snapshot(SpanFilter{})
	if len(got.Spans) != 1 {
		t.Fatalf("remote did not honor sampled flag: %d spans", len(got.Spans))
	}
	if got.Spans[0].TraceID != s.TraceID().String() {
		t.Fatalf("remote trace %s != %s", got.Spans[0].TraceID, s.TraceID())
	}
	if got.Spans[0].ParentID != s.SpanID().String() {
		t.Fatalf("remote parent %s != %s", got.Spans[0].ParentID, s.SpanID())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"01-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01", // unknown version
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("b", 16) + "-01", // zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("b", 16) + "-01", // non-hex
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16),         // missing flags
	}
	for _, v := range bad {
		if _, _, _, ok := ParseTraceparent(v); ok {
			t.Fatalf("accepted malformed %q", v)
		}
	}
	// Malformed header starts a fresh root rather than dropping the span.
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 4})
	_, s := r.StartRemote(context.Background(), "srv", "garbage")
	if s == nil || s.TraceID().IsZero() {
		t.Fatal("StartRemote with garbage did not start a root")
	}
	s.End()
}

func TestSpanSetValidateRejects(t *testing.T) {
	tid := strings.Repeat("a", 32)
	good := SpanRecord{TraceID: tid, SpanID: strings.Repeat("b", 16), Name: "x", StartUnixNanos: 10, DurationNanos: 1}
	cases := []struct {
		name string
		ss   SpanSet
	}{
		{"version", SpanSet{Version: 99, Spans: []SpanRecord{good}}},
		{"trace id", SpanSet{Version: SpanVersion, Spans: []SpanRecord{{TraceID: "zz", SpanID: good.SpanID, Name: "x", StartUnixNanos: 1}}}},
		{"span id", SpanSet{Version: SpanVersion, Spans: []SpanRecord{{TraceID: tid, SpanID: "short", Name: "x", StartUnixNanos: 1}}}},
		{"empty name", SpanSet{Version: SpanVersion, Spans: []SpanRecord{{TraceID: tid, SpanID: good.SpanID, StartUnixNanos: 1}}}},
		{"timing", SpanSet{Version: SpanVersion, Spans: []SpanRecord{{TraceID: tid, SpanID: good.SpanID, Name: "x", StartUnixNanos: 0}}}},
		{"cross-trace parent", SpanSet{Version: SpanVersion, Spans: []SpanRecord{
			good,
			{TraceID: strings.Repeat("c", 32), SpanID: strings.Repeat("d", 16), ParentID: good.SpanID, Name: "y", StartUnixNanos: 11, DurationNanos: 1},
		}}},
		{"child before parent", SpanSet{Version: SpanVersion, Spans: []SpanRecord{
			good,
			{TraceID: tid, SpanID: strings.Repeat("d", 16), ParentID: good.SpanID, Name: "y", StartUnixNanos: 5, DurationNanos: 1},
		}}},
	}
	for _, c := range cases {
		if err := c.ss.Validate(); err == nil {
			t.Fatalf("%s: validated", c.name)
		}
	}
	if err := (SpanSet{Version: SpanVersion, Spans: []SpanRecord{good}}).Validate(); err != nil {
		t.Fatalf("good set rejected: %v", err)
	}
}

// Concurrent recording from many goroutines must be race-free and lose
// nothing the ring can hold (run under -race in CI).
func TestSpanRecorderConcurrent(t *testing.T) {
	const perG = 50
	workers := runtime.GOMAXPROCS(0)
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: workers*perG + 16, SlowThreshold: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, root := r.StartRoot(context.Background(), fmt.Sprintf("g%d", g))
				_, c := StartChild(ctx, "child")
				c.SetAttrInt("i", int64(i))
				c.End()
				root.End()
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if want := uint64(workers * perG * 2); st.Recorded != want {
		t.Fatalf("recorded %d, want %d", st.Recorded, want)
	}
	if err := r.Snapshot(SpanFilter{}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// The recorder runs no goroutines; recording and snapshotting must not
// leave any behind.
func TestSpanRecorderNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 32})
	for i := 0; i < 100; i++ {
		ctx, root := r.StartRoot(context.Background(), "op")
		_, c := StartChild(ctx, "child")
		c.End()
		root.End()
		r.Snapshot(SpanFilter{})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d > %d before", runtime.NumGoroutine(), before)
}

func TestSpanEndIdempotent(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Capacity: 16})
	_, s := r.StartRoot(context.Background(), "op")
	s.End()
	s.End()
	if st := r.Stats(); st.Recorded != 1 {
		t.Fatalf("double End recorded %d", st.Recorded)
	}
}
