package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"btrblocks/internal/core"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow: p50 must land in the fast range,
	// p99 in the slow range.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(300 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if p50 := h.Quantile(0.50); p50 > 10*time.Millisecond {
		t.Errorf("p50 = %v, want <= 10ms", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 100*time.Millisecond {
		t.Errorf("p99 = %v, want >= 100ms", p99)
	}
	if sum := h.Sum(); sum != 90*100*time.Microsecond+10*300*time.Millisecond {
		t.Errorf("Sum = %v", sum)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.P50Nanos <= 0 || s.P99Nanos < s.P50Nanos {
		t.Errorf("bad snapshot: %+v", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	if s := h.Snapshot(); s.Count != 0 || s.MeanNano != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
}

func TestHistogramPromLines(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(time.Hour) // overflow bucket

	var b bytes.Buffer
	h.WritePromLines(&b, "x_seconds", `route="/v1/block"`)
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{route="/v1/block",le="+Inf"} 2`,
		`x_seconds_count{route="/v1/block"} 2`,
		`x_seconds_sum{route="/v1/block"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the last finite bucket holds 1 (the
	// 1ms observation), +Inf holds 2.
	if !strings.Contains(out, `le="4.194304"} 1`) {
		t.Errorf("expected last finite bucket count 1:\n%s", out)
	}

	b.Reset()
	h.WritePromLines(&b, "y_seconds", "")
	if !strings.Contains(b.String(), `y_seconds_bucket{le="+Inf"} 2`) ||
		!strings.Contains(b.String(), "y_seconds_count 2") {
		t.Errorf("unlabeled prom output wrong:\n%s", b.String())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}

// decisionsForTest builds the post-order trail of a Dict cascade:
//
//	root Dict (level 0)
//	├── dict values FastBP (level 1)
//	└── codes RLE (level 1)
//	    ├── run values FastBP (level 2)
//	    └── run lengths OneValue (level 2)
func decisionsForTest() []core.Decision {
	cand := func(codes ...core.Code) []core.CandidateEstimate {
		out := make([]core.CandidateEstimate, len(codes))
		for i, c := range codes {
			out[i] = core.CandidateEstimate{Code: c, EstimatedRatio: float64(i + 1), SampleBytes: 10}
		}
		return out
	}
	return []core.Decision{
		{Kind: core.KindInt, Level: 1, Code: core.CodeFastBP, Values: 10, InputBytes: 40, OutputBytes: 20,
			EstimatedRatio: 2, Candidates: cand(core.CodeUncompressed, core.CodeFastBP)},
		{Kind: core.KindInt, Level: 2, Code: core.CodeFastBP, Values: 5, InputBytes: 20, OutputBytes: 10,
			EstimatedRatio: 2, Candidates: cand(core.CodeUncompressed, core.CodeFastBP)},
		{Kind: core.KindInt, Level: 2, Code: core.CodeOneValue, Values: 5, InputBytes: 20, OutputBytes: 9,
			EstimatedRatio: 2.2, Candidates: cand(core.CodeOneValue)},
		{Kind: core.KindInt, Level: 1, Code: core.CodeRLE, Values: 100, InputBytes: 400, OutputBytes: 40,
			EstimatedRatio: 9, Candidates: cand(core.CodeUncompressed, core.CodeFastBP, core.CodeRLE)},
		{Kind: core.KindInt, Level: 0, Code: core.CodeDict, Values: 100, InputBytes: 400, OutputBytes: 80,
			EstimatedRatio: 5, Candidates: cand(core.CodeUncompressed, core.CodeDict)},
	}
}

func TestBlockTraceTreeReconstruction(t *testing.T) {
	bt := BlockTraceFromDecisions("col", 3, "integer", 100, 12345, decisionsForTest())
	if bt.Root == nil {
		t.Fatal("no root")
	}
	if bt.Root.Scheme != "Dictionary" || bt.Root.Depth != 0 {
		t.Fatalf("root = %s depth %d", bt.Root.Scheme, bt.Root.Depth)
	}
	if bt.CascadeDepth != 3 {
		t.Errorf("CascadeDepth = %d, want 3", bt.CascadeDepth)
	}
	if len(bt.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(bt.Root.Children))
	}
	if bt.Root.Children[0].Scheme != "FastBP" || bt.Root.Children[1].Scheme != "RLE" {
		t.Errorf("children = %s, %s; want FastBP, RLE (sibling order)",
			bt.Root.Children[0].Scheme, bt.Root.Children[1].Scheme)
	}
	rle := bt.Root.Children[1]
	if len(rle.Children) != 2 || rle.Children[0].Scheme != "FastBP" || rle.Children[1].Scheme != "OneValue" {
		t.Fatalf("RLE children wrong: %+v", rle.Children)
	}
	// The winner flag must land on the node's scheme.
	won := 0
	for _, c := range bt.Root.Candidates {
		if c.Won {
			won++
			if c.Scheme != "Dictionary" {
				t.Errorf("winner = %s", c.Scheme)
			}
		}
	}
	if won != 1 {
		t.Errorf("%d winners", won)
	}
	if bt.Root.ActualRatio != 5 { // 400/80
		t.Errorf("ActualRatio = %g", bt.Root.ActualRatio)
	}
}

func TestTraceValidate(t *testing.T) {
	bt := BlockTraceFromDecisions("col", 0, "integer", 100, 1, decisionsForTest())
	tr := Trace{Version: TraceVersion, Blocks: []BlockTrace{bt}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	bad := tr
	bad.Version = 99
	if err := bad.Validate(); err == nil {
		t.Error("wrong version accepted")
	}

	broken := Trace{Version: TraceVersion, Blocks: []BlockTrace{{Column: "c", Type: "integer", Rows: 10}}}
	if err := broken.Validate(); err == nil {
		t.Error("missing root accepted")
	}
}

// TestTracerConcurrentAndSorted records decision trees from several
// goroutines into the one compress-side recorder: the Trace built from
// its snapshot holds every block in (column, block) order, validates,
// and is empty again after Reset.
func TestTracerConcurrentAndSorted(t *testing.T) {
	r := NewTelemetry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.RecordBlock(BlockTraceFromDecisions("col", g*50+i, "integer", 10, 1, decisionsForTest()))
			}
		}(g)
	}
	wg.Wait()
	tr := r.Snapshot().Trace()
	if len(tr.Blocks) != 200 {
		t.Fatalf("%d blocks, want 200", len(tr.Blocks))
	}
	for i := range tr.Blocks {
		if tr.Blocks[i].Block != i {
			t.Fatalf("blocks not sorted: index %d holds block %d", i, tr.Blocks[i].Block)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if got := r.Snapshot().Trace(); len(got.Blocks) != 0 {
		t.Errorf("Reset left %d blocks", len(got.Blocks))
	}
}

// TestNilTracer checks the decision-trace side of a nil recorder: it
// is not enabled, recording and resetting do not panic, and its Trace
// is empty but versioned.
func TestNilTracer(t *testing.T) {
	var r *Telemetry
	if r.Enabled() {
		t.Error("nil recorder enabled")
	}
	r.RecordBlock(BlockTrace{}) // must not panic
	r.Reset()
	if tr := r.Snapshot().Trace(); tr.Version != TraceVersion || len(tr.Blocks) != 0 {
		t.Errorf("nil trace: %+v", tr)
	}
}

func TestRenderTree(t *testing.T) {
	bt := BlockTraceFromDecisions("price", 2, "integer", 100, 1, decisionsForTest())
	var b strings.Builder
	Trace{Version: TraceVersion, Blocks: []BlockTrace{bt}}.RenderTree(&b)
	out := b.String()
	for _, want := range []string{"price block 2", "Dictionary", "* RLE", "OneValue", "est"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
}

func TestRequestIDsUnique(t *testing.T) {
	const n = 1000
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				ids <- NewRequestID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool, n)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := WithRequestID(t.Context(), "r-42")
	if got := RequestIDFrom(ctx); got != "r-42" {
		t.Errorf("RequestIDFrom = %q", got)
	}
	if got := RequestIDFrom(t.Context()); got != "" {
		t.Errorf("empty context gave %q", got)
	}
}

// lockedBuffer makes bytes.Buffer safe for the concurrent writes the
// slog handler issues from many request goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestLoggerConcurrentJSONLines(t *testing.T) {
	buf := &lockedBuffer{}
	logger := NewLogger(buf, slog.LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				logger.Info("request", "request_id", NewRequestID(), "route", "/v1/block", "worker", g)
			}
		}(g)
	}
	wg.Wait()
	// Every line must be a standalone valid JSON record.
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("corrupt log line %d: %v: %s", lines, err, sc.Text())
		}
		if rec["msg"] != "request" || rec["request_id"] == "" {
			t.Fatalf("unexpected record: %s", sc.Text())
		}
		lines++
	}
	if lines != 800 {
		t.Fatalf("%d log lines, want 800", lines)
	}
}
