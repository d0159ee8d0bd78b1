// Package obs is the unified observability layer of the repository:
// cascade decision traces that explain *why* the sampling-based scheme
// selection picked what it picked (the data behind the paper's Figure 8
// scheme-pool ablation), a shared log-scale latency histogram used by
// both the compression telemetry and the HTTP serving layer, and slog
// helpers that give every served request a stable ID.
//
// The package deliberately has no HTTP or file-format knowledge: the
// compression pipeline feeds it core.Decision values, the blockstore
// feeds it durations, and both read back structured snapshots.
package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// histBuckets are the histogram's upper bounds in seconds: a pure
// log-scale ladder doubling from 1µs to ~4s (23 bounds), wide enough to
// cover a per-block decode (microseconds) and a cold HTTP scan (seconds)
// with the same type. A final +Inf bucket is implicit.
var histBuckets = func() [23]float64 {
	var b [23]float64
	ub := 1e-6
	for i := range b {
		b[i] = ub
		ub *= 2
	}
	return b
}()

// Histogram is a fixed-bucket log-scale duration histogram with atomic
// counters: concurrency-safe without locks, cheap enough for per-block
// hot paths, and renderable as a Prometheus histogram (cumulative
// _bucket/_sum/_count series). The zero value is ready to use.
type Histogram struct {
	counts   [len(histBuckets) + 1]atomic.Int64
	sumNanos atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.sumNanos.Add(d.Nanoseconds())
	s := d.Seconds()
	for i, ub := range histBuckets {
		if s <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(histBuckets)].Add(1)
}

// Reset zeroes all counters. Not atomic with respect to concurrent
// Observe calls; callers that need a consistent reset must serialize
// (the telemetry Recorder resets under its own lock).
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sumNanos.Store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sumNanos.Load())
}

// Quantile returns an upper-bound estimate of the p-quantile (0 < p <= 1):
// the upper bound of the first bucket whose cumulative count reaches
// p·total. Returns 0 when empty; observations past the last bound report
// the last bound (the histogram cannot resolve beyond it).
func (h *Histogram) Quantile(p float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, ub := range histBuckets {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(ub * float64(time.Second))
		}
	}
	return time.Duration(histBuckets[len(histBuckets)-1] * float64(time.Second))
}

// HistogramSnapshot is the JSON-friendly summary of a Histogram.
type HistogramSnapshot struct {
	Count    int64   `json:"count"`
	SumNanos int64   `json:"sum_nanos"`
	P50Nanos int64   `json:"p50_nanos"`
	P95Nanos int64   `json:"p95_nanos"`
	P99Nanos int64   `json:"p99_nanos"`
	MeanNano float64 `json:"mean_nanos"`
}

// Snapshot summarizes the histogram: count, sum and estimated p50/p95/p99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.Count(),
		SumNanos: h.sumNanos.Load(),
		P50Nanos: h.Quantile(0.50).Nanoseconds(),
		P95Nanos: h.Quantile(0.95).Nanoseconds(),
		P99Nanos: h.Quantile(0.99).Nanoseconds(),
	}
	if s.Count > 0 {
		s.MeanNano = float64(s.SumNanos) / float64(s.Count)
	}
	return s
}

// String renders the summary as "n=…, p50=…, p95=…, p99=…".
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v",
		s.Count, time.Duration(s.P50Nanos), time.Duration(s.P95Nanos), time.Duration(s.P99Nanos))
}

// WritePromLines writes the histogram's sample lines (_bucket, _sum,
// _count) in Prometheus text exposition format. labels is a rendered
// label list without braces (e.g. `route="/v1/block"`) merged with the
// le label, or "" for none. HELP/TYPE headers are the caller's job so
// one metric family can span several label sets.
func (h *Histogram) WritePromLines(w io.Writer, name, labels string) {
	sep, set := "", ""
	if labels != "" {
		sep, set = ",", "{"+labels+"}"
	}
	var cum int64
	for i, ub := range histBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, fmt.Sprintf("%g", ub), cum)
	}
	cum += h.counts[len(histBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, float64(h.sumNanos.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, cum)
}
