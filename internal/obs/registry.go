package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
)

// This file is the repository's one Prometheus text exposition. Each
// server lists its series once, in a Registry, and that list drives both
// its /metrics body and the catalogue test that holds OBSERVABILITY.md
// to what the servers emit.

// Registry is an ordered list of Prometheus metric families, each bound
// to the live value it reads. The zero value is ready to use; register
// everything before the first WriteTo.
type Registry struct {
	families []family
}

type family struct {
	name, help, kind string
	// write renders the family's samples; nil keeps the name in Names
	// but leaves the family out of the exposition.
	write func(w io.Writer, name string)
}

func (r *Registry) add(name, help, kind string, write func(io.Writer, string)) {
	r.families = append(r.families, family{name, help, kind, write})
}

// Counter registers a counter read from v.
func (r *Registry) Counter(name, help string, v *atomic.Int64) {
	r.add(name, help, "counter", func(w io.Writer, n string) { fmt.Fprintf(w, "%s %d\n", n, v.Load()) })
}

// Gauge registers a gauge read from v.
func (r *Registry) Gauge(name, help string, v *atomic.Int64) {
	r.add(name, help, "gauge", func(w io.Writer, n string) { fmt.Fprintf(w, "%s %d\n", n, v.Load()) })
}

// Histogram registers an unlabeled histogram.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.add(name, help, "histogram", func(w io.Writer, n string) { h.WritePromLines(w, n, "") })
}

// CounterGroup registers a counter family with one series per value of
// label.
func (r *Registry) CounterGroup(name, help, label string, g *CounterGroup) {
	r.add(name, help, "counter", func(w io.Writer, n string) { g.WritePromLines(w, n, label) })
}

// HistogramGroup registers a histogram family with one histogram per
// value of label.
func (r *Registry) HistogramGroup(name, help, label string, g *HistogramGroup) {
	r.add(name, help, "histogram", func(w io.Writer, n string) { g.WritePromLines(w, n, label) })
}

// Routes registers a server's per-route request, error and latency
// families under prefix (e.g. "btrserved_http_requests_total").
func (r *Registry) Routes(prefix string, rt *Routes) {
	r.CounterGroup(prefix+"_http_requests_total", "HTTP requests by route.", "route", &rt.Requests)
	r.CounterGroup(prefix+"_http_errors_total", "Non-2xx HTTP responses by route.", "route", &rt.Errors)
	r.HistogramGroup(prefix+"_http_request_duration_seconds", "Request latency by route.", "route", &rt.Latency)
}

// Spans registers a span recorder's counters under prefix (e.g.
// "btrserved_spans_recorded_total"). With a nil recorder the names are
// registered but nothing is exposed.
func (r *Registry) Spans(prefix string, rec *SpanRecorder) {
	for _, c := range []struct {
		name, help string
		value      func(SpanStats) uint64
	}{
		{"spans_recorded_total", "Spans recorded into the ring buffer.", func(s SpanStats) uint64 { return s.Recorded }},
		{"spans_sampled_out_total", "Finished spans dropped by head sampling.", func(s SpanStats) uint64 { return s.SampledOut }},
		{"spans_evicted_total", "Recorded spans overwritten by newer ones.", func(s SpanStats) uint64 { return s.Evicted }},
	} {
		var write func(io.Writer, string)
		if rec != nil {
			value := c.value
			write = func(w io.Writer, n string) { fmt.Fprintf(w, "%s %d\n", n, value(rec.Stats())) }
		}
		r.add(prefix+"_"+c.name, c.help, "counter", write)
	}
}

// Names lists every registered family name in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}

// WriteTo renders the families in registration order as Prometheus text
// exposition.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	for _, f := range r.families {
		if f.write == nil {
			continue
		}
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.write(cw, f.name)
	}
	return cw.n, cw.err
}

// ServeHTTP serves the exposition: GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}

// countingWriter counts bytes written and keeps the first error, after
// which it writes nothing.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
