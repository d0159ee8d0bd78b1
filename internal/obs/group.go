package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// This file adds label-keyed metric groups on top of Histogram: a
// HistogramGroup keys histograms by one label value (e.g. a replica
// name) and a CounterGroup does the same for counters. Both render as a
// single Prometheus metric family with one series per label value —
// the shape the cluster router uses for per-replica latency, attempt,
// and error series, and every server for its per-route series.

// group is a set of T keyed by one label value. Lookup is lock-guarded
// but the returned *T is a shared atomic type, so hot paths resolve
// their label once and record lock-free afterwards. The zero value is
// ready to use.
type group[T any] struct {
	mu sync.Mutex
	m  map[string]*T
}

// At returns (creating on first use) the series for one label value.
func (g *group[T]) At(label string) *T {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*T)
	}
	v := g.m[label]
	if v == nil {
		v = new(T)
		g.m[label] = v
	}
	return v
}

// Labels returns the known label values, sorted.
func (g *group[T]) Labels() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return sortedKeys(g.m)
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// HistogramGroup is a set of Histograms keyed by one label value.
type HistogramGroup struct{ group[Histogram] }

// WritePromLines renders the group as one Prometheus histogram family:
// per label value, the cumulative _bucket/_sum/_count series labeled
// {labelKey="value"}. HELP/TYPE headers are the caller's job.
func (g *HistogramGroup) WritePromLines(w io.Writer, name, labelKey string) {
	for _, l := range g.Labels() {
		g.At(l).WritePromLines(w, name, fmt.Sprintf("%s=%q", labelKey, l))
	}
}

// CounterGroup is a set of int64 counters keyed by one label value.
type CounterGroup struct{ group[atomic.Int64] }

// Add adds delta to the labeled counter.
func (g *CounterGroup) Add(label string, delta int64) { g.At(label).Add(delta) }

// WritePromLines renders the group as one Prometheus family with one
// sample line per label value. HELP/TYPE headers are the caller's job.
func (g *CounterGroup) WritePromLines(w io.Writer, name, labelKey string) {
	for _, l := range g.Labels() {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, labelKey, l, g.At(l).Load())
	}
}
