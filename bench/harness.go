package main

import (
	"context"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is what one op reports back to the loop.
type outcome struct {
	bytes int  // user value bytes that crossed the system boundary
	ok    bool // false: transport error, non-2xx, or a reply that differs from the reference
}

// instance is one set-up system under test: servers started, caches
// warmed, references computed.
type instance interface {
	// do runs op i of the seeded stream and verifies its reply.
	do(ctx context.Context, i uint64) outcome
	// describe returns a stable text for op i without running it; the
	// op-sequence digest hashes it.
	describe(i uint64) string
	// finish runs what must happen after the measured phase (drain,
	// end-state verification). It returns the workload's stored ratio,
	// the per-layer numbers that exist only once the drain has run, and
	// any background error the servers hid from the clients.
	finish(ctx context.Context) (storedRatio float64, late values, err error)
	// close stops every server and goroutine the instance started.
	close()

	// spanName names op i's client span in the traced run: the op class,
	// and for plans which plan.
	spanName(i uint64) string
	// replay issues the traced ops again one boundary down (ids and ns
	// are their client spans and durations, by op index) and returns the
	// per-layer numbers the workload can measure.
	replay(ctx context.Context, t *tracer, ids []uint64, ns []int64, sc scale) (values, error)
}

// sample is one timed op: how long it took, when it completed (since
// the loop started) and the value bytes it moved.
type sample struct {
	ns    int64
	at    int64
	bytes int
}

// loopResult is the raw yield of one measured phase.
type loopResult struct {
	samples []sample // every caller's, unordered; one per op attempted
	wall    time.Duration
	failed  int64
	rssMB   []rssSample // resident set, sampled while the loop ran
}

type rssSample struct {
	at int64
	mb float64
}

// callers is the closed loop's width: the clients of this system are
// scan workers and batch writers that wait for each reply, so each
// caller sends its next op only after the previous one is verified.
func callers() int { return min(runtime.NumCPU(), 2) }

// closedLoop drives inst with n callers until the deadline passes (or
// maxOps ops were issued, when maxOps > 0). Callers draw op indices
// from one counter, so the op sequence is the same whatever n is.
func closedLoop(ctx context.Context, inst instance, n int, dur time.Duration, first uint64, maxOps uint64) loopResult {
	var res loopResult
	perCaller := make([][]sample, n)
	var next atomic.Uint64
	next.Store(first)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples := make([]sample, 0, 1<<16)
			for {
				i := next.Add(1) - 1
				if maxOps > 0 && i-first >= maxOps {
					break
				}
				t0 := time.Now()
				if maxOps == 0 && !t0.Before(deadline) {
					break
				}
				out := inst.do(ctx, i)
				t1 := time.Now()
				samples = append(samples, sample{int64(t1.Sub(t0)), int64(t1.Sub(start)), out.bytes})
				if !out.ok {
					atomic.AddInt64(&res.failed, 1)
				}
			}
			perCaller[c] = samples
		}(c)
	}
	stop := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				res.rssMB = append(res.rssMB, rssSample{int64(now.Sub(start)), currentRSSMB()})
			}
		}
	}()
	wg.Wait()
	res.wall = time.Since(start)
	close(stop)
	<-rssDone
	for _, ss := range perCaller {
		res.samples = append(res.samples, ss...)
	}
	return res
}

// quantile returns the q-quantile of sorted ns (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// statWindows is how many equal stretches of wall time a measured phase
// is cut into. Every end-to-end number but the p99 is the trimmed mean of
// the windows' numbers (the lowest and highest fifth dropped): one slow
// stretch — a GC cycle, a neighbour on the host — then moves windows that
// are dropped, not the reported value, while work that recurs every few
// seconds (flush, compaction) is averaged over instead of flipping a
// median between its two modes.
const statWindows = 10

// windowStats is what one window of the measured phase yields.
type windowStats struct {
	p50ms, p99ms, opsPerS, mbPerS, peakRSSMB float64
}

// foldWindows cuts the phase into statWindows windows by completion
// time and returns the per-metric trimmed mean over the windows, and the
// p99 over all of them.
func foldWindows(res loopResult) windowStats {
	width := max(int64(res.wall)/statWindows, 1)
	lat := make([][]int64, statWindows)
	bytes := make([]int64, statWindows)
	rss := make([]float64, statWindows)
	win := func(at int64) int { return int(min(at/width, statWindows-1)) }
	for _, s := range res.samples {
		w := win(s.at)
		lat[w] = append(lat[w], s.ns)
		bytes[w] += int64(s.bytes)
	}
	for _, r := range res.rssMB {
		w := win(r.at)
		rss[w] = max(rss[w], r.mb)
	}
	var p50, ops, mb []float64
	var all []int64
	secs := float64(width) / 1e9
	for w := range lat {
		slices.Sort(lat[w])
		p50 = append(p50, float64(quantile(lat[w], 0.5))/1e6)
		ops = append(ops, float64(len(lat[w]))/secs)
		mb = append(mb, float64(bytes[w])/1e6/secs)
		all = append(all, lat[w]...)
	}
	// The tail is read off the whole phase: a one-second window of the
	// slower workloads holds some 200 ops, two of them beyond its p99,
	// and a percentile wants at least ten samples beyond it.
	slices.Sort(all)
	return windowStats{trimmedMean(p50), float64(quantile(all, 0.99)) / 1e6, trimmedMean(ops), trimmedMean(mb), trimmedMean(rss)}
}

// trimmedMean drops the lowest and highest fifth of a and averages the
// rest.
func trimmedMean(a []float64) float64 {
	s := append([]float64(nil), a...)
	sort.Float64s(s)
	s = s[len(s)/5 : len(s)-len(s)/5]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func medianFloat(a []float64) float64 {
	s := append([]float64(nil), a...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sequenceDigest hashes the descriptions of the first n ops: equal for
// equal seeds, different otherwise, whatever the run length was.
func sequenceDigest(inst instance, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(inst.describe(uint64(i))))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// usage is a snapshot of the process counters the run reports deltas of.
type usage struct {
	cpu        time.Duration
	totalAlloc uint64
	gcPause    time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// currentRSSMB reads the resident set from /proc/self/statm (pages).
func currentRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64) // 0 on a malformed file: reported as is
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// settleGoroutines waits for the goroutine count to fall back to base
// (idle HTTP connections and server loops take a moment to exit) and
// returns how many are still left over.
func settleGoroutines(base int) int {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= base {
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}
