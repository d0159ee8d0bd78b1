// Package parallel is the shared decode/compress worker-pool engine: a
// bounded pool that runs n index-addressed tasks on up to `workers`
// goroutines and guarantees the caller two properties the format layer
// builds its determinism contract on:
//
//  1. Every task index below the returned error's index has fully
//     completed. Workers claim indices from a monotonically increasing
//     counter and a claimed task always runs to completion, so when the
//     minimum failing index is e, indices 0..e-1 were claimed earlier
//     and finished. Combined with rule 2 this makes the error a caller
//     sees independent of the worker count.
//  2. When several tasks fail, Run returns the error of the smallest
//     index — exactly the error a serial left-to-right loop would have
//     returned first.
//
// With workers <= 1 the pool degenerates to a plain serial loop on the
// caller's goroutine, which is the reference behavior the parallel mode
// must be indistinguishable from.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"time"

	"btrblocks/internal/obs"
)

// Task is one unit of work, addressed by its index in [0, n).
type Task func(i int) error

// WorkerTask is a Task that also receives the identity of the worker
// running it: a stable id in [0, workers). Tasks claimed by the same
// worker never overlap in time, so per-worker state (scratch arenas,
// reusable buffers) indexed by the id needs no locking.
type WorkerTask func(worker, i int) error

// Observer receives scheduling telemetry from Observed runs. It is
// implemented by *obs.Telemetry; implementations must be safe for
// concurrent use.
type Observer interface {
	// RecordWorkers notes that one pool run on the named path used the
	// given number of workers.
	RecordWorkers(path string, workers int)
	// ObserveQueueWait records how long a task sat queued before a worker
	// claimed it (only observed when the pool actually runs parallel).
	ObserveQueueWait(path string, wait time.Duration)
}

// Workers normalizes a parallelism knob: values <= 0 mean "one worker
// per available CPU" (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes tasks 0..n-1 on up to `workers` goroutines and waits for
// them. See the package comment for the determinism contract. A nil ctx
// is valid and means "never cancelled".
func Run(ctx context.Context, n, workers int, fn Task) error {
	return Observed(ctx, n, workers, "", nil, fn)
}

// Observed is Run with scheduling telemetry: worker count and per-task
// queue-wait times are reported to o under the given path name. A nil
// Observer (or empty path) disables observation.
func Observed(ctx context.Context, n, workers int, path string, o Observer, fn Task) error {
	return ObservedWorkers(ctx, n, workers, path, o, func(_, i int) error { return fn(i) })
}

// ObservedWorkers is Observed for tasks that need to know which worker
// runs them. The worker id passed to fn is in [0, effective workers);
// the serial path (workers <= 1, or n == 1) always passes worker 0.
// Everything else — determinism contract, telemetry, cancellation — is
// identical to Observed.
func ObservedWorkers(ctx context.Context, n, workers int, path string, o Observer, fn WorkerTask) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if o != nil && path != "" {
		o.RecordWorkers(path, workers)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := spannedTask(ctx, path, 0, i, -1, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu      sync.Mutex
		next    int // next unclaimed task index, under mu
		minIdx  = -1
		minErr  error
		stopped bool
	)
	stop := make(chan struct{})
	halt := func() {
		if !stopped {
			stopped = true
			close(stop)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ctx != nil {
					select {
					case <-ctx.Done():
						mu.Lock()
						halt()
						mu.Unlock()
						return
					default:
					}
				}
				mu.Lock()
				if stopped || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				wait := time.Since(start)
				if o != nil && path != "" {
					o.ObserveQueueWait(path, wait)
				}
				if err := spannedTask(ctx, path, worker, i, wait, fn); err != nil {
					mu.Lock()
					if minIdx < 0 || i < minIdx {
						minIdx, minErr = i, err
					}
					halt()
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if minErr != nil {
		return minErr
	}
	return ctxErr(ctx)
}

// spannedTask runs one task, wrapped in a per-task child span tagged
// with worker id, task index, and queue wait when the context carries a
// span. With no span in the context (the common case) this adds only a
// context value lookup and zero allocations — the decode hot path's
// AllocsPerRun pin depends on that.
func spannedTask(ctx context.Context, path string, worker, i int, wait time.Duration, fn WorkerTask) error {
	if ctx == nil || path == "" || obs.SpanFromContext(ctx) == nil {
		return fn(worker, i)
	}
	_, sp := obs.StartChild(ctx, path+".task")
	sp.SetAttrInt("worker", int64(worker))
	sp.SetAttrInt("index", int64(i))
	if wait >= 0 {
		sp.SetAttrInt("queue_wait_ns", int64(wait))
	}
	err := fn(worker, i)
	sp.SetError(err)
	sp.End()
	return err
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
