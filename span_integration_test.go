package btrblocks

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"btrblocks/internal/obs"
)

// spanTestColumn builds a multi-block int column whose compression and
// scan paths fan out per-block work.
func spanTestColumn(t *testing.T) ([]byte, Column) {
	t.Helper()
	vals := make([]int32, 40000)
	for i := range vals {
		vals[i] = int32(i % 977)
	}
	col := Column{Name: "v", Type: TypeInt, Ints: vals}
	data, err := CompressColumn(col, &Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return data, col
}

// TestSpanRecordingConcurrentCompressScan drives compression and scans
// under recorded spans from many goroutines at Parallelism 1 and
// GOMAXPROCS, so `go test -race` can see any data race between the
// per-block task spans and the recorder's ring.
func TestSpanRecordingConcurrentCompressScan(t *testing.T) {
	data, col := spanTestColumn(t)
	rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Capacity: 256, Process: "test"})

	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		opt := &Options{BlockSize: 4096, Parallelism: par}
		var wg sync.WaitGroup
		errCh := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, root := rec.StartRoot(context.Background(), "test.roundtrip")
				if _, err := CompressColumnContext(ctx, col, opt); err != nil {
					errCh <- err
					return
				}
				got, err := DecompressColumnContext(ctx, data, opt)
				if err != nil {
					errCh <- err
					return
				}
				if got.Len() != col.Len() {
					errCh <- fmt.Errorf("decoded %d rows, want %d", got.Len(), col.Len())
					return
				}
				ix, err := ParseColumnIndex(data)
				if err != nil {
					errCh <- err
					return
				}
				if _, _, err := ix.CountContext(ctx, data, IntEq(42), opt); err != nil {
					errCh <- err
					return
				}
				root.End()
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("parallelism %d: %v", par, err)
		}
	}
	if ss := rec.Snapshot(obs.SpanFilter{}); len(ss.Spans) == 0 {
		t.Fatal("no spans recorded")
	} else if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeDisabledTracingZeroAlloc pins the disabled-tracing cost of
// the decode hot path at zero: decompressing through the Context
// variant with a span-free context must allocate exactly as much as the
// span-unaware entry point. This is the property that lets the tracing
// hooks stay compiled into every per-block task unconditionally.
func TestDecodeDisabledTracingZeroAlloc(t *testing.T) {
	data, _ := spanTestColumn(t)
	opt := &Options{Parallelism: 1}
	ctx := context.Background()

	base := testing.AllocsPerRun(20, func() {
		if _, err := DecompressColumn(data, opt); err != nil {
			t.Fatal(err)
		}
	})
	withCtx := testing.AllocsPerRun(20, func() {
		if _, err := DecompressColumnContext(ctx, data, opt); err != nil {
			t.Fatal(err)
		}
	})
	if withCtx > base {
		t.Fatalf("span-free context decode allocates %.0f, span-unaware %.0f: tracing is not free when disabled", withCtx, base)
	}
}
