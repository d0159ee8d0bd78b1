package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Telemetry
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.RecordBlock(BlockTrace{Column: "x"})
	r.Reset()
	s := r.Snapshot()
	if s.Blocks != 0 || len(s.Events) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
}

func TestAggregation(t *testing.T) {
	r := NewTelemetry()
	r.RecordBlock(BlockTrace{
		Column: "a", Block: 0, Type: "integer", Rows: 10,
		CascadeDepth: 2, CompressNanos: 400,
		Root: &Node{
			Depth: 0, Kind: "int", Scheme: "RLE", EstimatedRatio: 5, ActualRatio: 4.5,
			InputBytes: 40, OutputBytes: 9, PickNanos: 60,
			Children: []*Node{
				{Depth: 1, Kind: "int", Scheme: "OneValue", PickNanos: 15},
				{Depth: 1, Kind: "int", Scheme: "FastBP", PickNanos: 25},
			},
		},
	})
	r.RecordBlock(BlockTrace{
		Column: "a", Block: 1, Type: "integer", Rows: 10,
		CascadeDepth: 1, CompressNanos: 100,
		Root: &Node{
			Depth: 0, Kind: "int", Scheme: "FastBP", EstimatedRatio: 2, ActualRatio: 1.8,
			InputBytes: 40, OutputBytes: 22, PickNanos: 50,
		},
	})
	s := r.Snapshot()
	if s.Blocks != 2 {
		t.Fatalf("blocks = %d, want 2", s.Blocks)
	}
	if s.InputBytes != 80 || s.OutputBytes != 31 {
		t.Fatalf("bytes = %d -> %d, want 80 -> 31", s.InputBytes, s.OutputBytes)
	}
	if got := s.RootPicks["integer"]["RLE"]; got != 1 {
		t.Fatalf("root RLE picks = %d, want 1", got)
	}
	if got := s.CascadePicks["int"]["FastBP"]; got != 2 {
		t.Fatalf("cascade FastBP picks = %d, want 2", got)
	}
	if got := s.DepthHist[2]; got != 1 {
		t.Fatalf("depth-2 blocks = %d, want 1", got)
	}
	// 4.5 lands in [4,8), 1.8 in [1,2).
	if s.RatioHist.Counts[1] != 1 || s.RatioHist.Counts[3] != 1 {
		t.Fatalf("ratio histogram = %v", s.RatioHist.Counts)
	}
	// Selection time sums PickNanos over every node of both trees.
	if s.SampleNanos != 150 || s.CompressNanos != 500 {
		t.Fatalf("sample %dns of %dns, want 150 of 500", s.SampleNanos, s.CompressNanos)
	}
	if s.SampleFraction() != 150.0/500.0 {
		t.Fatalf("sample fraction = %v", s.SampleFraction())
	}
	if s.CompressLatency.Count != 2 {
		t.Fatalf("compress latency count = %d, want 2", s.CompressLatency.Count)
	}
	rep := s.Report()
	for _, want := range []string{"blocks: 2", "RLE", "FastBP", "cascade depth used"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestSnapshotEventOrderDeterministic(t *testing.T) {
	r := NewTelemetry()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.RecordBlock(BlockTrace{Column: "c", Block: i, Root: &Node{Scheme: "Uncompressed", ActualRatio: 1}})
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	for i, ev := range s.Events {
		if ev.Block != i {
			t.Fatalf("event %d has block %d; snapshot not sorted", i, ev.Block)
		}
	}
}

func TestReset(t *testing.T) {
	r := NewTelemetry()
	r.RecordBlock(BlockTraceFromDecisions("a", 0, "integer", 100, 1, decisionsForTest()))
	r.RecordDecode(1, 100, 40, 1000)
	r.RecordCorruption(1)
	r.Reset()
	if s := r.Snapshot(); s.Blocks != 0 || len(s.Events) != 0 || s.DecodeBlocks != 0 || s.DecodeLatency.Count != 0 || s.CorruptBlocks != 0 {
		t.Fatalf("reset left data: %+v", s)
	}
}

func TestParallelPathStats(t *testing.T) {
	var nilRec *Telemetry
	nilRec.RecordWorkers("x", 4)
	nilRec.ObserveQueueWait("x", time.Millisecond)

	r := NewTelemetry()
	r.RecordWorkers("decompress_chunk", 4)
	r.RecordWorkers("decompress_chunk", 8)
	r.RecordWorkers("scan", 2)
	r.ObserveQueueWait("decompress_chunk", 5*time.Microsecond)
	r.ObserveQueueWait("decompress_chunk", 9*time.Microsecond)
	s := r.Snapshot()
	dc, ok := s.Parallel["decompress_chunk"]
	if !ok {
		t.Fatalf("snapshot missing decompress_chunk path: %+v", s.Parallel)
	}
	if dc.Workers != 8 || dc.Runs != 2 {
		t.Fatalf("decompress_chunk stats = workers %d runs %d, want 8/2", dc.Workers, dc.Runs)
	}
	if dc.QueueWait.Count != 2 {
		t.Fatalf("queue-wait count = %d, want 2", dc.QueueWait.Count)
	}
	if sc := s.Parallel["scan"]; sc.Workers != 2 || sc.Runs != 1 {
		t.Fatalf("scan stats = %+v", sc)
	}
	rep := s.Report()
	for _, want := range []string{"parallel paths:", "decompress_chunk", "workers=8 runs=2", "queue-wait"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	r.Reset()
	if s := r.Snapshot(); len(s.Parallel) != 0 {
		t.Fatalf("reset left parallel stats: %+v", s.Parallel)
	}
}

func TestParallelPathConcurrentObserve(t *testing.T) {
	r := NewTelemetry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.RecordWorkers("p", 4)
			for j := 0; j < 100; j++ {
				r.ObserveQueueWait("p", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Parallel["p"].QueueWait.Count; got != 1600 {
		t.Fatalf("queue-wait count = %d, want 1600", got)
	}
	if got := s.Parallel["p"].Runs; got != 16 {
		t.Fatalf("runs = %d, want 16", got)
	}
}
