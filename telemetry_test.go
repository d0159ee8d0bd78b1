package btrblocks

import (
	"bytes"
	"strings"
	"testing"
)

func TestTelemetryRecordsBlocks(t *testing.T) {
	rec := NewTelemetry()
	opt := &Options{Telemetry: rec}
	chunk := makeTestChunk(150000, 11)
	col := chunk.Columns[0]
	data, err := CompressColumn(col, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Blocks != 3 {
		t.Fatalf("recorded %d blocks", snap.Blocks)
	}
	if snap.InputBytes != int64(col.UncompressedBytes()) {
		t.Fatalf("input bytes %d, column is %d", snap.InputBytes, col.UncompressedBytes())
	}
	if snap.Ratio() <= 1 {
		t.Fatalf("ratio %.2f", snap.Ratio())
	}

	// The recorded root schemes must agree with what's in the file.
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, bt := range snap.Events {
		if bt.Column != col.Name || bt.Block != i {
			t.Fatalf("block trace %d: %s/%d", i, bt.Column, bt.Block)
		}
		if bt.Root == nil || bt.CascadeDepth < 1 {
			t.Fatalf("block %d: depth %d, root %v", i, bt.CascadeDepth, bt.Root)
		}
		if got := info.Columns[0].Blocks[i].Data.Code.String(); bt.Root.Scheme != got {
			t.Fatalf("block %d: telemetry says %s, file says %s", i, bt.Root.Scheme, got)
		}
		if bt.Root.EstimatedRatio <= 0 || bt.Root.ActualRatio <= 0 {
			t.Fatalf("block %d: est %.2f actual %.2f", i, bt.Root.EstimatedRatio, bt.Root.ActualRatio)
		}
		// Selection runs inside the block's compression, so the tree's
		// pick time is part of its compress time.
		if sample := pickNanos(bt.Root); bt.CompressNanos <= 0 || sample <= 0 || sample > bt.CompressNanos {
			t.Fatalf("block %d: sample %dns of %dns", i, sample, bt.CompressNanos)
		}
	}
	if err := snap.Trace().Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snap.Report(), "root scheme picks") {
		t.Fatalf("report missing pick table:\n%s", snap.Report())
	}
}

// pickNanos sums the selection time of n's subtree.
func pickNanos(n *TraceNode) int64 {
	sum := n.PickNanos
	for _, c := range n.Children {
		sum += pickNanos(c)
	}
	return sum
}

func TestTelemetryOutputIdenticalToUntracked(t *testing.T) {
	chunk := makeTestChunk(100000, 12)
	for _, col := range chunk.Columns {
		plain, err := CompressColumn(col, nil)
		if err != nil {
			t.Fatal(err)
		}
		tracked, err := CompressColumn(col, &Options{Telemetry: NewTelemetry()})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, tracked) {
			t.Fatalf("column %q: telemetry changed the output bytes", col.Name)
		}
	}
}

func TestTelemetryThroughChunkAndStream(t *testing.T) {
	rec := NewTelemetry()
	opt := &Options{Telemetry: rec, Parallelism: 4}
	chunk := makeTestChunk(130000, 13)
	if _, err := CompressChunk(chunk, opt); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Blocks != 9 { // 3 columns x 3 blocks
		t.Fatalf("recorded %d blocks", snap.Blocks)
	}
	if len(snap.RootPicks) != 3 { // integer, double, string
		t.Fatalf("root picks for %d types: %v", len(snap.RootPicks), snap.RootPicks)
	}

	rec.Reset()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, chunk.Columns, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(chunk); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Blocks; got != 9 {
		t.Fatalf("stream writer recorded %d blocks", got)
	}
}

func TestTelemetryNilIsDefault(t *testing.T) {
	var rec *Telemetry
	if rec.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	opt := &Options{Telemetry: nil}
	if _, err := CompressColumn(IntColumn("x", []int32{1, 2, 3}), opt); err != nil {
		t.Fatal(err)
	}
	if snap := rec.Snapshot(); snap.Blocks != 0 {
		t.Fatalf("nil recorder has %d blocks", snap.Blocks)
	}
}
