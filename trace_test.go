package btrblocks

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// mixedTraceColumn builds the golden trace input: three 1000-value
// segments with sharply different shapes, compressed at BlockSize 1000 so
// each lands in its own block — a one-value segment, a runs segment, and
// a uniques segment.
func mixedTraceColumn() Column {
	const seg = 1000
	values := make([]int32, 0, 3*seg)
	for i := 0; i < seg; i++ { // block 0: a single value
		values = append(values, 7)
	}
	for i := 0; i < seg; i++ { // block 1: runs of 100
		values = append(values, int32(i/100))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < seg; i++ { // block 2: wide-range uniques
		values = append(values, rng.Int31())
	}
	return IntColumn("mixed", values)
}

// traceMixed compresses the golden column with a telemetry recorder
// attached and returns its trace next to the compression's own
// per-block stats.
func traceMixed(t *testing.T) (DecisionTrace, ColumnStats) {
	t.Helper()
	rec := NewTelemetry()
	chunk := &Chunk{Columns: []Column{mixedTraceColumn()}}
	cc, err := CompressChunk(chunk, &Options{BlockSize: 1000, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot().Trace(), cc.Stats[0]
}

func TestTraceMixedColumnGolden(t *testing.T) {
	tr, st := traceMixed(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks) != 3 {
		t.Fatalf("%d block traces, want 3", len(tr.Blocks))
	}

	// Every traced winner must be the scheme the compression actually
	// wrote (read back from the block payloads).
	for i, bt := range tr.Blocks {
		if bt.Block != i || bt.Column != "mixed" || bt.Rows != 1000 {
			t.Fatalf("block %d identity: %+v", i, bt)
		}
		if got, want := bt.Root.Scheme, st.BlockSchemes[i].String(); got != want {
			t.Errorf("block %d: traced winner %s, compression chose %s", i, got, want)
		}
	}

	// Block 0 (one value): the OneValue fast path wins without trial
	// encodes — a single candidate, marked won.
	b0 := tr.Blocks[0]
	if b0.Root.Scheme != SchemeOneValue.String() {
		t.Errorf("one-value block: winner %s", b0.Root.Scheme)
	}
	if len(b0.Root.Candidates) != 1 || !b0.Root.Candidates[0].Won {
		t.Errorf("one-value block candidates: %+v", b0.Root.Candidates)
	}

	// Block 1 (runs of 100): RLE must win against at least the
	// Uncompressed baseline and the bit-packers, and its two sub-streams
	// (values, lengths) must show up as depth-1 children.
	b1 := tr.Blocks[1]
	if b1.Root.Scheme != SchemeRLE.String() {
		t.Errorf("runs block: winner %s", b1.Root.Scheme)
	}
	if len(b1.Root.Candidates) < 2 {
		t.Errorf("runs block: only %d candidates", len(b1.Root.Candidates))
	}
	assertOneWinner(t, "runs block", b1.Root.Candidates, b1.Root.Scheme)
	if len(b1.Root.Children) != 2 {
		t.Errorf("runs block: %d sub-streams, want 2 (values, lengths)", len(b1.Root.Children))
	}
	for _, c := range b1.Root.Children {
		if c.Depth != 1 {
			t.Errorf("runs block child depth %d", c.Depth)
		}
	}

	// Block 2 (wide-range uniques): every pool scheme gets trial-encoded
	// and the estimates are recorded; nothing can beat bit-packing by
	// much, but the full candidate slate is the point here.
	b2 := tr.Blocks[2]
	if len(b2.Root.Candidates) < 2 {
		t.Errorf("uniques block: only %d candidates", len(b2.Root.Candidates))
	}
	assertOneWinner(t, "uniques block", b2.Root.Candidates, b2.Root.Scheme)
	for _, c := range b2.Root.Candidates {
		if c.EstimatedRatio <= 0 {
			t.Errorf("uniques block: candidate %s estimate %g", c.Scheme, c.EstimatedRatio)
		}
	}
}

func assertOneWinner(t *testing.T, where string, cands []TraceCandidate, scheme string) {
	t.Helper()
	won := 0
	for _, c := range cands {
		if c.Won {
			won++
			if c.Scheme != scheme {
				t.Errorf("%s: candidate %s marked won, node scheme %s", where, c.Scheme, scheme)
			}
		}
	}
	if won != 1 {
		t.Errorf("%s: %d winners among %d candidates", where, won, len(cands))
	}
}

// normalizeTrace zeroes the wall-time fields, which legitimately differ
// between runs; everything else must be byte-identical.
func normalizeTrace(tr *DecisionTrace) {
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		n.PickNanos = 0
		for _, c := range n.Children {
			walk(c)
		}
	}
	for i := range tr.Blocks {
		tr.Blocks[i].CompressNanos = 0
		if tr.Blocks[i].Root != nil {
			walk(tr.Blocks[i].Root)
		}
	}
}

func TestTraceDeterministicAcrossRuns(t *testing.T) {
	a, _ := traceMixed(t)
	b, _ := traceMixed(t)
	normalizeTrace(&a)
	normalizeTrace(&b)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("traces differ across runs:\n%s\n---\n%s", aj, bj)
	}
}

// TestTraceSharedSinkParallel drives many concurrent compressions into
// one recorder — the data-race check for the compression side (run
// under -race in CI tier 1).
func TestTraceSharedSinkParallel(t *testing.T) {
	rec := NewTelemetry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			col := mixedTraceColumn()
			col.Name = fmt.Sprintf("col-%d", w)
			if _, err := CompressColumn(col, &Options{BlockSize: 1000, Telemetry: rec}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	tr := rec.Snapshot().Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks) != workers*3 {
		t.Fatalf("%d block traces, want %d", len(tr.Blocks), workers*3)
	}
	// Snapshot order is (column, block) regardless of recording order.
	for i := 1; i < len(tr.Blocks); i++ {
		a, b := tr.Blocks[i-1], tr.Blocks[i]
		if a.Column > b.Column || (a.Column == b.Column && a.Block >= b.Block) {
			t.Fatalf("snapshot out of order at %d: %s/%d before %s/%d",
				i, a.Column, a.Block, b.Column, b.Block)
		}
	}
}

// TestTraceDisabledIsDefault asserts the zero-overhead contract: no
// recorder on Options means the compression path records nothing, and
// a nil recorder's trace is an empty versioned document.
func TestTraceDisabledIsDefault(t *testing.T) {
	var rec *Telemetry
	if _, err := CompressColumn(mixedTraceColumn(), &Options{BlockSize: 1000, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	rec.RecordBlock(BlockTrace{}) // must not panic
	tr := rec.Snapshot().Trace()
	if len(tr.Blocks) != 0 || tr.Version != TraceVersion {
		t.Fatalf("nil recorder trace: %+v", tr)
	}
}
