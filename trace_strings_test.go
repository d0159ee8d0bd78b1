package btrblocks_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"btrblocks"
	"btrblocks/coldata"
)

// TestStringDecisionsGolden pins every scheme decision made for string
// columns, down to the candidates' sample estimates: the tag column of
// testdata/trace_smoke.csv (one value, runs and uniques) and a generated
// column of long, shared-prefix values at medium and high cardinality.
// Everything a decision records is compared except its timing.
// TestTraceMixedColumnGolden covers the int32 side. UPDATE_GOLDEN=1
// rewrites the file.
func TestStringDecisionsGolden(t *testing.T) {
	tags := goldenCorpus(t).Columns[3]
	// two blocks of 150 long paths, one of values that never repeat
	var paths []string
	for i := 0; i < 2400; i++ {
		if i < 1600 {
			paths = append(paths, fmt.Sprintf("s3://lake.example/orders/region=eu-west/part-%05d.btr", i*7919%150))
		} else {
			paths = append(paths, fmt.Sprintf("cust-%06d|%s", i*7919%50021, [...]string{"BUILDING", "MACHINERY", "AUTOMOBILE"}[i%3]))
		}
	}
	generated := btrblocks.Column{Name: "paths", Type: btrblocks.TypeString, Strings: coldata.MakeStrings(paths)}

	var got strings.Builder
	for _, col := range []btrblocks.Column{tags, generated} {
		rec := btrblocks.NewTelemetry()
		chunk := &btrblocks.Chunk{Columns: []btrblocks.Column{col}}
		if _, err := btrblocks.CompressChunk(chunk, &btrblocks.Options{BlockSize: 800, Parallelism: 1, Telemetry: rec}); err != nil {
			t.Fatal(err)
		}
		for _, bt := range rec.Snapshot().Events {
			fmt.Fprintf(&got, "%s block %d: %d rows\n", bt.Column, bt.Block, bt.Rows)
			writeDecisions(&got, bt.Root)
		}
	}

	const path = "testdata/string_decisions.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}

// writeDecisions writes n and its sub-stream decisions, one line each,
// indented by cascade level.
func writeDecisions(b *strings.Builder, n *btrblocks.TraceNode) {
	fmt.Fprintf(b, "%s%s %s values=%d in=%d out=%d est=%v", strings.Repeat("  ", n.Depth+1),
		n.Kind, n.Scheme, n.Values, n.InputBytes, n.OutputBytes, n.EstimatedRatio)
	for _, c := range n.Candidates {
		fmt.Fprintf(b, " [%s %v %d %t]", c.Scheme, c.EstimatedRatio, c.SampleBytes, c.Won)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		writeDecisions(b, c)
	}
}
