package btrblocks_test

import (
	"bytes"
	"fmt"
	"io"

	"btrblocks"
)

// ExampleCompressColumn round-trips one integer column through a column
// file.
func ExampleCompressColumn() {
	values := make([]int32, 10000)
	for i := range values {
		values[i] = int32(i / 100) // 100-value runs: an RLE-friendly column
	}
	col := btrblocks.IntColumn("sensor", values)

	data, err := btrblocks.CompressColumn(col, nil)
	if err != nil {
		panic(err)
	}
	got, err := btrblocks.DecompressColumn(data, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d rows -> %d bytes\n", got.Len(), len(data))
	fmt.Printf("round trip ok: %v\n", got.Ints[9999] == values[9999])
	// Output:
	// 10000 rows -> 154 bytes
	// round trip ok: true
}

// ExampleInspect parses a compressed file's layout without decompressing
// it.
func ExampleInspect() {
	values := make([]int32, 10000)
	for i := range values {
		values[i] = int32(i / 100)
	}
	data, err := btrblocks.CompressColumn(btrblocks.IntColumn("sensor", values), nil)
	if err != nil {
		panic(err)
	}

	info, err := btrblocks.Inspect(data)
	if err != nil {
		panic(err)
	}
	col := info.Columns[0]
	fmt.Printf("%s file, %d bytes, accounted %d\n", info.Kind, info.Size, info.AccountedBytes())
	fmt.Printf("column %q: %d rows in %d block(s)\n", col.Name, col.Rows, len(col.Blocks))
	fmt.Printf("root scheme: %s, cascade depth %d\n",
		col.Blocks[0].Data.Code, col.Blocks[0].Data.MaxDepth()+1)
	// Output:
	// column file, 154 bytes, accounted 154
	// column "sensor": 10000 rows in 1 block(s)
	// root scheme: RLE, cascade depth 3
}

// Example_stream writes two chunks into a framed stream and reads them
// back.
func Example_stream() {
	schema := []btrblocks.Column{
		btrblocks.IntColumn("id", nil),
		btrblocks.StringColumn("name", nil),
	}
	var buf bytes.Buffer
	w, err := btrblocks.NewWriter(&buf, schema, nil)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 2; i++ {
		chunk := &btrblocks.Chunk{Columns: []btrblocks.Column{
			btrblocks.IntColumn("id", []int32{1, 2, 3}),
			btrblocks.StringColumn("name", []string{"ada", "bob", "cyd"}),
		}}
		if err := w.WriteChunk(chunk); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}

	r, err := btrblocks.NewReader(&buf, nil)
	if err != nil {
		panic(err)
	}
	rows := 0
	for {
		chunk, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(err)
		}
		rows += chunk.NumRows()
	}
	fmt.Printf("%d chunks, %d rows, schema %s:%s\n",
		r.Chunks(), rows, r.Schema()[1].Name, r.Schema()[1].Type)
	// Output:
	// 2 chunks, 6 rows, schema name:string
}

// Example_telemetry records scheme-selection telemetry during
// compression.
func Example_telemetry() {
	values := make([]int32, 64000)
	for i := range values {
		values[i] = int32(i % 4)
	}
	opt := &btrblocks.Options{Telemetry: btrblocks.NewTelemetry()}
	if _, err := btrblocks.CompressColumn(btrblocks.IntColumn("flags", values), opt); err != nil {
		panic(err)
	}
	snap := opt.Telemetry.Snapshot()
	root := snap.Events[0].Root
	fmt.Printf("%d block(s), root scheme %s\n", snap.Blocks, root.Scheme)
	fmt.Printf("%d -> %d bytes\n", root.InputBytes, root.OutputBytes)
	// Output:
	// 1 block(s), root scheme FastBP
	// 256000 -> 16509 bytes
}
