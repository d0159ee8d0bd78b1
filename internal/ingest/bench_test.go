package ingest

import (
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"btrblocks"
	"btrblocks/internal/tpch"
)

// BenchmarkAppend measures acknowledged ingestion throughput (rows/s)
// as a function of batch size: each iteration appends one batch and
// waits for its WAL sync, which is the durability cost an HTTP client
// pays per request. Small batches are fsync-bound; large batches
// amortize the sync and become memory-bandwidth-bound.
func BenchmarkAppend(b *testing.B) {
	for _, batch := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			dir := b.TempDir()
			svc, err := Open(Config{
				Dir:              dir,
				ChunkRows:        1 << 30, // benchmark the WAL path, not the flush
				FlushInterval:    -1,
				CompactMinChunks: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			chunk := benchChunk(batch)
			b.SetBytes(int64(chunk.UncompressedBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Append("bench", chunk); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkAppendParallel measures group-commit scaling: many
// goroutines appending concurrently share fsyncs, so acknowledged
// rows/s should rise well past the serial number.
func BenchmarkAppendParallel(b *testing.B) {
	const batch = 100
	dir := b.TempDir()
	svc, err := Open(Config{
		Dir:              dir,
		ChunkRows:        1 << 30,
		FlushInterval:    -1,
		CompactMinChunks: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		chunk := benchChunk(batch)
		for pb.Next() {
			if _, err := svc.Append("bench", chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkFlushPublish measures the compress-and-publish side: one
// full buffer becoming a committed chunk on disk.
func BenchmarkFlushPublish(b *testing.B) {
	for _, rows := range []int{1000, 16000, 64000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			dir := b.TempDir()
			svc, err := Open(Config{
				Dir:              dir,
				ChunkRows:        1 << 30,
				FlushInterval:    -1,
				CompactMinChunks: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			chunk := benchChunk(rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Append("bench", chunk); err != nil {
					b.Fatal(err)
				}
				if err := svc.FlushTable("bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// benchChunk builds a realistic mixed batch: id, a low-cardinality
// dimension string, and a metric value.
func benchChunk(rows int) *btrblocks.Chunk {
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	var dim btrblocks.Column
	dim.Name, dim.Type = "dim", btrblocks.TypeString
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		vals[i] = float64(i%97) * 1.5
		dim.Strings = dim.Strings.Append(fmt.Sprintf("region-%02d", i%16))
	}
	return &btrblocks.Chunk{Columns: []btrblocks.Column{
		{Name: "id", Type: btrblocks.TypeInt64, Ints64: ids},
		dim,
		{Name: "val", Type: btrblocks.TypeDouble, Doubles: vals},
	}}
}

// BenchmarkAppendDecode measures what an append costs before the WAL:
// one request body, JSON (POST /v1/append) or line protocol (POST
// /v1/write), decoded into the columnar batch the service appends, for
// a table registered with lineitem's 13 columns. SetBytes is the body
// length, so MB/s is body bytes decoded per second.
func BenchmarkAppendDecode(b *testing.B) {
	for _, format := range []string{"json", "lines"} {
		for _, rows := range []int{1, 500, 5000} {
			b.Run(fmt.Sprintf("%s/rows=%d", format, rows), func(b *testing.B) {
				src := tpch.Lineitem(rows, 1)
				body := renderJSONBody("lineitem", &src)
				if format == "lines" {
					body = renderLineBody("lineitem", &src)
				}
				schema := schemaOf(&src)
				if _, err := benchDecode(body, format == "lines", schema); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := benchDecode(body, format == "lines", schema); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// renderJSONBody writes src as a POST /v1/append body, one object per
// row with every column, the way bench/ renders its batches.
func renderJSONBody(table string, src *btrblocks.Chunk) []byte {
	out := []byte(`{"table":` + strconv.Quote(table) + `,"rows":[`)
	for r := 0; r < src.NumRows(); r++ {
		if r > 0 {
			out = append(out, ',')
		}
		out = append(out, '{')
		for i := range src.Columns {
			c := &src.Columns[i]
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, strconv.Quote(c.Name)...)
			out = append(out, ':')
			switch c.Type {
			case btrblocks.TypeInt:
				out = strconv.AppendInt(out, int64(c.Ints[r]), 10)
			case btrblocks.TypeInt64:
				out = strconv.AppendInt(out, c.Ints64[r], 10)
			case btrblocks.TypeDouble:
				out = strconv.AppendFloat(out, c.Doubles[r], 'g', -1, 64)
			default:
				s, _ := json.Marshal(c.Strings.At(r))
				out = append(out, s...)
			}
		}
		out = append(out, '}')
	}
	return append(out, "]}"...)
}

// renderLineBody writes src as a POST /v1/write body: integers with the
// i suffix, doubles bare, strings quoted with \" and \\ escaped.
func renderLineBody(table string, src *btrblocks.Chunk) []byte {
	var out []byte
	for r := 0; r < src.NumRows(); r++ {
		out = append(out, table...)
		out = append(out, ' ')
		for i := range src.Columns {
			c := &src.Columns[i]
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, c.Name...)
			out = append(out, '=')
			switch c.Type {
			case btrblocks.TypeInt:
				out = append(strconv.AppendInt(out, int64(c.Ints[r]), 10), 'i')
			case btrblocks.TypeInt64:
				out = append(strconv.AppendInt(out, c.Ints64[r], 10), 'i')
			case btrblocks.TypeDouble:
				out = strconv.AppendFloat(out, c.Doubles[r], 'g', -1, 64)
			default:
				out = append(out, '"')
				for _, ch := range c.Strings.View(r) {
					if ch == '"' || ch == '\\' {
						out = append(out, '\\')
					}
					out = append(out, ch)
				}
				out = append(out, '"')
			}
		}
		out = append(out, '\n')
	}
	return out
}

// benchDecode decodes one append body against a registered schema, as
// the handler does before it calls AppendContext.
func benchDecode(body []byte, lines bool, schema []btrblocks.Column) (btrblocks.Chunk, error) {
	decode := decodeJSON
	if lines {
		decode = decodeLines
	}
	b, err := decode(body)
	if err != nil {
		return btrblocks.Chunk{}, err
	}
	return b.chunk(schema)
}
