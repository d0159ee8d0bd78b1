package blockstore

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"testing"

	"btrblocks"
)

// BenchmarkBlockWire is the BENCH_serve.json trajectory of the block
// wire, on one 64000-row block per type: encode (cached block → frame
// bytes on a writer), decode (frame bytes → BlockValues) and fetch (a
// cache-hit GET over loopback, both together plus HTTP). MB/s counts
// frame bytes. The -json rows do the same for format=json, and their
// MB/s counts JSON body bytes.
func BenchmarkBlockWire(b *testing.B) {
	types := []btrblocks.Type{btrblocks.TypeInt, btrblocks.TypeInt64, btrblocks.TypeDouble, btrblocks.TypeString}
	names := map[btrblocks.Type]string{
		btrblocks.TypeInt: "int", btrblocks.TypeInt64: "int64", btrblocks.TypeDouble: "double", btrblocks.TypeString: "string",
	}
	contents := map[string][]byte{}
	for _, typ := range types {
		data, err := btrblocks.CompressColumn(fullBlock(typ).Col, nil)
		if err != nil {
			b.Fatal(err)
		}
		contents[names[typ]] = data
	}
	store, err := NewStore(contents, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	for _, typ := range types {
		name := names[typ]
		blk, err := store.Block(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		frame := encodeFrame(b, blk, hostLittleEndian)
		b.Run("encode/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := writeBlockFrame(io.Discard, blk, hostLittleEndian); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			rd := bytes.NewReader(frame)
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				if _, err := readBlockFrame(name, rd, int64(len(frame)), hostLittleEndian); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fetch/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Block(ctx, name, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		var body bytes.Buffer
		if err := writeBlockJSON(&body, blockView(blk, hostLittleEndian)); err != nil {
			b.Fatal(err)
		}
		b.Run("encode-json/"+name, func(b *testing.B) {
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := writeBlockJSON(io.Discard, blockView(blk, hostLittleEndian)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode-json/"+name, func(b *testing.B) {
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeBlockJSON(body.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fetch-json/"+name, func(b *testing.B) {
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cl.BlockJSON(ctx, name, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
