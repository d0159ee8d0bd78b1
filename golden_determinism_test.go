// Golden determinism test: the committed testdata corpus, compressed at
// workers 1 and N, must produce byte-identical v2 files and identical
// Verify reports. This is the harness's cross-machine anchor — any
// worker-count dependence sneaking into the compressor shows up as a
// diff against the serial bytes, and any drift in the format itself
// shows up against the pinned digest below.
package btrblocks_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"btrblocks"
	"btrblocks/internal/csvconv"
)

// goldenChunkSHA256 pins the v2 chunk container bytes for
// testdata/trace_smoke.csv compressed with BlockSize 800 at any worker
// count. Regenerate it (and justify the format change in FORMAT.md) if
// the encoding legitimately changes.
const goldenChunkSHA256 = "c3db257376aa06c9d9a8d8dabbc0dc5d6b199897013cc7ddd9b12ec87017cc43"

func goldenCorpus(t *testing.T) *btrblocks.Chunk {
	t.Helper()
	f, err := os.Open("testdata/trace_smoke.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	types := []btrblocks.Type{
		btrblocks.TypeInt, btrblocks.TypeInt64, btrblocks.TypeDouble, btrblocks.TypeString,
	}
	chunk, err := csvconv.ReadChunk(f, types)
	if err != nil {
		t.Fatal(err)
	}
	return chunk
}

func TestGoldenDeterminism(t *testing.T) {
	chunk := goldenCorpus(t)

	encode := func(workers int) []byte {
		opt := &btrblocks.Options{BlockSize: 800, Parallelism: workers}
		cc, err := btrblocks.CompressChunk(chunk, opt)
		if err != nil {
			t.Fatalf("compress at %d workers: %v", workers, err)
		}
		return cc.EncodeFile()
	}

	serial := encode(1)
	for _, workers := range []int{2, 8} {
		if got := encode(workers); !bytes.Equal(serial, got) {
			t.Fatalf("chunk file bytes at %d workers differ from serial", workers)
		}
	}

	sum := sha256.Sum256(serial)
	if got := hex.EncodeToString(sum[:]); got != goldenChunkSHA256 {
		t.Fatalf("golden corpus digest drifted:\n got  %s\n want %s\n"+
			"(a deliberate format change must update goldenChunkSHA256)", got, goldenChunkSHA256)
	}

	// The deep Verify report over the golden bytes is identical at every
	// worker count — down to the JSON encoding.
	var report []byte
	for _, workers := range []int{1, 2, 8} {
		rep := btrblocks.Verify(serial, &btrblocks.VerifyOptions{Deep: true, Parallelism: workers})
		if !rep.OK {
			t.Fatalf("golden corpus fails verify at %d workers", workers)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if report == nil {
			report = js
		} else if !bytes.Equal(report, js) {
			t.Fatalf("verify report at %d workers differs from serial", workers)
		}
	}

	// And the golden bytes round-trip: every column decodes back to the
	// CSV corpus at both worker counts.
	cc, err := btrblocks.DecodeFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got, err := btrblocks.DecompressChunk(cc, &btrblocks.Options{BlockSize: 800, Parallelism: workers})
		if err != nil {
			t.Fatalf("decompress at %d workers: %v", workers, err)
		}
		if got.NumRows() != chunk.NumRows() {
			t.Fatalf("rows %d != %d", got.NumRows(), chunk.NumRows())
		}
		for ci := range chunk.Columns {
			want, have := chunk.Columns[ci], got.Columns[ci]
			for i := 0; i < want.Len(); i++ {
				if want.Nulls.IsNull(i) != have.Nulls.IsNull(i) {
					t.Fatalf("col %s row %d: NULL mismatch", want.Name, i)
				}
			}
		}
	}
}

// TestDecompressAllocationBound pins what "write each value once" means
// for memory: decoding the testdata corpus allocates at most 1.3x the
// bytes it decodes (1.04x as one block per column, 1.17x as nine; the
// assembly that appended per-block vectors into a second, column-sized
// one was at 2.2x). The corpus is tiled to 64,800 rows, one default-size
// block and a bit, because at its own 2,400 rows the per-call constants —
// the block index, an FSST symbol table — outweigh the values.
func TestDecompressAllocationBound(t *testing.T) {
	if raceBuild {
		t.Skip("under -race sync.Pool drops a quarter of what is put back, decode arenas included")
	}
	chunk := goldenCorpus(t)
	for _, blockSize := range []int{8000, btrblocks.DefaultBlockSize} {
		var allocated, decoded float64
		for _, col := range chunk.Columns {
			tiled := btrblocks.Column{Name: col.Name, Type: col.Type}
			for i := 0; i < 27; i++ {
				tiled.Ints = append(tiled.Ints, col.Ints...)
				tiled.Ints64 = append(tiled.Ints64, col.Ints64...)
				tiled.Doubles = append(tiled.Doubles, col.Doubles...)
				for r := 0; col.Type == btrblocks.TypeString && r < col.Strings.Len(); r++ {
					tiled.Strings = tiled.Strings.AppendBytes(col.Strings.View(r))
				}
			}
			data, err := btrblocks.CompressColumn(tiled, &btrblocks.Options{BlockSize: blockSize})
			if err != nil {
				t.Fatal(err)
			}
			opt := &btrblocks.Options{Parallelism: 1}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := btrblocks.DecompressColumn(data, opt); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("block size %d, %s: %.0f B allocated for %d decoded", blockSize, col.Name, perRun, tiled.UncompressedBytes())
			allocated += perRun
			decoded += float64(tiled.UncompressedBytes())
		}
		if allocated > 1.3*decoded {
			t.Errorf("block size %d: decoding allocates %.2fx the decoded bytes, want at most 1.3x", blockSize, allocated/decoded)
		}
	}
}
