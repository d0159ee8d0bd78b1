package core

import (
	"math/rand"
	"testing"
)

// scratchTestStream builds a compressed int stream that exercises the
// arena-fed decoders (RLE and Dict cascade temporaries).
func scratchTestStream(t *testing.T) ([]byte, []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	src := make([]int32, 40000)
	v := int32(0)
	for i := range src {
		if rng.Intn(20) == 0 {
			v = int32(rng.Intn(50))
		}
		src[i] = v
	}
	enc := Int.Compress(nil, src, DefaultConfig())
	return enc, src
}

// TestScratchEquivalence pins that decoding with an arena is
// bit-identical to decoding without one, including when the same arena
// is reused across many decodes (the per-worker steady state).
func TestScratchEquivalence(t *testing.T) {
	enc, src := scratchTestStream(t)
	plain := DefaultConfig()
	withArena := DefaultConfig()
	withArena.Scratch = new(Scratch)
	want, _, err := Int.Decompress(nil, enc, plain)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		got, _, err := Int.Decompress(nil, enc, withArena)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d values, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d value %d: got %d want %d (src %d)", round, i, got[i], want[i], src[i])
			}
		}
	}
}

// TestScratchNilSafe covers the nil-receiver contract: a nil *Scratch
// must behave as "no arena" on every accessor.
func TestScratchNilSafe(t *testing.T) {
	var s *Scratch
	if b := Int.buf(s); b != nil {
		t.Fatal("nil scratch returned a buffer")
	}
	Int.putBuf(s, make([]int32, 4))
	if b := Int64.buf(s); b != nil {
		t.Fatal("nil scratch returned a buffer")
	}
	Int64.putBuf(s, make([]int64, 4))
	if b := Double.buf(s); b != nil {
		t.Fatal("nil scratch returned a buffer")
	}
	Double.putBuf(s, make([]float64, 4))
}

// TestScratchReuse checks the free-list mechanics: a put buffer comes
// back with its capacity, the list is LIFO, and the size cap holds.
func TestScratchReuse(t *testing.T) {
	s := new(Scratch)
	b := append(Int.buf(s), make([]int32, 100)...)
	Int.putBuf(s, b)
	got := Int.buf(s)
	if cap(got) < 100 {
		t.Fatalf("recycled capacity %d, want >= 100", cap(got))
	}
	if len(got) != 0 {
		t.Fatalf("recycled length %d, want 0", len(got))
	}
	if again := Int.buf(s); again != nil {
		t.Fatal("empty free list returned a buffer")
	}
	for i := 0; i < 2*maxScratchSlices; i++ {
		Int.putBuf(s, make([]int32, 8))
	}
	if len(s.ints.free) > maxScratchSlices {
		t.Fatalf("free list grew to %d, cap is %d", len(s.ints.free), maxScratchSlices)
	}
	// zero-capacity buffers are not worth keeping
	empty := new(Scratch)
	Int.putBuf(empty, nil)
	if len(empty.ints.free) != 0 {
		t.Fatal("nil buffer was retained")
	}
}

// BenchmarkDecompressIntScratch measures the arena's effect on the
// end-to-end int decode path (allocations and throughput).
func BenchmarkDecompressIntScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := make([]int32, 65536)
	v := int32(0)
	for i := range src {
		if rng.Intn(20) == 0 {
			v = int32(rng.Intn(50))
		}
		src[i] = v
	}
	enc := Int.Compress(nil, src, DefaultConfig())
	for _, tc := range []struct {
		name string
		scr  *Scratch
	}{{"no-arena", nil}, {"arena", new(Scratch)}} {
		b.Run(tc.name, func(b *testing.B) {
			c := DefaultConfig()
			c.Scratch = tc.scr
			out := make([]int32, 0, len(src))
			b.SetBytes(int64(len(src) * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if out, _, err = Int.Decompress(out[:0], enc, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
