package fsst

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func trainOn(strs ...string) *Table {
	sample := make([][]byte, len(strs))
	for i, s := range strs {
		sample[i] = []byte(s)
	}
	return Train(sample)
}

func TestEmptyTableEscapesEverything(t *testing.T) {
	tab := Train(nil)
	if tab.NumSymbols() != 0 {
		t.Fatalf("empty sample built %d symbols", tab.NumSymbols())
	}
	src := []byte("hello")
	enc := tab.Encode(nil, src)
	if len(enc) != 2*len(src) {
		t.Fatalf("expected all-escape encoding of %d bytes, got %d", 2*len(src), len(enc))
	}
	dec, err := tab.Decode(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip: %q != %q", dec, src)
	}
}

func TestRoundTripStructuredStrings(t *testing.T) {
	var sample []string
	for i := 0; i < 500; i++ {
		sample = append(sample, fmt.Sprintf("https://www.example.com/products/item-%d?ref=homepage", i))
	}
	tab := trainOn(sample...)
	if tab.NumSymbols() == 0 {
		t.Fatal("no symbols learned from highly repetitive sample")
	}
	var in, enc []byte
	for _, s := range sample {
		in = append(in, s...)
	}
	enc = tab.Encode(nil, in)
	if len(enc) >= len(in)/2 {
		t.Fatalf("expected >2x compression on URLs, got %d -> %d", len(in), len(enc))
	}
	dec, err := tab.Decode(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, in) {
		t.Fatal("round trip mismatch")
	}
}

func TestSymbolInvariants(t *testing.T) {
	tab := trainOn(strings.Repeat("BTRBLOCKS compresses data lakes. ", 200))
	for i := 0; i < tab.NumSymbols(); i++ {
		s := tab.SymbolAt(i)
		if s.Len < 1 || s.Len > MaxSymbolLen {
			t.Fatalf("symbol %d has invalid length %d", i, s.Len)
		}
		if got := makeSymbol(s.Bytes()); got != s {
			t.Fatalf("symbol %d bytes round trip mismatch", i)
		}
	}
}

func TestEscapeHeavyBinaryInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, 4096)
	rng.Read(src)
	tab := Train([][]byte{src})
	enc := tab.Encode(nil, src)
	dec, err := tab.Decode(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatal("round trip mismatch on random bytes")
	}
}

func TestTableSerializeRoundTrip(t *testing.T) {
	tab := trainOn(strings.Repeat("SIGMOD 01 BRONX 04 BRONX 5777 E MAYO BLVD ", 100))
	data := tab.AppendTable(nil)
	got, used, err := TableFromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data) {
		t.Fatalf("consumed %d of %d", used, len(data))
	}
	if got.NumSymbols() != tab.NumSymbols() {
		t.Fatalf("symbol count %d != %d", got.NumSymbols(), tab.NumSymbols())
	}
	src := []byte("01 BRONX and 04 BRONX near 5777 E MAYO BLVD")
	a := tab.Encode(nil, src)
	b := got.Encode(nil, src)
	if !bytes.Equal(a, b) {
		t.Fatal("deserialized table encodes differently")
	}
	dec, err := got.Decode(nil, a)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("decode with deserialized table failed: %v", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	tab := trainOn(strings.Repeat("aaaa", 100))
	// escape at end of input with no literal byte
	if _, err := tab.Decode(nil, []byte{EscapeCode}); err == nil {
		t.Fatal("trailing escape not detected")
	}
	// code beyond table size
	if tab.NumSymbols() < MaxSymbols {
		if _, err := tab.Decode(nil, []byte{byte(tab.NumSymbols())}); err == nil {
			t.Fatal("out-of-range code not detected")
		}
	}
	// corrupt serialized tables
	data := tab.AppendTable(nil)
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := TableFromBytes(data[:cut]); err == nil && cut > 0 {
			// only the empty-table prefix (n=0 byte) may be valid, and
			// that needs data[0] == 0
			if !(cut >= 1 && data[0] == 0) {
				t.Fatalf("truncation at %d not detected", cut)
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	tab := trainOn(strings.Repeat("the quick brown fox jumps over the lazy dog ", 50))
	f := func(src []byte) bool {
		enc := tab.Encode(nil, src)
		dec, err := tab.Decode(nil, enc)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func benchURLs() []byte {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "http://api.service.internal/v2/users/%d/orders?page=%d ", i%500, i%7)
	}
	return []byte(sb.String())
}

func BenchmarkDecode(b *testing.B) {
	src := benchURLs()
	tab := Train([][]byte{src})
	enc := tab.Encode(nil, src)
	dst := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = tab.Decode(dst[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	src := benchURLs()
	tab := Train([][]byte{src})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Encode(nil, src)
	}
}

// BenchmarkTrain is one symbol-table training over a sample above the
// 16 KiB budget — the cost a string block pays up to three times.
func BenchmarkTrain(b *testing.B) {
	sample := [][]byte{benchURLs()}
	b.SetBytes(maxSampleBytes)
	for i := 0; i < b.N; i++ {
		Train(sample)
	}
}
