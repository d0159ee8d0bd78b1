package fsst

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// checkEquivalent trains both implementations on sample and encodes every
// input with both: symbol tables and encoded bytes must be identical, and
// the output must decode back to the input.
func checkEquivalent(t testing.TB, name string, sample [][]byte, inputs ...[]byte) *Table {
	t.Helper()
	ref := refTrain(sample)
	got := Train(sample)
	if want, have := ref.appendTable(nil), got.AppendTable(nil); !bytes.Equal(want, have) {
		t.Fatalf("%s: symbol table differs from the reference (%d vs %d symbols)", name, ref.n, got.n)
	}
	for i, src := range inputs {
		want, have := ref.encode(nil, src), got.Encode(nil, src)
		if !bytes.Equal(want, have) {
			t.Fatalf("%s: input %d (%d bytes) encodes differently from the reference", name, i, len(src))
		}
		back, err := got.Decode(nil, have)
		if err != nil || !bytes.Equal(back, src) {
			t.Fatalf("%s: input %d does not round-trip (err=%v)", name, i, err)
		}
	}
	return got
}

func randomCorpus(rng *rand.Rand, n int) []byte {
	words := []string{"http://", "www.", ".com/", "user", "page", "abc", "xyzzy", "-", "?id=", "\x00\x00", "aaaaaaaaaaaa"}
	var sb strings.Builder
	for sb.Len() < n {
		switch rng.Intn(8) {
		case 0:
			sb.WriteByte(byte(rng.Intn(256)))
		case 1:
			sb.WriteString(strings.Repeat(string(rune('a'+rng.Intn(4))), 1+rng.Intn(20)))
		default:
			sb.WriteString(words[rng.Intn(len(words))])
		}
	}
	return []byte(sb.String()[:n])
}

func TestEquivalenceRandomCorpora(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{1, 2, 3, 9, 100, 1000, 5000, maxSampleBytes - 1, maxSampleBytes, maxSampleBytes + 1, 3 * maxSampleBytes, 100000}[seed%12]
		corpus := randomCorpus(rng, n)
		// train on the whole corpus, and on the same bytes split into
		// many short strings (the shape the string cascade hands over)
		var pieces [][]byte
		for rest := corpus; len(rest) > 0; {
			k := min(1+rng.Intn(40), len(rest))
			pieces = append(pieces, rest[:k])
			rest = rest[k:]
		}
		other := randomCorpus(rng, 4096)
		checkEquivalent(t, "whole", [][]byte{corpus}, corpus, other)
		checkEquivalent(t, "pieces", pieces, append([][]byte{corpus, other}, pieces...)...)
	}
}

func TestEquivalenceBoundaries(t *testing.T) {
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog; ", 400))
	table := checkEquivalent(t, "text", [][]byte{text}, text)
	ref := refFromTable(table)
	// empty input, one byte, and 7/8/9-byte tails after a symbol boundary
	for _, src := range [][]byte{
		nil, {}, []byte("t"), []byte("\x00"), []byte("the qui"), []byte("the quic"), []byte("the quick"),
		[]byte("quick brown fox jum"), []byte("zzzzzzz"), []byte("zzzzzzzz"), []byte("zzzzzzzzz"),
		text[:len(text)-1], text[3 : len(text)-5],
	} {
		if want, have := ref.encode(nil, src), table.Encode(nil, src); !bytes.Equal(want, have) {
			t.Fatalf("boundary input %q encodes differently", src)
		}
	}
	// every suffix of a short string walks the tail path at every length
	s := []byte("over the lazy dog; the")
	for i := range s {
		if want, have := ref.encode(nil, s[i:]), table.Encode(nil, s[i:]); !bytes.Equal(want, have) {
			t.Fatalf("suffix %q encodes differently", s[i:])
		}
	}

	// all-escape input: bytes the table has never seen
	esc := bytes.Repeat([]byte{0xf1, 0xf2, 0xf3}, 50)
	if have := table.Encode(nil, esc); len(have) != 2*len(esc) || !bytes.Equal(have, ref.encode(nil, esc)) {
		t.Fatalf("all-escape input: %d bytes for %d", len(have), len(esc))
	}

	// a full 255-symbol table: every two-byte pair of a 16-letter alphabet
	// occurs equally often, so the ranking is decided by the tie-breaks
	rng := rand.New(rand.NewSource(5))
	full := make([]byte, 12000)
	for i := range full {
		full[i] = byte('a' + rng.Intn(16))
	}
	if tab := checkEquivalent(t, "full", [][]byte{full}, full, text); tab.NumSymbols() != MaxSymbols {
		t.Fatalf("full-table corpus built %d symbols, want %d", tab.NumSymbols(), MaxSymbols)
	}

	// symbols that contain and end in zero bytes must not match past the
	// end of the input through the zero padding
	zeros := []byte(strings.Repeat("ab\x00\x00\x00cd\x00", 300))
	ztab := checkEquivalent(t, "zeros", [][]byte{zeros}, zeros, []byte("ab"), []byte("ab\x00"), []byte("cd"), []byte("\x00"))
	zref := refFromTable(ztab)
	for i := 0; i < 24; i++ {
		src := zeros[i : i+1+i%9]
		if want, have := zref.encode(nil, src), ztab.Encode(nil, src); !bytes.Equal(want, have) {
			t.Fatalf("zero-byte input %q encodes differently", src)
		}
	}
}

// TestEquivalenceDeserializedDuplicates checks the lowest-code tie-break:
// a table read from bytes may hold the same symbol under several codes,
// and the reference encoder emits the first.
func TestEquivalenceDeserializedDuplicates(t *testing.T) {
	var data []byte
	syms := []string{"ab", "a", "abc", "ab", "abc", "a", "abcdefgh", "abcdefgh", "b"}
	data = append(data, byte(len(syms)))
	for _, s := range syms {
		data = append(data, byte(len(s)))
		data = append(data, s...)
	}
	table, _, err := TableFromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	ref := refFromTable(table)
	for _, src := range []string{"a", "ab", "abc", "abcdefgh", "abcdefghabcab", "babcabx", "xxabcdefg"} {
		if want, have := ref.encode(nil, []byte(src)), table.Encode(nil, []byte(src)); !bytes.Equal(want, have) {
			t.Fatalf("%q: got % x, reference % x", src, have, want)
		}
	}
}

// FuzzFSSTEncodeEquivalence trains on one input and encodes another with
// both implementations.
func FuzzFSSTEncodeEquivalence(f *testing.F) {
	f.Add([]byte("http://www.example.com/page?id=1 http://www.example.com/page?id=2"), []byte("http://www.example.org/"))
	f.Add([]byte(strings.Repeat("ab\x00\x00cd", 40)), []byte("ab\x00"))
	f.Add([]byte{}, []byte("x"))
	f.Fuzz(func(t *testing.T, sample, src []byte) {
		checkEquivalent(t, "fuzz", [][]byte{sample}, src, sample)
	})
}
