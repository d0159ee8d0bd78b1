package core

import (
	"fmt"
	"math/rand"
	"testing"

	"btrblocks/coldata"
)

// checkLayout inspects a compressed stream and asserts the layout tree
// consumes exactly the same bytes as the decoder and satisfies the size
// invariant at every node.
func checkLayout(t *testing.T, kind Kind, enc []byte, wantValues int) *Layout {
	t.Helper()
	l, used, err := InspectStream(kind, enc)
	if err != nil {
		t.Fatalf("InspectStream (%s): %v", Code(enc[0]), err)
	}
	if used != len(enc) {
		t.Fatalf("inspect consumed %d of %d (%s)", used, len(enc), Code(enc[0]))
	}
	if l.Values != wantValues {
		t.Fatalf("root values %d, want %d (%s)", l.Values, wantValues, Code(enc[0]))
	}
	l.Walk(func(n *Layout, _ int) {
		sum := n.HeaderBytes + n.PayloadBytes
		for _, c := range n.Children {
			sum += c.Bytes
		}
		if sum != n.Bytes {
			t.Fatalf("node %s: Bytes %d != header %d + payload %d + children %d",
				n.Code, n.Bytes, n.HeaderBytes, n.PayloadBytes, sum-n.HeaderBytes-n.PayloadBytes)
		}
		if n.Bytes < 0 || n.HeaderBytes < 0 || n.PayloadBytes < 0 {
			t.Fatalf("node %s: negative sizes %+v", n.Code, n)
		}
	})
	return l
}

// intCases covers every integer scheme's trigger pattern.
func intCases(rng *rand.Rand) map[string][]int32 {
	runs := make([]int32, 20000)
	for i := range runs {
		runs[i] = int32(i / 500)
	}
	dict := make([]int32, 20000)
	for i := range dict {
		dict[i] = int32(rng.Intn(40) * 977)
	}
	freq := make([]int32, 20000)
	for i := range freq {
		if rng.Intn(100) < 95 {
			freq[i] = 7
		} else {
			freq[i] = rng.Int31()
		}
	}
	small := make([]int32, 20000)
	for i := range small {
		small[i] = rng.Int31n(1 << 12)
	}
	outliers := make([]int32, 20000)
	for i := range outliers {
		if i%100 == 3 {
			outliers[i] = rng.Int31()
		} else {
			outliers[i] = rng.Int31n(64)
		}
	}
	random := make([]int32, 20000)
	for i := range random {
		random[i] = rng.Int31() - rng.Int31()
	}
	one := make([]int32, 20000)
	for i := range one {
		one[i] = 42
	}
	return map[string][]int32{
		"runs": runs, "dict": dict, "freq": freq, "small": small,
		"outliers": outliers, "random": random, "one": one,
		"empty": nil, "tiny": {1, 2, 3},
	}
}

func TestInspectIntStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	for name, src := range intCases(rng) {
		enc := roundTripInt(t, src, cfg)
		checkLayout(t, KindInt, enc, len(src))
		// Forced schemes exercise walkers the sampler may not pick.
		for _, code := range AllCodes() {
			fcfg := *cfg
			fcfg.IntSchemes = []Code{code}
			fenc := Int.Compress(nil, src, &fcfg)
			if _, _, err := Int.Decompress(nil, fenc, cfg); err != nil {
				continue // scheme not viable for this data; encoder fell back
			}
			checkLayout(t, KindInt, fenc, len(src))
		}
		_ = name
	}
}

func TestInspectInt64Streams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig()
	cases := map[string][]int64{
		"empty": nil,
		"one":   {123456789012345, 123456789012345, 123456789012345},
	}
	ts := make([]int64, 20000)
	base := int64(1_600_000_000_000_000)
	for i := range ts {
		ts[i] = base + int64(i)*1000 + int64(rng.Intn(50))
	}
	cases["timestamps"] = ts
	wide := make([]int64, 20000)
	for i := range wide {
		wide[i] = rng.Int63() - rng.Int63()
	}
	cases["random"] = wide
	freq := make([]int64, 20000)
	for i := range freq {
		if rng.Intn(100) < 95 {
			freq[i] = base
		} else {
			freq[i] = rng.Int63()
		}
	}
	cases["freq"] = freq
	for name, src := range cases {
		enc := roundTripInt64(t, src, cfg)
		checkLayout(t, KindInt64, enc, len(src))
		_ = name
	}
}

func TestInspectDoubleStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	prices := make([]float64, 20000)
	for i := range prices {
		prices[i] = float64(rng.Intn(1000000)) / 100
	}
	random := make([]float64, 20000)
	for i := range random {
		random[i] = rng.NormFloat64() * 1e17
	}
	one := make([]float64, 5000)
	for i := range one {
		one[i] = 3.25
	}
	for _, src := range [][]float64{prices, random, one, nil, {1.5}} {
		enc := roundTripDouble(t, src, cfg)
		checkLayout(t, KindDouble, enc, len(src))
	}
}

func TestInspectStringStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultConfig()
	cities := []string{"PHOENIX", "RALEIGH", "BETHESDA", "ATHENS", "CURITIBA"}
	catVals := make([]string, 20000)
	for i := range catVals {
		catVals[i] = cities[rng.Intn(len(cities))]
	}
	textVals := make([]string, 8000)
	for i := range textVals {
		textVals[i] = fmt.Sprintf("http://example.com/%d/page-%d.html", rng.Intn(500), i)
	}
	oneVals := make([]string, 3000)
	for i := range oneVals {
		oneVals[i] = "constant"
	}
	for _, vals := range [][]string{catVals, textVals, oneVals, nil, {"a", "bb", "ccc"}} {
		src := coldata.MakeStrings(vals)
		enc := roundTripString(t, src, cfg)
		checkLayout(t, KindString, enc, len(vals))
	}
}

func TestInspectStreamRejectsCorrupt(t *testing.T) {
	cfg := DefaultConfig()
	src := make([]int32, 5000)
	for i := range src {
		src[i] = int32(i % 100)
	}
	enc := Int.Compress(nil, src, cfg)
	if _, _, err := InspectStream(KindInt, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, _, err := InspectStream(KindInt, nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, _, err := InspectStream(KindInt, []byte{200, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestDecisionHookFires(t *testing.T) {
	cfg := DefaultConfig()
	var decisions []Decision
	cfg.OnDecision = func(d Decision) { decisions = append(decisions, d) }
	src := make([]int32, 20000)
	for i := range src {
		src[i] = int32(i / 500)
	}
	enc := Int.Compress(nil, src, cfg)
	if len(decisions) == 0 {
		t.Fatal("no decisions delivered")
	}
	root := decisions[len(decisions)-1]
	if root.Level != 0 {
		t.Fatalf("last decision level %d, want 0 (post-order)", root.Level)
	}
	if root.Code != Code(enc[0]) {
		t.Fatalf("root decision %v, stream is %v", root.Code, Code(enc[0]))
	}
	if root.Kind != KindInt || root.Values != len(src) || root.InputBytes != 4*len(src) {
		t.Fatalf("root decision: %+v", root)
	}
	if root.OutputBytes != len(enc) {
		t.Fatalf("root output %d, stream is %d", root.OutputBytes, len(enc))
	}
	for _, d := range decisions[:len(decisions)-1] {
		if d.Level <= 0 {
			t.Fatalf("non-root decision at level %d", d.Level)
		}
	}

	// Hook output must not change the encoding.
	plain := Int.Compress(nil, src, DefaultConfig())
	if string(plain) != string(enc) {
		t.Fatal("decision hook changed the output")
	}
}

func TestSchemeRegistry(t *testing.T) {
	if len(AllCodes()) != 9 {
		t.Fatalf("%d codes", len(AllCodes()))
	}
	for _, c := range AllCodes() {
		if !c.Valid() {
			t.Fatalf("code %d invalid", c)
		}
		got, ok := CodeFromName(c.String())
		if !ok || got != c {
			t.Fatalf("round trip of %q failed", c.String())
		}
	}
	if _, ok := CodeFromName("NoSuchScheme"); ok {
		t.Fatal("bogus name resolved")
	}
	if got, ok := CodeFromName("dictionary"); !ok || got != CodeDict {
		t.Fatal("case-insensitive lookup failed")
	}
}
