package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"btrblocks/coldata"
	"btrblocks/internal/stats"
)

// The scheme-conformance table: every column kind × every root scheme
// that applies × a fixed set of edge inputs. For each cell it asserts the
// round trip, that the decoder consumes exactly the stream, that every
// truncation is an error and never a panic, and that Select, Count and
// Aggregate answer what decode-then-filter answers — Aggregate under
// every selection of aggSelections too, bit for bit for doubles. It also asserts that a
// header claiming one value more than Config.MaxDecodedValues is corrupt on
// every path, and that InspectStream agrees with Decompress on seeded
// single-bit flips of every stream. A new scheme gets its coverage by being
// in its type's pool.

// conformanceSizes brackets the 128-value packed block and the 640-value
// sample, and ends at a full 64,000-value block.
var conformanceSizes = []int{0, 1, 127, 128, 129, 640, 64000}

// shape is one input pattern: the i-th of n values.
type shape[T any] struct {
	name string
	at   func(i, n int) T
}

func intShapesOf[T integer](lo, hi T) []shape[T] {
	return []shape[T]{
		{"one run", func(i, n int) T { return hi - 12345 }},
		{"all distinct", func(i, n int) T { return lo/2 + T(i)*3 }},
		{"runs", func(i, n int) T { return T(i/37%5) * 1000 }},
		{"skewed", func(i, n int) T {
			if i%11 == 3 {
				return T(i)
			}
			return -42
		}},
		{"extremes", func(i, n int) T { return [...]T{lo, hi, 0, -1, 1, hi, hi, lo}[i%8] }},
	}
}

var doubleShapes = []shape[float64]{
	{"one run", func(i, n int) float64 { return math.Float64frombits(0x7ff8_0000_0000_beef) }}, // one NaN payload
	{"all distinct", func(i, n int) float64 { return float64(i)/4 - 1e6 }},
	{"runs", func(i, n int) float64 { return float64(i/37%5) * 0.25 }},
	{"skewed", func(i, n int) float64 {
		if i%11 == 3 {
			return float64(i) / 100
		}
		return 9.75
	}},
	{"specials", func(i, n int) float64 {
		return [...]float64{
			math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001),
			math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0, 5.5e-42,
		}[i%10]
	}},
}

// conform runs the table for one type. preds builds the predicates to
// probe a stream of the given values with; newAgg makes an empty
// accumulator and aggEq compares two of them.
func conform[T numeric, K stats.Key, A any, PA interface {
	*A
	Folder[T]
}](t *testing.T, typ *Numeric[T, K], shapes []shape[T], same func(a, b T) bool,
	preds func(vals []T) map[string]Matcher[T], aggEq func(a, b A) bool) {
	cfg := DefaultConfig()
	for _, n := range conformanceSizes {
		for _, sh := range shapes {
			vals := make([]T, n)
			for i := range vals {
				vals[i] = sh.at(i, n)
			}
			for _, code := range typ.Schemes() {
				enc := typ.CompressAs(nil, vals, code, cfg)
				if enc == nil {
					continue // not applicable: OneValue off a one-run input, anything but plain on none
				}
				name := fmt.Sprintf("%s/%s/n=%d/%s", typ.kind, code, n, sh.name)
				if Code(enc[0]) != code {
					t.Fatalf("%s: root scheme is %s", name, Code(enc[0]))
				}
				dec, used, err := typ.Decompress(nil, enc, cfg)
				if err != nil || used != len(enc) || len(dec) != n {
					t.Fatalf("%s: decoded %d values, used %d of %d: %v", name, len(dec), used, len(enc), err)
				}
				for i := range vals {
					if !same(dec[i], vals[i]) {
						t.Fatalf("%s: value %d = %v, want %v", name, i, dec[i], vals[i])
					}
				}
				scalar, _, err := typ.Decompress(nil, enc, &Config{ScalarDecode: true})
				if err != nil || len(scalar) != n {
					t.Fatalf("%s: scalar decode: %v", name, err)
				}
				for i := range vals {
					if !same(scalar[i], vals[i]) {
						t.Fatalf("%s: scalar value %d = %v, want %v", name, i, scalar[i], vals[i])
					}
				}
				if l, used, err := InspectStream(typ.kind, enc); err != nil || used != len(enc) || l.Values != n {
					t.Fatalf("%s: inspect: %v (used %d of %d)", name, err, used, len(enc))
				}

				var want A
				PA(&want).foldAll(vals)
				var got A
				if used, err := typ.Aggregate(enc, nil, PA(&got), nil, cfg); err != nil || used != len(enc) || !aggEq(got, want) {
					t.Fatalf("%s: aggregate %+v (used %d, err %v), want %+v", name, got, used, err, want)
				}
				sels := aggSelections(n)
				for sname, sel := range sels {
					var want, got A
					for i, v := range vals {
						if sel[i/64]>>(i%64)&1 != 0 {
							PA(&want).FoldRun(v, 1)
						}
					}
					if used, err := typ.Aggregate(enc, sel, PA(&got), nil, cfg); err != nil || used != len(enc) || !aggEq(got, want) {
						t.Fatalf("%s: aggregate over %s: %+v (used %d, err %v), want %+v", name, sname, got, used, err, want)
					}
				}
				for pname, m := range preds(vals) {
					wantSel := refBits(n, func(i int) bool { return m.Match(vals[i]) })
					sel := make([]uint64, len(wantSel))
					if used, err := typ.Select(enc, m, sel, nil, cfg); err != nil || used != len(enc) || !slices.Equal(sel, wantSel) {
						t.Fatalf("%s: select %s: %d rows (used %d, err %v), want %d", name, pname, countBits(sel), used, err, countBits(wantSel))
					}
					if count, used, err := typ.Count(enc, m, nil, cfg); err != nil || used != len(enc) || count != countBits(wantSel) {
						t.Fatalf("%s: count %s = %d (used %d, err %v), want %d", name, pname, count, used, err, countBits(wantSel))
					}
				}

				var anyPred Matcher[T]
				for _, m := range preds(vals) {
					anyPred = m
				}
				if n > 0 {
					bad, capped := overCap(enc, n)
					var a A
					_, _, decErr := typ.Decompress(nil, bad, capped)
					_, selErr := typ.Select(bad, anyPred, make([]uint64, (n+63)/64), nil, capped)
					_, _, countErr := typ.Count(bad, anyPred, nil, capped)
					_, aggErr := typ.Aggregate(bad, nil, PA(&a), nil, capped)
					for op, err := range map[string]error{"decompress": decErr, "select": selErr, "count": countErr, "aggregate": aggErr} {
						if !errors.Is(err, ErrCorrupt) {
							t.Fatalf("%s: %s of a header over the decode cap: %v", name, op, err)
						}
					}
				}
				bitFlips(n, enc, func(bad []byte) {
					dec, used, err := typ.Decompress(nil, bad, cfg)
					inspectAgrees(t, name, typ.kind, bad, len(dec), used, err)
				})
				truncations(n, enc, func(short []byte) {
					cut := len(short)
					if _, _, err := typ.Decompress(nil, short, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: decompress of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, err := typ.Select(short, anyPred, make([]uint64, (n+63)/64), nil, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: select of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, _, err := typ.Count(short, anyPred, nil, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: count of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					var a A
					if _, err := typ.Aggregate(short, nil, PA(&a), nil, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: aggregate of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, err := typ.Aggregate(short, sels["random 1/8"], PA(&a), nil, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: selected aggregate of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, _, err := InspectStream(typ.kind, short); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: inspect of %d/%d bytes: %v", name, cut, len(enc), err)
					}
				})
			}
		}
	}
}

// aggSelections returns the selections a fold over n rows is checked
// under, each as a block-local bitset: no row, the first, the last, every
// row, rows at random (1 in 8 and 1 in 2, the latter standing for a block
// with NULLs in half its rows), and a run straddling the first 128-value
// block boundary.
func aggSelections(n int) map[string][]uint64 {
	sels := map[string][]uint64{}
	mk := func(name string, keep func(i int) bool) {
		sel := make([]uint64, (n+63)/64)
		for i := 0; i < n; i++ {
			if keep(i) {
				sel[i/64] |= 1 << (i % 64)
			}
		}
		sels[name] = sel
	}
	rng := rand.New(rand.NewSource(int64(n)))
	random8, random2 := make([]bool, n), make([]bool, n)
	for i := range random8 {
		random8[i], random2[i] = rng.Intn(8) == 0, rng.Intn(2) == 0
	}
	mk("empty", func(int) bool { return false })
	mk("first row", func(i int) bool { return i == 0 })
	mk("last row", func(i int) bool { return i == n-1 })
	mk("all rows", func(int) bool { return true })
	mk("random 1/8", func(i int) bool { return random8[i] })
	mk("random 1/2", func(i int) bool { return random2[i] })
	mk("straddling", func(i int) bool { return i >= 100 && i < 300 })
	return sels
}

// overCap returns enc with its header count raised to n+1, and a config
// that caps decoding at n values.
func overCap(enc []byte, n int) ([]byte, *Config) {
	bad := slices.Clone(enc)
	binary.LittleEndian.PutUint32(bad[1:], uint32(n+1))
	return bad, &Config{MaxDecodedValues: n}
}

// bitFlips calls f with copies of enc that each have one bit flipped, at
// positions drawn from a source seeded by the stream's length.
func bitFlips(n int, enc []byte, f func(bad []byte)) {
	rng := rand.New(rand.NewSource(int64(len(enc))))
	flips := 16
	if testing.Short() && n > 640 {
		flips = 2
	}
	for i := 0; i < flips; i++ {
		bad := slices.Clone(enc)
		bit := rng.Intn(8 * len(enc))
		bad[bit/8] ^= 1 << (bit % 8)
		f(bad)
	}
}

// inspectAgrees checks InspectStream on bad against what Decompress made of
// it: where decoding accepted, the layout accounts for the bytes it used
// and the values it produced; where the layout walk rejects, so did the
// decoder.
func inspectAgrees(t *testing.T, name string, kind Kind, bad []byte, values, used int, err error) {
	t.Helper()
	l, walked, lerr := InspectStream(kind, bad)
	switch {
	case err == nil && lerr != nil:
		t.Fatalf("%s: decoder accepts a flipped stream the layout walk rejects: %v", name, lerr)
	case err == nil && (walked != used || l.Values != values):
		t.Fatalf("%s: layout of a flipped stream has %d values in %d bytes, decoder %d in %d", name, l.Values, walked, values, used)
	}
}

// truncations calls f with every prefix of a small stream, and of a full
// block with the first 24 and last 8 plus every 9973rd.
func truncations(n int, enc []byte, f func(short []byte)) {
	for cut := 0; cut < len(enc); cut++ {
		if testing.Short() && n > 640 {
			break // the race tier keeps the small blocks' every-offset sweep
		}
		if len(enc) > 8<<10 && cut > 24 && cut < len(enc)-8 && cut%9973 != 0 {
			continue
		}
		f(enc[:cut:cut])
	}
}

func intPredsOf[T integer](vals []T) map[string]Matcher[T] {
	out := map[string]Matcher[T]{"eq absent": Eq[T](77777), "in none": &Pred[T]{Op: PredIn}}
	if len(vals) > 0 {
		first, mid := vals[0], vals[len(vals)/2]
		out["eq first"] = Eq(first)
		out["range"] = &Pred[T]{Op: PredRange, Lo: min(first, mid), Hi: max(first, mid)}
		in := &Pred[T]{Op: PredIn, In: []T{mid, first, vals[len(vals)-1], 77777}}
		in.Normalize()
		out["in"] = in
	}
	return out
}

func TestSchemeConformance(t *testing.T) {
	cfg := DefaultConfig()
	sameInt32 := func(a, b int32) bool { return a == b }
	sameInt64 := func(a, b int64) bool { return a == b }
	conform(t, Int, intShapesOf[int32](math.MinInt32, math.MaxInt32), sameInt32, intPredsOf[int32],
		func(a, b Agg[int32]) bool { return a == b })
	conform(t, Int64, intShapesOf[int64](math.MinInt64, math.MaxInt64), sameInt64, intPredsOf[int64],
		func(a, b Agg[int64]) bool { return a == b })

	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	doublePreds := func(vals []float64) map[string]Matcher[float64] {
		out := map[string]Matcher[float64]{"eq absent": DoubleEq(77777.5), "eq -0": DoubleEq(math.Copysign(0, -1))}
		if len(vals) > 0 {
			first, mid := vals[0], vals[len(vals)/2]
			out["eq first"] = DoubleEq(first)
			out["range"] = &DoublePred{Op: PredRange, Lo: min(first, mid), Hi: max(first, mid)}
			in := &DoublePred{Op: PredIn, In: []float64{mid, first, math.NaN(), 0}}
			in.Normalize()
			out["in"] = in
		}
		return out
	}
	// Bit-level comparison so NaN sums and -0.0 vs 0.0 are pinned.
	conform(t, Double, doubleShapes, sameBits, doublePreds, func(a, b DoubleAgg) bool {
		return a.Count == b.Count && sameBits(a.Sum, b.Sum) && sameBits(a.Min, b.Min) && sameBits(a.Max, b.Max)
	})
	conformStrings(t)

	// A OneValue header states any count in five bytes: 2^30 rows is over
	// every cap, for the layout walk as for the decoder.
	huge := Int.CompressAs(nil, []int32{7}, CodeOneValue, cfg)
	binary.LittleEndian.PutUint32(huge[1:], 1<<30)
	if _, _, err := Int.Decompress(nil, huge, cfg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OneValue of 2^30 rows: decompress: %v", err)
	}
	if _, _, err := InspectStream(KindInt, huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OneValue of 2^30 rows: inspect: %v", err)
	}
}

// stringShapes are the string inputs: the empty string, bytes that are not
// UTF-8, and one value of 64 KiB (the widest the table holds) among them.
var stringShapes = []shape[string]{
	{"one run", func(i, n int) string { return "STATEN ISLAND" }},
	{"all distinct", func(i, n int) string { return fmt.Sprintf("http://a.example/%07d", i*3) }},
	{"runs", func(i, n int) string { return [...]string{"", "BRONX", "QUEENS", "01 BRONX", "x"}[i/37%5] }},
	{"skewed", func(i, n int) string {
		if i%11 == 3 {
			return fmt.Sprintf("user-%d@example.com", i)
		}
		return "N/A"
	}},
	{"extremes", func(i, n int) string {
		if i == n-1 {
			return strings.Repeat("wide", 1<<14)
		}
		return [...]string{"", "\x00", "\xff\xfe\x00", "a", "", "ü€𝄞", strings.Repeat("ab", 150), "a"}[i%8]
	}},
}

func stringPredsOf(vals []string) map[string]*StringPred {
	out := map[string]*StringPred{"eq absent": {Op: PredEq, Eq: []byte("absent")}, "in none": {Op: PredIn}}
	if len(vals) > 0 {
		first, mid := vals[0], vals[len(vals)/2]
		out["eq first"] = &StringPred{Op: PredEq, Eq: []byte(first)}
		out["range"] = &StringPred{Op: PredRange, Lo: []byte(min(first, mid)), Hi: []byte(max(first, mid))}
		in := &StringPred{Op: PredIn, In: [][]byte{[]byte(mid), []byte(first), []byte(vals[len(vals)-1]), []byte("absent")}}
		in.Normalize()
		out["in"] = in
	}
	return out
}

// conformStrings is conform for the string kind: both finishers (views,
// and Parse + AppendTo into a range of a larger column), the fused and
// unfused dictionary paths, Select and Count against filtering the
// values, and every truncation.
func conformStrings(t *testing.T) {
	cfg := DefaultConfig()
	for _, n := range conformanceSizes {
		for _, sh := range stringShapes {
			vals := make([]string, n)
			for i := range vals {
				vals[i] = sh.at(i, n)
			}
			src := coldata.MakeStrings(vals)
			for _, code := range String.Schemes() {
				enc := String.CompressAs(nil, src, code, cfg)
				if enc == nil {
					continue
				}
				name := fmt.Sprintf("string/%s/n=%d/%s", code, n, sh.name)
				if Code(enc[0]) != code {
					t.Fatalf("%s: root scheme is %s", name, Code(enc[0]))
				}
				for _, c := range []*Config{cfg, {ScalarDecode: true}, {DisableFuseDictRLE: true}} {
					views, used, err := String.Decompress(enc, c)
					if err != nil || used != len(enc) || views.Len() != n {
						t.Fatalf("%s: decoded %d values, used %d of %d: %v", name, views.Len(), used, len(enc), err)
					}
					for i, v := range vals {
						if views.At(i) != v {
							t.Fatalf("%s: value %d = %q, want %q", name, i, views.At(i), v)
						}
					}
					requireMaterialized(t, enc, src, c)
				}
				if l, used, err := InspectStream(KindString, enc); err != nil || used != len(enc) || l.Values != n {
					t.Fatalf("%s: inspect: %v (used %d of %d)", name, err, used, len(enc))
				}
				for pname, p := range stringPredsOf(vals) {
					want := refBits(n, func(i int) bool { return p.Match([]byte(vals[i])) })
					sel := make([]uint64, len(want))
					if used, err := String.Select(enc, p, sel, nil, cfg); err != nil || used != len(enc) || !slices.Equal(sel, want) {
						t.Fatalf("%s: select %s: %d rows (used %d, err %v), want %d", name, pname, countBits(sel), used, err, countBits(want))
					}
					if count, used, err := String.Count(enc, p, nil, cfg); err != nil || used != len(enc) || count != countBits(want) {
						t.Fatalf("%s: count %s = %d (used %d, err %v), want %d", name, pname, count, used, err, countBits(want))
					}
				}
				eq := &StringPred{Op: PredEq, Eq: []byte("x")}
				if n > 0 {
					bad, capped := overCap(enc, n)
					_, _, decErr := String.Decompress(bad, capped)
					_, _, parseErr := String.Parse(bad, capped)
					_, selErr := String.Select(bad, eq, make([]uint64, (n+63)/64), nil, capped)
					_, _, countErr := String.Count(bad, eq, nil, capped)
					for op, err := range map[string]error{"decompress": decErr, "parse": parseErr, "select": selErr, "count": countErr} {
						if !errors.Is(err, ErrCorrupt) {
							t.Fatalf("%s: %s of a header over the decode cap: %v", name, op, err)
						}
					}
				}
				bitFlips(n, enc, func(bad []byte) {
					views, used, err := String.Decompress(bad, cfg)
					inspectAgrees(t, name, KindString, bad, views.Len(), used, err)
				})
				truncations(n, enc, func(short []byte) {
					cut := len(short)
					if _, _, err := String.Decompress(short, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: decompress of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, _, err := String.Parse(short, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: parse of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, err := String.Select(short, eq, make([]uint64, (n+63)/64), nil, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: select of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, _, err := String.Count(short, eq, nil, cfg); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: count of %d/%d bytes: %v", name, cut, len(enc), err)
					}
					if _, _, err := InspectStream(KindString, short); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: inspect of %d/%d bytes: %v", name, cut, len(enc), err)
					}
				})
			}
		}
	}
}

// TestCorruptRunLengthsRejected patches the first run length of a depth-1
// RLE stream (both sub-streams plain) to overshoot the block and to go
// negative: every kernel must reject it the same way. Count used to sum
// the lengths unchecked and answer more rows than the block holds.
func TestCorruptRunLengthsRejected(t *testing.T) {
	checkRunLengths(t, Int, Eq[int32](0), new(Agg[int32]))
	checkRunLengths(t, Int64, Eq[int64](0), new(Agg[int64]))
	checkRunLengths(t, Double, DoubleEq(0), new(DoubleAgg))
}

func checkRunLengths[T numeric, K stats.Key](t *testing.T, typ *Numeric[T, K], zero Matcher[T], acc Folder[T]) {
	cfg := &Config{MaxCascadeDepth: 1}
	vals := make([]T, 1000)
	for i := range vals {
		vals[i] = T(i / 100 % 2) // ten runs of 100: 0, 1, 0, 1, …
	}
	enc := typ.CompressAs(nil, vals, CodeRLE, cfg)
	if count, _, err := typ.Count(enc, zero, nil, cfg); err != nil || count != 500 {
		t.Fatalf("%s: intact stream counts %d zeros (err %v), want 500", typ.kind, count, err)
	}
	// tag n runs | tag count values… | tag count lengths…
	firstLength := 9 + 5 + 10*typ.width + 5
	for _, bad := range []uint32{5000, 0xFFFFFF00} {
		binary.LittleEndian.PutUint32(enc[firstLength:], bad)
		if _, _, err := typ.Count(enc, zero, nil, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: length %#x: count: %v", typ.kind, bad, err)
		}
		if _, err := typ.Select(enc, zero, make([]uint64, len(vals)/64+1), nil, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: length %#x: select: %v", typ.kind, bad, err)
		}
		if _, err := typ.Aggregate(enc, nil, acc, nil, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: length %#x: aggregate: %v", typ.kind, bad, err)
		}
		if _, _, err := typ.Decompress(nil, enc, cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: length %#x: decompress: %v", typ.kind, bad, err)
		}
	}
}
