package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"btrblocks/coldata"
	"btrblocks/internal/stats"
)

// The eager reference: scheme selection as it was before the string
// filters read the hash-free shape. Every filter reads the hashed
// profile, which the first filter to run builds in full, through the
// rules below — the filters of that time, verbatim. withEager swaps them
// into the scheme tables of all four kinds for the duration of f (the
// numeric filters still read the hashed profile, and the swap keeps them
// pinned to these rules); the tests below compare what selection chooses
// and writes under both, sub-streams included.

func eagerNumRule[K stats.Key](code Code) func(p *stats.Profile[K]) bool {
	switch code {
	case CodeOneValue:
		return func(p *stats.Profile[K]) bool { return p.Distinct == 1 }
	case CodeDict:
		return func(p *stats.Profile[K]) bool { return p.Distinct > 1 && p.Distinct < p.N }
	case CodeRLE:
		return func(p *stats.Profile[K]) bool { return p.AvgRunLen() >= 2 }
	case CodeFrequency:
		return func(p *stats.Profile[K]) bool { return p.UniqueFrac() <= 0.5 && p.TopCount*2 >= p.N }
	case CodePDE:
		return func(p *stats.Profile[K]) bool { return p.UniqueFrac() >= 0.1 }
	}
	return func(*stats.Profile[K]) bool { return true } // FastBP, FastPFOR
}

func eagerStrRule(code Code) func(p *stats.StringProfile) bool {
	switch code {
	case CodeOneValue:
		return func(p *stats.StringProfile) bool { return p.Distinct == 1 }
	case CodeDict:
		return func(p *stats.StringProfile) bool { return p.Distinct > 1 && p.Distinct < p.N }
	}
	return func(p *stats.StringProfile) bool { return p.TotalLen >= 64 } // FSST
}

func eagerNum[T numeric, K stats.Key](t *Numeric[T, K]) (restore func()) {
	saved := map[Code]func(*stats.Profile[K]) bool{}
	for _, code := range t.pool {
		e := t.schemes[code]
		saved[code], e.viable = e.viable, eagerNumRule[K](code)
	}
	return func() {
		for code, viable := range saved {
			t.schemes[code].viable = viable
		}
	}
}

// eagerStr swaps the string filters. OneValue's size, 9+MaxLen then,
// reads the shape's Len, which is MaxLen wherever OneValue is viable.
func eagerStr() (restore func()) {
	saved := map[Code]func(strStats) bool{}
	for _, code := range String.pool {
		e, rule := String.schemes[code], eagerStrRule(code)
		saved[code] = e.viable
		e.viable = func(s strStats) bool { return rule(s.hashed()) }
	}
	return func() {
		for code, viable := range saved {
			String.schemes[code].viable = viable
		}
	}
}

func withEager(f func()) {
	defer eagerNum(Int)()
	defer eagerNum(Int64)()
	defer eagerNum(Double)()
	defer eagerStr()()
	f()
}

// equivConfigs are the configurations both paths run under: the default,
// and pools without the schemes the hash-free pass answers alone, so the
// first filter to run is a later one.
func equivConfigs() map[string]func() *Config {
	return map[string]func() *Config{
		"default": DefaultConfig,
		"no OneValue/RLE": func() *Config {
			cfg := DefaultConfig()
			cfg.IntSchemes = []Code{CodeFastBP, CodeFastPFOR, CodeDict, CodeFrequency}
			cfg.DoubleSchemes = []Code{CodeDict, CodeFrequency, CodePDE}
			cfg.StringSchemes = []Code{CodeDict, CodeFSST}
			return cfg
		},
	}
}

// kindOps is one kind's selection entry points over a stream held as any.
type kindOps struct {
	choose     func(cfg *Config) (Code, float64)
	compress   func(cfg *Config) []byte
	compressAs func(code Code, cfg *Config) []byte
	pool       []Code
}

func numOps[T numeric, K stats.Key](t *Numeric[T, K], src []T) kindOps {
	return kindOps{
		choose:     func(cfg *Config) (Code, float64) { return t.Choose(src, cfg) },
		compress:   func(cfg *Config) []byte { return t.Compress(nil, src, cfg) },
		compressAs: func(code Code, cfg *Config) []byte { return t.CompressAs(nil, src, code, cfg) },
		pool:       t.pool,
	}
}

func strOps(src coldata.Strings) kindOps {
	return kindOps{
		choose:     func(cfg *Config) (Code, float64) { return String.Choose(src, cfg) },
		compress:   func(cfg *Config) []byte { return String.Compress(nil, src, cfg) },
		compressAs: func(code Code, cfg *Config) []byte { return String.CompressAs(nil, src, code, cfg) },
		pool:       String.pool,
	}
}

// checkEagerEquivalent runs Choose, Compress and CompressAs of every pool
// scheme on both paths and fails on any difference.
func checkEagerEquivalent(t testing.TB, name string, ops kindOps) {
	t.Helper()
	for cname, config := range equivConfigs() {
		type result struct {
			code  Code
			est   float64
			bytes []byte
			as    [][]byte
		}
		run := func() (r result) {
			r.code, r.est = ops.choose(config())
			r.bytes = ops.compress(config())
			for _, code := range ops.pool {
				r.as = append(r.as, ops.compressAs(code, config()))
			}
			return r
		}
		lazy := run()
		var eager result
		withEager(func() { eager = run() })
		if lazy.code != eager.code || lazy.est != eager.est && !(math.IsNaN(lazy.est) && math.IsNaN(eager.est)) {
			t.Fatalf("%s (%s): Choose %v %v, eager reference %v %v", name, cname, lazy.code, lazy.est, eager.code, eager.est)
		}
		if !bytes.Equal(lazy.bytes, eager.bytes) {
			t.Fatalf("%s (%s): compressed bytes differ from the eager reference", name, cname)
		}
		for i, code := range ops.pool {
			if !bytes.Equal(lazy.as[i], eager.as[i]) || (lazy.as[i] == nil) != (eager.as[i] == nil) {
				t.Fatalf("%s (%s): CompressAs(%v) differs from the eager reference", name, cname, code)
			}
		}
	}
}

// checkAllKinds maps one stream of value ids onto every kind and checks
// each: integers dense and sparse, doubles with NaN payloads and −0 in
// place of some ids, strings with the empty string as id 0.
func checkAllKinds(t testing.TB, name string, ids []int) {
	t.Helper()
	n := len(ids)
	i32, sparse := make([]int32, n), make([]int32, n)
	i64, f64 := make([]int64, n), make([]float64, n)
	strs := make([]string, n)
	for i, v := range ids {
		i32[i] = int32(v) - 3
		sparse[i] = int32(v)*1000003 - 1<<30
		i64[i] = int64(v)*7919 - 1<<45
		switch v % 11 {
		case 5:
			f64[i] = math.Copysign(0, -1)
		case 7:
			f64[i] = math.Float64frombits(0x7ff8000000000000 | uint64(v%3))
		default:
			f64[i] = float64(v) / 4
		}
		if v > 0 {
			strs[i] = fmt.Sprintf("%x-%s", v, "padding-padding"[:v%13])
		}
	}
	checkEagerEquivalent(t, name+"/int", numOps(Int, i32))
	checkEagerEquivalent(t, name+"/int sparse", numOps(Int, sparse))
	checkEagerEquivalent(t, name+"/int64", numOps(Int64, i64))
	checkEagerEquivalent(t, name+"/double", numOps(Double, f64))
	checkEagerEquivalent(t, name+"/string", strOps(coldata.MakeStrings(strs)))
}

// twoValued returns n ids of which top are 1 and the rest 2, at random rows.
func twoValued(rng *rand.Rand, n, top int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 2
	}
	for _, i := range rng.Perm(n)[:top] {
		ids[i] = 1
	}
	return ids
}

func TestLazyProfileMatchesEager(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 639, 640, 641, 64000}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		name := fmt.Sprintf("n=%d", n)
		if n <= 640 {
			name += " (no larger than the sample: sp == p)"
		}
		cases := map[string][]int{"all-equal": make([]int, n)}
		for i := range cases["all-equal"] {
			cases["all-equal"][i] = 4
		}
		for _, card := range []int{2, 7, 40, n/10 + 1, n/2 + 1, 4 * n} {
			ids := make([]int, n)
			for i := range ids {
				if ids[i] = rng.Intn(max(card, 1)); i > 0 && rng.Intn(3) == 0 {
					ids[i] = ids[i-1]
				}
			}
			cases[fmt.Sprintf("card=%d", card)] = ids
		}
		// 2·top ∈ {N−1, N, N+1}: the Frequency filter's boundary
		for _, twice := range []int{n - 1, n, n + 1} {
			if twice%2 == 0 && twice/2 <= n && twice >= 0 {
				cases[fmt.Sprintf("two-valued 2·top=%d", twice)] = twoValued(rng, n, twice/2)
			}
		}
		runs := make([]int, n)
		for i := range runs {
			runs[i] = i / 37 % 5
		}
		cases["runs"] = runs
		for cname, ids := range cases {
			checkAllKinds(t, name+" "+cname, ids)
		}
	}
	// the doubles' special values and the empty string on their own
	negZero, nan1, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, vals := range [][]float64{
		{0, negZero, 0, negZero, 0, negZero},
		{nan1, nan2, nan1, nan2, nan1, nan1, math.NaN()},
		{negZero, negZero, negZero, negZero, negZero},
		{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), 1.5},
	} {
		checkEagerEquivalent(t, fmt.Sprintf("doubles %v", vals), numOps(Double, vals))
	}
	for _, vals := range [][]string{{"", "", "", "", ""}, {"", "x", "", "x", "", ""}, {"", "", "", "", "", "", "", "a"}} {
		checkEagerEquivalent(t, fmt.Sprintf("strings %q", vals), strOps(coldata.MakeStrings(vals)))
	}
}

// TestStringFiltersMatchEager checks each string filter, and OneValue's
// size, against its eager rule directly, on every stream of up to 6 rows
// over four values (the empty string among them): a filter that differs
// only where the trial encodes would reject its scheme anyway changes no
// bytes, so the comparisons above cannot see it.
func TestStringFiltersMatchEager(t *testing.T) {
	cfg, _ := DefaultConfig().forCompress()
	alphabet := []string{"", "a", "b", "cc"}
	for n := 0; n <= 6; n++ {
		vals := make([]string, n)
		for k := 0; k < 1<<(2*n); k++ {
			for i := range vals {
				vals[i] = alphabet[k>>(2*i)&3]
			}
			var lazy, eager strProfile
			src := coldata.MakeStrings(vals)
			String.profile(&lazy, src, cfg)
			String.profile(&eager, src, cfg)
			for _, code := range String.pool {
				if got, want := String.viable(code, &lazy), eagerStrRule(code)(eager.hashed()); got != want {
					t.Fatalf("%q: %v filter %v, eager rule %v", vals, code, got, want)
				}
			}
			if String.viable(CodeOneValue, &lazy) {
				if size, _ := String.fixed(CodeOneValue, &lazy); size != 9+eager.hashed().MaxLen {
					t.Fatalf("%q: OneValue size %d, eager 9+MaxLen %d", vals, size, 9+eager.hashed().MaxLen)
				}
			}
		}
	}
}

// FuzzLazyProfileMatchesEager reads a stream of one kind out of data and
// checks that selection chooses and writes the same under both paths.
func FuzzLazyProfileMatchesEager(f *testing.F) {
	f.Add(byte(0), []byte{1, 1, 1, 1, 1, 1, 1})
	f.Add(byte(1), []byte{0, 0, 0, 1, 2, 3, 0, 0, 0, 9})
	f.Add(byte(2), []byte{7, 7, 11, 7, 5, 7, 7, 200, 7})
	f.Add(byte(3), []byte("ab,ab,,ab,cd,ab,ab,ef,ab"))
	f.Add(byte(2), bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 80))
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		switch kind % 4 {
		case 0:
			src := make([]int32, len(data))
			for i, b := range data {
				src[i] = int32(b) * int32(1+kind/4)
			}
			checkEagerEquivalent(t, "int", numOps(Int, src))
		case 1:
			src := make([]int64, len(data))
			for i, b := range data {
				src[i] = int64(b)<<40 - int64(kind)
			}
			checkEagerEquivalent(t, "int64", numOps(Int64, src))
		case 2:
			src := make([]float64, len(data))
			for i, b := range data {
				switch b {
				case 0xfe:
					src[i] = math.Copysign(0, -1)
				case 0xff:
					src[i] = math.Float64frombits(0x7ff8000000000000 | uint64(kind))
				default:
					src[i] = float64(b) / 8
				}
			}
			checkEagerEquivalent(t, "double", numOps(Double, src))
		default:
			checkEagerEquivalent(t, "string", strOps(coldata.MakeStrings(splitComma(data))))
		}
	})
}

func splitComma(data []byte) []string {
	var out []string
	for _, f := range bytes.Split(data, []byte{','}) {
		out = append(out, string(f))
	}
	return out
}

// rootHashed compresses src as a root stream, the way compress does, and
// reports the winning scheme and how many times the stream was hashed:
// the profile's hashed pass builds at most once, so 0 or 1.
func rootHashed[T numeric, K stats.Key](t *Numeric[T, K], src []T) (Code, int) {
	cfg, rng := DefaultConfig().forCompress()
	p := new(numProfile[T, K])
	t.profile(p, src, cfg)
	code, _, _ := pick[[]T, numProfile[T, K]](t, src, p, cfg, cfg.depth(), rng)
	t.encodeAs(nil, src, p, code, cfg, cfg.depth(), rng)
	if p.full.Built {
		return code, 1
	}
	return code, 0
}

func rootHashedStrings(src coldata.Strings) (Code, int) {
	cfg, rng := DefaultConfig().forCompress()
	p := new(strProfile)
	String.profile(p, src, cfg)
	code, _, _ := pick[coldata.Strings, strProfile](String, src, p, cfg, cfg.depth(), rng)
	String.encodeAs(nil, src, p, code, cfg, cfg.depth(), rng)
	if p.full.Built {
		return code, 1
	}
	return code, 0
}

// TestRootStreamHashes counts the hashed builds of a root stream: a string
// stream is hashed where Dict wins and not where FSST does; a numeric one
// once, at its first filter, whichever scheme wins.
func TestRootStreamHashes(t *testing.T) {
	const n = 64000
	rng := rand.New(rand.NewSource(3))
	fastBP, runs, dictInts := make([]int32, n), make([]int32, n), make([]int32, n)
	runDoubles, dictDoubles := make([]float64, n), make([]float64, n)
	urls, words := make([]string, n), make([]string, n)
	for i := 0; i < n; i++ {
		fastBP[i] = rng.Int31n(1 << 20)
		if runs[i] = rng.Int31n(1<<20) * 3; i%4 != 0 {
			runs[i] = runs[i-1]
		}
		dictInts[i] = rng.Int31n(200) * 1000003
		if runDoubles[i] = float64(rng.Intn(1<<20)) / 8; i%4 != 0 {
			runDoubles[i] = runDoubles[i-1]
		}
		dictDoubles[i] = float64(rng.Intn(30)) * 1.25
		urls[i] = fmt.Sprintf("https://host-%d.example.org/users/%d/items?id=%d", rng.Intn(90000), rng.Intn(1e6), rng.Intn(1e9))
		words[i] = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"}[rng.Intn(7)]
	}
	for _, c := range []struct {
		name   string
		run    func() (Code, int)
		code   Code
		hashed int
	}{
		{"int FastBP", func() (Code, int) { return rootHashed(Int, fastBP) }, CodeFastBP, 1},
		{"int RLE", func() (Code, int) { return rootHashed(Int, runs) }, CodeRLE, 1},
		{"int Dict", func() (Code, int) { return rootHashed(Int, dictInts) }, CodeDict, 1},
		{"double RLE", func() (Code, int) { return rootHashed(Double, runDoubles) }, CodeRLE, 1},
		{"double Dict", func() (Code, int) { return rootHashed(Double, dictDoubles) }, CodeDict, 1},
		{"string FSST", func() (Code, int) { return rootHashedStrings(coldata.MakeStrings(urls)) }, CodeFSST, 0},
		{"string Dict", func() (Code, int) { return rootHashedStrings(coldata.MakeStrings(words)) }, CodeDict, 1},
	} {
		code, hashed := c.run()
		if code != c.code {
			t.Fatalf("%s: selection picked %v; the case is meant for %v", c.name, code, c.code)
		}
		if hashed != c.hashed {
			t.Errorf("%s: root stream hashed %d times, want %d", c.name, hashed, c.hashed)
		}
	}
}
