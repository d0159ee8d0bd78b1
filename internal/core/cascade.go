package core

import (
	"math/rand"
	"slices"
	"time"

	"btrblocks/internal/sample"
	"btrblocks/internal/stats"
)

// The cascade driver — the scheme selection of Listing 1, applied again to
// every sub-stream a scheme produces — is written once for every column
// kind: filter the kind's pool by the stream's statistics, estimate each
// viable scheme on a sample, encode with the best, report the decision.
// What a kind brings is a descriptor implementing column; there are four,
// Int, Int64 and Double (*Numeric) and String (*StringKind).

// kindInfo is the part of a descriptor that does not depend on the value
// type; the driver's bookkeeping and the layout walkers need nothing else.
type kindInfo struct {
	kind  Kind
	width int                  // bytes per value in plain, OneValue and Frequency payloads (numeric kinds)
	pool  []Code               // the codes the picker tries, in order (see use)
	allow func(*Config) []Code // the Config's restriction of pool
}

func (k *kindInfo) info() *kindInfo { return k }

// Schemes lists every root scheme applicable to the kind's blocks.
func (k *kindInfo) Schemes() []Code { return append([]Code{CodeUncompressed}, k.pool...) }

// column is what the driver asks of a descriptor. V is a stream of the
// kind's values, P the profile the picker and the winning encoder share.
// Every method is called per stream, never per value.
type column[V, P any] interface {
	info() *kindInfo
	// profiles is the kind's free list of unbuilt profiles in a Scratch.
	profiles(s *Scratch) *[]*P
	// size returns a stream's value count and its raw bytes.
	size(src V) (n, bytes int)
	// sample draws the estimation sample of §3.2.
	sample(src V, s sample.Strategy, rng *rand.Rand) V
	// profile builds p over src on first need and returns its statistics.
	// The picker and the encoders all ask through here, so a stream is
	// hashed once however many of them need it.
	profile(p *P, src V, cfg *Config) *stats.Summary
	// viable applies the statistics filters of §3 (step 2) to a built p;
	// fixed is the entry's size function, where the profile alone fixes
	// the scheme's encoded size (see numScheme.size), or nil.
	viable(code Code, p *P) bool
	fixed(code Code) func(p *P) int
	// encodeAs appends src encoded with the given root scheme; p is src's
	// profile, possibly not built yet. Sub-streams go back through
	// compress one level down.
	encodeAs(dst []byte, src V, p *P, code Code, cfg *Config, depth int, rng *rand.Rand) []byte
}

// reusable is what the driver asks of a profile type.
type reusable[P any] interface {
	*P
	Reset()
}

// compressRoot, choose and compressAs are the kinds' exported Compress,
// Choose and CompressAs.
func compressRoot[V, P any, PP reusable[P]](t column[V, P], dst []byte, src V, cfg *Config) []byte {
	cfg, rng := cfg.forCompress()
	return compress[V, P, PP](t, dst, src, cfg, cfg.depth(), rng)
}

func choose[V, P any, PP reusable[P]](t column[V, P], src V, cfg *Config) (Code, float64) {
	cfg, rng := cfg.forCompress()
	free := t.profiles(cfg.Scratch)
	p := borrow(free)
	defer giveBack[P, PP](free, p)
	code, est, _ := pick[V, P, PP](t, src, p, cfg, cfg.depth(), rng)
	return code, est
}

func compressAs[V, P any, PP reusable[P]](t column[V, P], dst []byte, src V, code Code, cfg *Config) []byte {
	cfg, rng := cfg.forCompress()
	free := t.profiles(cfg.Scratch)
	p := borrow(free)
	defer giveBack[P, PP](free, p)
	if n, _ := t.size(src); code != CodeUncompressed && (n == 0 || !slices.Contains(t.info().pool, code)) {
		return nil
	}
	if t.fixed(code) != nil {
		if t.profile(p, src, cfg); !t.viable(code, p) {
			return nil // a fixed-size scheme encodes only streams it is viable on
		}
	}
	return t.encodeAs(dst, src, p, code, cfg, cfg.depth(), rng)
}

// compress picks a scheme for src and encodes it. The stream's profile is
// built at most once and shared by the picker and the winning encoder.
func compress[V, P any, PP reusable[P]](t column[V, P], dst []byte, src V, cfg *Config, depth int, rng *rand.Rand) []byte {
	free := t.profiles(cfg.Scratch)
	p := borrow(free)
	defer giveBack[P, PP](free, p)
	if cfg.OnDecision == nil {
		code, _, _ := pick[V, P, PP](t, src, p, cfg, depth, rng)
		return t.encodeAs(dst, src, p, code, cfg, depth, rng)
	}
	t0 := time.Now()
	code, est, cands := pick[V, P, PP](t, src, p, cfg, depth, rng)
	pickNanos := time.Since(t0).Nanoseconds()
	before := len(dst)
	dst = t.encodeAs(dst, src, p, code, cfg, depth, rng)
	n, bytes := t.size(src)
	cfg.OnDecision(Decision{
		Kind: t.info().kind, Level: cfg.depth() - depth, Code: code,
		Values: n, InputBytes: bytes, OutputBytes: len(dst) - before,
		EstimatedRatio: est, PickNanos: pickNanos, Candidates: cands,
	})
	return dst
}

// pick is the scheme-picking algorithm of Listing 1: filter by statistics,
// estimate each viable scheme's ratio on a sample, take the best. Depth 0
// always yields Uncompressed. Candidate estimates are collected only when
// the caller's decision hook is set, so the default path allocates nothing
// extra. p is the (possibly not yet built) profile of src; the trial
// encodes share one profile of the sample the same way.
func pick[V, P any, PP reusable[P]](t column[V, P], src V, p *P, cfg *Config, depth int, rng *rand.Rand) (Code, float64, []CandidateEstimate) {
	n, bytes := t.size(src)
	if depth <= 0 || n == 0 {
		return CodeUncompressed, 1, nil
	}
	collect := cfg.OnDecision != nil
	cfg = quiet(cfg)
	k := t.info()
	allowed := k.allow(cfg)
	t.profile(p, src, cfg)
	for _, code := range k.pool {
		if size := t.fixed(code); size != nil && enabled(allowed, code) && t.viable(code, p) {
			est := float64(bytes) / float64(size(p))
			var cands []CandidateEstimate
			if collect {
				cands = []CandidateEstimate{{Code: code, EstimatedRatio: est}}
			}
			return code, est, cands
		}
	}
	smp := t.sample(src, cfg.sampling(), rng)
	smpN, rawBytes := t.size(smp)
	sp := p // a block no larger than the sample is its own sample
	if smpN != n {
		free := t.profiles(cfg.Scratch)
		sp = borrow(free)
		defer giveBack[P, PP](free, sp)
	}
	best, bestRatio := CodeUncompressed, 1.0
	var cands []CandidateEstimate
	if collect {
		cands = append(cands, CandidateEstimate{Code: CodeUncompressed, EstimatedRatio: 1, SampleBytes: 5 + rawBytes})
	}
	for _, code := range k.pool {
		if !enabled(allowed, code) || !t.viable(code, p) {
			continue
		}
		enc := t.encodeAs(nil, smp, sp, code, cfg, depth, rng)
		ratio := float64(rawBytes) / float64(len(enc))
		if collect {
			cands = append(cands, CandidateEstimate{Code: code, EstimatedRatio: ratio, SampleBytes: len(enc)})
		}
		if ratio > bestRatio {
			best, bestRatio = code, ratio
		}
	}
	return best, bestRatio, cands
}

// quiet returns cfg with the decision hook stripped, so the trial encodes
// a pick function runs on samples are not reported as real decisions.
func quiet(cfg *Config) *Config {
	if cfg.OnDecision == nil {
		return cfg
	}
	c := *cfg
	c.OnDecision = nil
	return &c
}

// Compress compresses a block of values into a self-describing stream
// using sampling-based scheme selection with cascading.
func (t *Numeric[T, K]) Compress(dst []byte, src []T, cfg *Config) []byte {
	return compressRoot(t, dst, src, cfg)
}

// Choose reports which scheme the selection algorithm would pick for src
// and the estimated compression ratio, without compressing the block: the
// statistics + sampling + per-scheme estimation of §3.1 alone.
func (t *Numeric[T, K]) Choose(src []T, cfg *Config) (Code, float64) { return choose(t, src, cfg) }

// CompressAs forces a specific root scheme (sub-streams still go through
// normal selection). Returns nil if the scheme is not applicable to the
// data (e.g. OneValue on a multi-value block). Used by the
// sampling-accuracy experiments, which need the exhaustive-best scheme as
// ground truth, and by tests that must reach one scheme's code paths.
func (t *Numeric[T, K]) CompressAs(dst []byte, src []T, code Code, cfg *Config) []byte {
	return compressAs(t, dst, src, code, cfg)
}

func (t *Numeric[T, K]) profiles(s *Scratch) *[]*stats.Profile[K] { return &t.scratch(s).profiles }

func (t *Numeric[T, K]) size(src []T) (int, int) { return len(src), t.width * len(src) }

func (t *Numeric[T, K]) sample(src []T, s sample.Strategy, rng *rand.Rand) []T {
	return sample.Values(src, s, rng)
}

func (t *Numeric[T, K]) profile(p *stats.Profile[K], src []T, cfg *Config) *stats.Summary {
	if !p.Built {
		p.Build(t.keys(src, cfg.Scratch), &cfg.Scratch.table)
	}
	return &p.Summary
}

func (t *Numeric[T, K]) viable(code Code, p *stats.Profile[K]) bool { return t.schemes[code].viable(p) }

func (t *Numeric[T, K]) fixed(code Code) func(*stats.Profile[K]) int { return t.schemes[code].size }

func (t *Numeric[T, K]) encodeAs(dst []byte, src []T, p *stats.Profile[K], code Code, cfg *Config, depth int, rng *rand.Rand) []byte {
	return t.schemes[code].encode(append(dst, byte(code)), src, p, cfg, depth, rng)
}
