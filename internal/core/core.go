// Package core implements the heart of BtrBlocks: the pool of cascading
// encoding schemes per data type, the sampling-based scheme selection
// algorithm (Listing 1 of the paper), and the self-describing compressed
// stream format. Every compressed stream is one scheme-code byte followed
// by a scheme-specific payload whose sub-streams are themselves streams
// chosen by the same algorithm with one less cascade level.
package core

import (
	"errors"
	"slices"
	"strings"

	"btrblocks/internal/sample"
)

// Code identifies an encoding scheme in a compressed stream.
type Code uint8

// Scheme codes. The set mirrors Table 1 / Figure 3 of the paper.
const (
	CodeUncompressed Code = iota
	CodeOneValue
	CodeRLE
	CodeDict
	CodeFrequency
	CodeFastBP   // FOR + 128-lane bit packing (SIMD-FastBP128 stand-in)
	CodeFastPFOR // patched FOR (SIMD-FastPFOR stand-in)
	CodePDE      // Pseudodecimal Encoding
	CodeFSST     // Fast Static Symbol Table (strings)
	numCodes
)

var codeNames = [numCodes]string{
	"Uncompressed", "OneValue", "RLE", "Dictionary", "Frequency",
	"FastBP", "FastPFOR", "Pseudodecimal", "FSST",
}

// String returns the human-readable scheme name.
func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "Invalid"
}

// Valid reports whether c is a defined scheme code.
func (c Code) Valid() bool { return c < numCodes }

// AllCodes returns every defined scheme code in tag order.
func AllCodes() []Code {
	out := make([]Code, numCodes)
	for i := range out {
		out[i] = Code(i)
	}
	return out
}

// CodeFromName resolves a scheme name (as returned by Code.String) back
// to its code. The lookup is case-insensitive.
func CodeFromName(name string) (Code, bool) {
	for i, n := range codeNames {
		if strings.EqualFold(n, name) {
			return Code(i), true
		}
	}
	return 0, false
}

// Kind identifies the value kind of a compressed stream. Sub-streams of
// a cascade may have a different kind than their parent: RLE run lengths
// and dictionary codes are 32-bit integer streams regardless of the
// parent's kind.
type Kind uint8

// Stream value kinds.
const (
	KindInt Kind = iota
	KindInt64
	KindDouble
	KindString
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindInt64:
		return "int64"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	}
	return "invalid"
}

// CandidateEstimate records one scheme the picker considered for a
// stream: the sample-based compression-ratio estimate it scored and the
// encoded size of the sample trial. The implicit Uncompressed baseline
// is reported with ratio 1. Candidates are only collected when
// Config.OnDecision is set; the default path allocates nothing.
type CandidateEstimate struct {
	// Code is the candidate scheme.
	Code Code
	// EstimatedRatio is the sample-based compression-ratio estimate
	// (sample raw bytes / trial-encoded bytes).
	EstimatedRatio float64
	// SampleBytes is the trial encoding's size in bytes (0 when the
	// candidate was scored without a trial, e.g. the OneValue fast path).
	SampleBytes int
}

// Decision describes one scheme-selection outcome: the scheme chosen for
// one stream (the block root or a cascade sub-stream) and what it did.
// Decisions are delivered to Config.OnDecision in post-order — a
// stream's sub-stream decisions arrive before its own.
type Decision struct {
	// Kind is the stream's value kind.
	Kind Kind
	// Level is the cascade level: 0 for the block root, 1 for its direct
	// sub-streams, and so on.
	Level int
	// Code is the chosen scheme.
	Code Code
	// Values is the stream's value count.
	Values int
	// InputBytes is the stream's raw binary size (4 or 8 bytes per
	// value; strings count payload plus one 32-bit offset per value).
	// OutputBytes is the encoded size including the scheme tag.
	InputBytes  int
	OutputBytes int
	// EstimatedRatio is the sample-based estimate that won the pick
	// (1 when no scheme beat Uncompressed).
	EstimatedRatio float64
	// PickNanos is the time spent selecting the scheme: statistics,
	// sampling, and trial-encoding every viable candidate.
	PickNanos int64
	// Candidates lists every scheme the picker scored for this stream
	// (the statistics-viable pool plus the Uncompressed baseline), in
	// evaluation order. Empty on the depth-0 fallthrough, where no
	// selection ran.
	Candidates []CandidateEstimate
}

// ErrCorrupt is returned by the decompressors for malformed streams.
var ErrCorrupt = errors.New("btrblocks: corrupt stream")

// DefaultMaxCascadeDepth is the paper's default maximum recursion depth.
const DefaultMaxCascadeDepth = 3

// Config controls scheme selection and decoding behaviour.
type Config struct {
	// MaxCascadeDepth bounds recursive scheme application (default 3).
	MaxCascadeDepth int
	// Sample is the sampling strategy for ratio estimation (default 10×64).
	Sample sample.Strategy
	// ScalarDecode selects the naive per-element decode kernels instead of
	// the optimized ones — the Go analog of the §6.8 SIMD ablation.
	ScalarDecode bool
	// DisableFuseDictRLE turns off the fused Dict+RLE decompression of §5.
	DisableFuseDictRLE bool
	// IntSchemes / DoubleSchemes / StringSchemes restrict the scheme pool;
	// nil means "all schemes for that type". CodeUncompressed is always an
	// implicit candidate. Used by the Figure 4 pool-ablation experiments.
	IntSchemes    []Code
	DoubleSchemes []Code
	StringSchemes []Code
	// Seed makes sampling deterministic.
	Seed int64
	// Scratch, when non-nil, supplies reusable buffers for the decoders'
	// short-lived temporaries (run values/lengths, dictionary codes,
	// frequency exceptions). A Scratch is single-owner: it must never be
	// shared between concurrently running decodes — the parallel engine
	// hands each worker its own. Nil means "allocate per decode".
	Scratch *Scratch
	// MaxDecodedValues caps the value count a decoder will accept from a
	// stream header (0 = MaxBlockValues). Every scheme honours it: every
	// stream's count is checked against it once, as its head is parsed,
	// by Decompress, Parse, Select, Count and Aggregate alike. The query
	// layer sets it to the block's declared row count so corrupt streams
	// cannot claim huge outputs.
	MaxDecodedValues int
	// OnDecision, when non-nil, is called once per scheme-selection
	// decision during compression — the block root and every cascade
	// sub-stream, in post-order. Sampling trial encodes do not fire the
	// hook. A nil hook adds no measurable cost to the compression path;
	// a non-nil hook additionally times each selection.
	OnDecision func(Decision)
}

// maxN returns the effective decode cap.
func (c *Config) maxN() int {
	if c.MaxDecodedValues > 0 {
		return min(c.MaxDecodedValues, MaxBlockValues)
	}
	return MaxBlockValues
}

// DefaultConfig returns the paper's default configuration.
func DefaultConfig() *Config {
	return &Config{
		MaxCascadeDepth: DefaultMaxCascadeDepth,
		Sample:          sample.Default,
		Seed:            42,
	}
}

// depth is the cascade depth a compression starts with: MaxCascadeDepth,
// or the default where it is not positive.
func (c *Config) depth() int {
	if c.MaxCascadeDepth <= 0 {
		return DefaultMaxCascadeDepth
	}
	return c.MaxCascadeDepth
}

// sampling is the sampling strategy, or the default where Sample is unset.
func (c *Config) sampling() sample.Strategy {
	if c.Sample.Runs <= 0 || c.Sample.RunLen <= 0 {
		return sample.Default
	}
	return c.Sample
}

func enabled(pool []Code, code Code) bool { return pool == nil || slices.Contains(pool, code) }

// MaxBlockValues bounds per-stream value counts: blocks larger than this
// cannot be compressed, and decoders reject claimed counts above it so a
// corrupt header cannot trigger an enormous allocation or a multi-second
// zero-fill (found by fuzzing).
const MaxBlockValues = 1 << 22
