// Package btrblocks is a pure-Go implementation of BtrBlocks (Kuschewski,
// Sauerwein, Alhomssi, Leis — SIGMOD 2023): an open columnar compression
// format for data lakes built from a pool of lightweight encoding schemes,
// a sampling-based scheme selection algorithm, and cascading compression.
//
// A column is compressed in independent blocks of (by default) 64,000
// values. For each block the library estimates the compression ratio of
// every viable scheme on a small sample (ten 64-value runs from
// non-overlapping parts of the block), compresses with the winner, and
// recursively applies the same machinery to the scheme's integer
// sub-streams up to a maximum cascade depth of three.
//
// The package compresses four column types: int32, int64 (timestamps and
// large keys), float64 (bit-exact, including NaN payloads and -0.0, via
// Pseudodecimal Encoding and friends) and variable-length strings
// (dictionary with optional FSST pool compression, or direct FSST). NULLs
// are tracked per block in Roaring bitmaps, orthogonally to value
// compression.
//
// Compressed files are self-describing: Inspect parses a column, chunk,
// or stream file into an exact byte-accounted layout tree without
// decompressing any payload, and Options.Telemetry records per-block
// scheme-selection telemetry during compression. FORMAT.md in the
// repository root specifies the binary format byte by byte.
package btrblocks

import (
	"btrblocks/coldata"
	"btrblocks/internal/core"
	"btrblocks/internal/roaring"
	"btrblocks/internal/sample"
)

// Type identifies a column's data type.
type Type uint8

// Column data types supported by the format.
const (
	TypeInt Type = iota
	TypeDouble
	TypeString
	TypeInt64
)

// maxType is the highest valid Type value, used by format validation.
const maxType = TypeInt64

// String returns the type name.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "integer"
	case TypeDouble:
		return "double"
	case TypeString:
		return "string"
	case TypeInt64:
		return "bigint"
	}
	return "invalid"
}

// Scheme identifies an encoding scheme (re-exported from the scheme
// framework so callers can inspect and restrict the pool).
type Scheme = core.Code

// Encoding schemes (Table 1 of the paper).
const (
	SchemeUncompressed = core.CodeUncompressed
	SchemeOneValue     = core.CodeOneValue
	SchemeRLE          = core.CodeRLE
	SchemeDict         = core.CodeDict
	SchemeFrequency    = core.CodeFrequency
	SchemeFastBP       = core.CodeFastBP
	SchemeFastPFOR     = core.CodeFastPFOR
	SchemePDE          = core.CodePDE
	SchemeFSST         = core.CodeFSST
)

// DefaultBlockSize is the number of values per compression block.
const DefaultBlockSize = 64000

// Options configures compression and decompression. The zero value gives
// the paper's defaults.
type Options struct {
	// BlockSize is the number of values per block (default 64,000).
	BlockSize int
	// MaxCascadeDepth bounds recursive scheme application (default 3).
	MaxCascadeDepth int
	// SampleRuns and SampleRunLen configure the estimation sample
	// (default 10 runs × 64 values = 1% of a default block).
	SampleRuns   int
	SampleRunLen int
	// ScalarDecode switches to the naive per-element decode kernels
	// (the §6.8 ablation).
	ScalarDecode bool
	// DisableFuseDictRLE turns off fused Dict+RLE decompression.
	DisableFuseDictRLE bool
	// IntSchemes/DoubleSchemes/StringSchemes restrict the scheme pool
	// per type; nil means all schemes.
	IntSchemes    []Scheme
	DoubleSchemes []Scheme
	StringSchemes []Scheme
	// Parallelism is the number of worker goroutines for whole-chunk
	// (de)compression; <= 0 means GOMAXPROCS.
	Parallelism int
	// FormatVersion selects the on-disk format version for newly written
	// files: 0 (the default) writes the current version (2, with per-block
	// and whole-file CRC32C checksums); 1 writes the legacy checksum-free
	// layout for consumers that predate the integrity layer. Reading
	// always accepts both versions.
	FormatVersion int
	// Seed makes sampling deterministic (default 42).
	Seed int64
	// Telemetry, when non-nil, records per-block compression telemetry
	// (chosen schemes per cascade level, estimated vs. actual ratios,
	// timings) and decode-side counters (blocks decompressed, values
	// produced, decode time). nil — the default — disables recording
	// entirely and adds no measurable overhead. The recorder is safe to
	// share across concurrent compressions and decompressions; read it
	// with Snapshot.
	Telemetry *Telemetry
	// Trace, when non-nil, records a full cascade decision trace per
	// compressed block: every candidate scheme the picker scored, its
	// sample-estimated ratio, the winner, and the cascade tree. Heavier
	// than Telemetry (it keeps per-candidate detail), meant for debugging
	// scheme selection rather than steady-state monitoring. nil disables
	// tracing with no overhead. Safe to share across concurrent
	// compressions; read it with Snapshot.
	Trace *Tracer
}

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() *Options { return &Options{} }

func (o *Options) blockSize() int {
	if o == nil || o.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

func (o *Options) coreConfig() *core.Config {
	cfg := core.DefaultConfig()
	if o == nil {
		return cfg
	}
	if o.MaxCascadeDepth > 0 {
		cfg.MaxCascadeDepth = o.MaxCascadeDepth
	}
	if o.SampleRuns > 0 && o.SampleRunLen > 0 {
		cfg.Sample = sample.Strategy{Runs: o.SampleRuns, RunLen: o.SampleRunLen}
	}
	cfg.ScalarDecode = o.ScalarDecode
	cfg.DisableFuseDictRLE = o.DisableFuseDictRLE
	cfg.IntSchemes = o.IntSchemes
	cfg.DoubleSchemes = o.DoubleSchemes
	cfg.StringSchemes = o.StringSchemes
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// NullMask records which positions of a column block or chunk are NULL.
// The zero value (and nil) is an all-valid mask.
type NullMask struct {
	bm *roaring.Bitmap
}

// NewNullMask returns an empty (all-valid) mask.
func NewNullMask() *NullMask { return &NullMask{bm: roaring.New()} }

// SetNull marks position i as NULL.
func (m *NullMask) SetNull(i int) {
	if m.bm == nil {
		m.bm = roaring.New()
	}
	m.bm.Add(uint32(i))
}

// IsNull reports whether position i is NULL.
func (m *NullMask) IsNull(i int) bool {
	return m != nil && m.bm != nil && m.bm.Contains(uint32(i))
}

// NullCount returns the number of NULL positions.
func (m *NullMask) NullCount() int {
	if m == nil || m.bm == nil {
		return 0
	}
	return m.bm.Cardinality()
}

// ForEachNull calls f with every NULL position in ascending order.
func (m *NullMask) ForEachNull(f func(i int) bool) {
	if m == nil || m.bm == nil {
		return
	}
	m.bm.ForEach(func(v uint32) bool { return f(int(v)) })
}

// slice returns the positions in [lo, hi) rebased to zero, or nil if none.
func (m *NullMask) slice(lo, hi int) *roaring.Bitmap {
	if m == nil || m.bm == nil {
		return nil
	}
	out := roaring.New()
	out.AddWords(0, m.bm.Words(uint32(lo), uint32(hi), nil))
	if out.IsEmpty() {
		return nil
	}
	out.RunOptimize()
	return out
}

// valid returns positions [0, n) that are not NULL as a bitset, bit i for
// position i.
func (m *NullMask) valid(n int) []uint64 {
	w := make([]uint64, (n+63)/64)
	if m != nil && m.bm != nil {
		w = m.bm.Words(0, uint32(n), w)
	}
	for i := range w {
		w[i] = ^w[i]
	}
	if n%64 != 0 {
		w[len(w)-1] &= 1<<(n%64) - 1
	}
	return w
}

// Column is one typed column of a chunk: a name, a type, the value
// vector matching that type, and an optional NULL mask. Values at NULL
// positions are stored and round-tripped but their content is
// unspecified; the compressor may rewrite them to improve compression.
type Column struct {
	Name    string
	Type    Type
	Ints    []int32
	Ints64  []int64
	Doubles []float64
	Strings coldata.Strings
	Nulls   *NullMask
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Type {
	case TypeInt:
		return len(c.Ints)
	case TypeInt64:
		return len(c.Ints64)
	case TypeDouble:
		return len(c.Doubles)
	case TypeString:
		return c.Strings.Len()
	}
	return 0
}

// UncompressedBytes returns the in-memory binary size of the column: four
// bytes per integer, eight per double, and payload plus a 32-bit offset
// per string — the same accounting the paper's "Uncompressed" rows use.
func (c *Column) UncompressedBytes() int {
	switch c.Type {
	case TypeInt:
		return 4 * len(c.Ints)
	case TypeInt64:
		return 8 * len(c.Ints64)
	case TypeDouble:
		return 8 * len(c.Doubles)
	case TypeString:
		return c.Strings.TotalBytes()
	}
	return 0
}

// IntColumn builds an integer column.
func IntColumn(name string, values []int32) Column {
	return Column{Name: name, Type: TypeInt, Ints: values}
}

// Int64Column builds a 64-bit integer column (timestamps, large keys).
func Int64Column(name string, values []int64) Column {
	return Column{Name: name, Type: TypeInt64, Ints64: values}
}

// DoubleColumn builds a double column.
func DoubleColumn(name string, values []float64) Column {
	return Column{Name: name, Type: TypeDouble, Doubles: values}
}

// StringColumn builds a string column from Go strings.
func StringColumn(name string, values []string) Column {
	return Column{Name: name, Type: TypeString, Strings: coldata.MakeStrings(values)}
}

// StringsColumn builds a string column from an already-flattened vector.
func StringsColumn(name string, values coldata.Strings) Column {
	return Column{Name: name, Type: TypeString, Strings: values}
}

// Chunk is a horizontal slice of a relation: a set of equal-length
// columns.
type Chunk struct {
	Columns []Column
}

// NumRows returns the row count (0 for an empty chunk).
func (c *Chunk) NumRows() int {
	if len(c.Columns) == 0 {
		return 0
	}
	return c.Columns[0].Len()
}

// UncompressedBytes sums the uncompressed sizes of all columns.
func (c *Chunk) UncompressedBytes() int {
	total := 0
	for i := range c.Columns {
		total += c.Columns[i].UncompressedBytes()
	}
	return total
}
