package btrblocks

import (
	"context"
	"time"

	"btrblocks/internal/core"
	"btrblocks/internal/parallel"
	"btrblocks/internal/roaring"
)

// This file exposes predicate evaluation on compressed column files —
// the §7 capability: equality predicates are answered from the compressed
// representation where the block's scheme permits (OneValue in O(1), RLE
// by summing run lengths, dictionaries by resolving the value to a code
// once), falling back to decode-and-compare otherwise. Blocks are
// evaluated on the shared worker pool and their counts merged in block
// order, so results (and errors) are identical at every worker count.

// fastCountFn counts matches directly on a block's compressed stream,
// returning (count, bytes consumed, error).
type fastCountFn func(stream []byte, cfg *core.Config) (int, int, error)

// slowCountFn decodes a block and counts matches among non-NULL rows.
type slowCountFn func(stream []byte, nulls *roaring.Bitmap, cfg *core.Config) (int, error)

func int32Preds(v int32) (fastCountFn, slowCountFn) {
	m := core.Eq(v)
	return func(stream []byte, cfg *core.Config) (int, int, error) { return core.Int.Count(stream, m, cfg) },
		func(stream []byte, nulls *roaring.Bitmap, cfg *core.Config) (int, error) {
			values, _, err := core.Int.Decompress(nil, stream, cfg)
			return countNonNull(values, m.Match, nulls), err
		}
}

func int64Preds(v int64) (fastCountFn, slowCountFn) {
	m := core.Eq(v)
	return func(stream []byte, cfg *core.Config) (int, int, error) { return core.Int64.Count(stream, m, cfg) },
		func(stream []byte, nulls *roaring.Bitmap, cfg *core.Config) (int, error) {
			values, _, err := core.Int64.Decompress(nil, stream, cfg)
			return countNonNull(values, m.Match, nulls), err
		}
}

func doublePreds(v float64) (fastCountFn, slowCountFn) {
	m := core.DoubleEq(v)
	return func(stream []byte, cfg *core.Config) (int, int, error) { return core.Double.Count(stream, m, cfg) },
		func(stream []byte, nulls *roaring.Bitmap, cfg *core.Config) (int, error) {
			values, _, err := core.Double.Decompress(nil, stream, cfg)
			return countNonNull(values, m.Match, nulls), err
		}
}

// countNonNull counts the matching values among the non-NULL rows of a
// decoded block.
func countNonNull[T any](values []T, match func(T) bool, nulls *roaring.Bitmap) int {
	count := 0
	for i, x := range values {
		if match(x) && !nulls.Contains(uint32(i)) {
			count++
		}
	}
	return count
}

func stringPreds(v string) (fastCountFn, slowCountFn) {
	p := &core.StringPred{Op: core.PredEq, Eq: []byte(v)}
	return func(stream []byte, cfg *core.Config) (int, int, error) { return core.CountString(stream, p, cfg) },
		func(stream []byte, nulls *roaring.Bitmap, cfg *core.Config) (int, error) {
			views, _, err := core.DecompressString(stream, cfg)
			if err != nil {
				return 0, err
			}
			count := 0
			for i := 0; i < views.Len(); i++ {
				if string(views.Bytes(i)) == v && !nulls.Contains(uint32(i)) {
					count++
				}
			}
			return count, nil
		}
}

// CountEqualInt32 counts non-NULL rows equal to v in a compressed integer
// column file.
func CountEqualInt32(data []byte, v int32, opt *Options) (int, error) {
	ix, err := ParseColumnIndex(data)
	if err != nil {
		return 0, err
	}
	return ix.CountEqualInt32(data, v, opt)
}

// CountEqualInt64 counts non-NULL rows equal to v in a compressed int64
// column file.
func CountEqualInt64(data []byte, v int64, opt *Options) (int, error) {
	ix, err := ParseColumnIndex(data)
	if err != nil {
		return 0, err
	}
	return ix.CountEqualInt64(data, v, opt)
}

// CountEqualDouble counts non-NULL rows bit-exactly equal to v in a
// compressed double column file.
func CountEqualDouble(data []byte, v float64, opt *Options) (int, error) {
	ix, err := ParseColumnIndex(data)
	if err != nil {
		return 0, err
	}
	return ix.CountEqualDouble(data, v, opt)
}

// CountEqualString counts non-NULL rows equal to v in a compressed string
// column file.
func CountEqualString(data []byte, v string, opt *Options) (int, error) {
	ix, err := ParseColumnIndex(data)
	if err != nil {
		return 0, err
	}
	return ix.CountEqualString(data, v, opt)
}

// CountEqualInt32 is CountEqualInt32 on an already-parsed index: callers
// that hold a ColumnIndex (block servers, caches) skip re-parsing the
// file framing on every predicate. data must be the buffer the index was
// parsed from.
func (ix *ColumnIndex) CountEqualInt32(data []byte, v int32, opt *Options) (int, error) {
	return ix.CountEqualInt32Context(context.Background(), data, v, opt)
}

// CountEqualInt32Context is CountEqualInt32 with a caller context: the
// per-block predicate tasks observe cancellation and, when the context
// carries a tracing span, record per-block child spans tagged with
// worker id and queue wait.
func (ix *ColumnIndex) CountEqualInt32Context(ctx context.Context, data []byte, v int32, opt *Options) (int, error) {
	fast, slow := int32Preds(v)
	return countEqualIndexed(ctx, ix, data, opt, TypeInt, fast, slow)
}

// CountEqualInt64 is CountEqualInt64 on an already-parsed index.
func (ix *ColumnIndex) CountEqualInt64(data []byte, v int64, opt *Options) (int, error) {
	return ix.CountEqualInt64Context(context.Background(), data, v, opt)
}

// CountEqualInt64Context is CountEqualInt64 with a caller context.
func (ix *ColumnIndex) CountEqualInt64Context(ctx context.Context, data []byte, v int64, opt *Options) (int, error) {
	fast, slow := int64Preds(v)
	return countEqualIndexed(ctx, ix, data, opt, TypeInt64, fast, slow)
}

// CountEqualDouble is CountEqualDouble on an already-parsed index.
func (ix *ColumnIndex) CountEqualDouble(data []byte, v float64, opt *Options) (int, error) {
	return ix.CountEqualDoubleContext(context.Background(), data, v, opt)
}

// CountEqualDoubleContext is CountEqualDouble with a caller context.
func (ix *ColumnIndex) CountEqualDoubleContext(ctx context.Context, data []byte, v float64, opt *Options) (int, error) {
	fast, slow := doublePreds(v)
	return countEqualIndexed(ctx, ix, data, opt, TypeDouble, fast, slow)
}

// CountEqualString is CountEqualString on an already-parsed index.
func (ix *ColumnIndex) CountEqualString(data []byte, v string, opt *Options) (int, error) {
	return ix.CountEqualStringContext(context.Background(), data, v, opt)
}

// CountEqualStringContext is CountEqualString with a caller context.
func (ix *ColumnIndex) CountEqualStringContext(ctx context.Context, data []byte, v string, opt *Options) (int, error) {
	fast, slow := stringPreds(v)
	return countEqualIndexed(ctx, ix, data, opt, TypeString, fast, slow)
}

// countEqualIndexed evaluates an equality predicate over a column's
// blocks on the worker pool. Blocks without NULLs use the compressed-data
// fast path; blocks with NULLs must decode, because the compressor
// rewrites NULL slots (their content is unspecified) and a rewritten
// slot could spuriously match. Only the decoding slow path counts
// against Options.Telemetry's decode counters — a fast-path-only scan
// records zero block decodes, which is how tests (and the block server's
// telemetry endpoint) can prove a predicate was answered from the
// compressed representation. Per-block counts land in ordered slots and
// are summed in block order.
func countEqualIndexed(
	ctx context.Context,
	ix *ColumnIndex,
	data []byte,
	opt *Options,
	want Type,
	fast fastCountFn,
	slow slowCountFn,
) (int, error) {
	if ix.Type != want {
		return 0, ErrTypeMismatch
	}
	base := opt.coreConfig()
	rec := opt.telemetryRecorder()
	counts := make([]int, len(ix.Blocks))
	err := parallel.Observed(ctx, len(ix.Blocks), parallelism(opt), pathScan, observerOf(rec), func(b int) error {
		ref := ix.Blocks[b]
		if ref.End() > len(data) {
			return ErrTruncatedFile
		}
		if err := ix.VerifyBlock(data, b); err != nil {
			rec.RecordCorruption(1)
			return err
		}
		cfg := *base
		cfg.MaxDecodedValues = ref.Rows
		stream := data[ref.DataOffset():ref.End()]
		if ref.NullBytes == 0 {
			count, used, err := fast(stream, &cfg)
			if err != nil {
				return err
			}
			if used != ref.DataBytes {
				return ErrCorrupt
			}
			counts[b] = count
			return nil
		}
		nulls, used, err := roaring.FromBytes(data[ref.NullOffset() : ref.NullOffset()+ref.NullBytes])
		if err != nil || used != ref.NullBytes {
			return ErrCorrupt
		}
		var start time.Time
		if rec != nil {
			start = time.Now()
		}
		count, err := slow(stream, nulls, &cfg)
		if err != nil {
			return err
		}
		if rec != nil {
			rec.RecordDecode(1, ref.Rows, ref.DataBytes, time.Since(start).Nanoseconds())
		}
		counts[b] = count
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}
