package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"btrblocks/internal/bitpack"
	"btrblocks/internal/stats"
)

// FastBP: frame of reference plus bit packing with one width per 128-value
// block (the SIMD-FastBP128 stand-in), for int32 and int64. The body after
// the tag is internal/bitpack's format:
//
//	tag n:u32 [ref (4 or 8 bytes), then per block width:u8 packed words]
//
// Predicates skip every block whose [ref, ref+2^width) envelope misses
// their bounds, unread.

// fastBP makes the entry of Int or Int64 from bitpack's codec for T, whose
// deltas are packed as U.
func fastBP[T integer, U uint32 | uint64](t *Numeric[T, T],
	encode func([]byte, []T) []byte, decode, decodeScalar func([]T, []byte) ([]T, int, error),
	unpack, unpackScalar func([]U, []byte, int, uint) (int, error)) *numScheme[T, T] {
	return &numScheme[T, T]{code: CodeFastBP,
		viable: func(*stats.Profile[T]) bool { return true },
		encode: func(dst []byte, src []T, _ *stats.Profile[T], _ *Config, _ int, _ *rand.Rand) []byte {
			return encode(dst, src)
		},
		decode: leafDecode(decode, decodeScalar),
		scan: func(src []byte, n int, m Matcher[T], sel []uint64, st *SelectStats, cfg *Config) (count, used int, err error) {
			unpacked := unpack
			if cfg.ScalarDecode {
				unpacked = unpackScalar
			}
			p := m.(*Pred[T]) // the only Matcher of an integer type
			plo, phi := p.Bounds()
			var deltas [bitpack.BlockLen]U
			var vals [bitpack.BlockLen]T
			used, err = forBlocks[T, U](src, n, func(ref T, row, cnt int, w uint, packed []byte) error {
				// Every value of the block lies in [ref, ref+mask(w)]: one
				// disjoint from the predicate's bounds cannot match. The
				// upper bound saturates at MaxInt64, so a width-64 block (or
				// one whose envelope overflows) is never skipped by it.
				hiBound := int64(math.MaxInt64)
				if d := int64(^uint64(0) >> (64 - w)); w < 64 && int64(ref) <= math.MaxInt64-d {
					hiBound = int64(ref) + d
				}
				if phi < int64(ref) || plo > hiBound {
					st.FORSkipped.Add(1)
					return nil
				}
				st.FORScanned.Add(1)
				if _, err := unpacked(deltas[:cnt], packed, cnt, w); err != nil {
					return ErrCorrupt
				}
				for i, d := range deltas[:cnt] {
					vals[i] = ref + T(d)
				}
				// A block's 128 rows start on a word boundary: two words.
				var blk []uint64
				if sel != nil {
					blk = sel[row/64:]
				}
				count += p.filter(vals[:cnt], blk)
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
			return count, used, nil
		},
		walk: func(l *Layout, src []byte) error {
			minW, maxW := 64, 0
			used, err := forBlocks[T, U](src, l.Values, func(_ T, _, _ int, w uint, packed []byte) error {
				minW, maxW = min(minW, int(w)), max(maxW, int(w))
				l.PayloadBytes += 1 + len(packed)
				return nil
			})
			if err != nil {
				return err
			}
			l.HeaderBytes = used - l.PayloadBytes
			if l.Values > 0 {
				l.Detail = fmt.Sprintf("bit widths %d..%d", minW, maxW)
			}
			return nil
		},
	}
}

// forBlocks reads the reference of a FastBP stream of n values and hands
// each packed block to f: the reference, the block's first row, its value
// count, its width and its packed words. It returns the bytes the stream
// takes.
func forBlocks[T integer, U uint32 | uint64](src []byte, n int, f func(ref T, row, cnt int, w uint, packed []byte) error) (int, error) {
	wordBits := uint(bits.Len64(uint64(^U(0))))
	pos := 5
	if n == 0 {
		return pos, nil
	}
	if len(src) < pos+int(wordBits/8) {
		return 0, ErrCorrupt
	}
	ref := T(binary.LittleEndian.Uint32(src[pos:]))
	if wordBits == 64 {
		ref = T(binary.LittleEndian.Uint64(src[pos:]))
	}
	pos += int(wordBits / 8)
	for row := 0; row < n; row += bitpack.BlockLen {
		cnt := min(n-row, bitpack.BlockLen)
		if pos >= len(src) {
			return 0, ErrCorrupt
		}
		w := uint(src[pos])
		pos++
		nBytes := (cnt*int(w) + 63) / 64 * 8
		if w > wordBits || len(src) < pos+nBytes {
			return 0, ErrCorrupt
		}
		if err := f(ref, row, cnt, w, src[pos:pos+nBytes]); err != nil {
			return 0, err
		}
		pos += nBytes
	}
	return pos, nil
}
