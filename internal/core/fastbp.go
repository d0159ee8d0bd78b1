package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

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
// their bounds, unread, and compare the deltas of every other block with
// the predicate rebased onto the block's reference: a full block straight
// from its packed words, through bitpack's generated compare kernels,
// where the width allows (32 bits for a range, 12 for In); any other
// block unpacked and through cmpWords. Under a selection, folds
// read only the selected deltas (take).

// fastBP makes the entry of Int or Int64 from bitpack's codec for T, whose
// deltas are packed as U.
func fastBP[T integer, U uint32 | uint64](t *Numeric[T, T],
	encode func([]byte, []T) []byte, decode, decodeScalar func([]T, []byte) ([]T, int, error),
	unpack, unpackScalar func([]U, []byte, int, uint) (int, error)) *numScheme[T, T] {
	return &numScheme[T, T]{code: CodeFastBP,
		viable: func(*stats.Profile[T]) bool { return true },
		encode: func(dst []byte, src []T, _ *numProfile[T, T], _ *Config, _ int, _ *rand.Rand) []byte {
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
			var set [64]uint64
			var skipped, scanned int64
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
					skipped++
					return nil
				}
				scanned++
				c := p.rebase(ref, hiBound)
				// A block's 128 rows start on a word boundary: two words.
				var blk []uint64
				if sel != nil {
					blk = sel[row/64:]
				}
				if m0, m1, ok := cmpPacked(p, c, ref, packed, cnt, w, &set); ok {
					if blk != nil {
						blk[0] |= m0
						blk[1] |= m1
					}
					count += bits.OnesCount64(m0) + bits.OnesCount64(m1)
					return nil
				}
				if _, err := unpacked(deltas[:cnt], packed, cnt, w); err != nil {
					return ErrCorrupt
				}
				count += cmpWords(c, deltas[:cnt], blk)
				return nil
			})
			st.FORSkipped.Add(skipped)
			st.FORScanned.Add(scanned)
			if err != nil {
				return 0, 0, err
			}
			return count, used, nil
		},
		take: func(dst []T, src []byte, n int, sel []uint64, cfg *Config) ([]T, int, error) {
			unpacked := unpack
			if cfg.ScalarDecode {
				unpacked = unpackScalar
			}
			var deltas [bitpack.BlockLen]U
			var vals [bitpack.BlockLen]T
			used, err := forBlocks[T, U](src, n, func(ref T, row, cnt int, w uint, packed []byte) error {
				m0, m1 := blockWords(sel, row, cnt)
				switch k := bits.OnesCount64(m0) + bits.OnesCount64(m1); {
				case k == 0:
				case w == 0:
					for ; k > 0; k-- {
						dst = append(dst, ref)
					}
				case k < takeDense:
					// One or two word loads per selected value.
					for m := m0; m != 0; m &= m - 1 {
						dst = append(dst, ref+T(U(packedAt(packed, bits.TrailingZeros64(m), w))))
					}
					for m := m1; m != 0; m &= m - 1 {
						dst = append(dst, ref+T(U(packedAt(packed, 64+bits.TrailingZeros64(m), w))))
					}
				default:
					if _, err := unpacked(deltas[:cnt], packed, cnt, w); err != nil {
						return ErrCorrupt
					}
					for i, d := range deltas[:cnt] {
						vals[i] = ref + T(d)
					}
					dst = appendMasked(dst, vals[:min(cnt, 64)], m0)
					dst = appendMasked(dst, vals[min(cnt, 64):cnt], m1)
				}
				return nil
			})
			if err != nil {
				return dst, 0, err
			}
			return dst, used, nil
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

// cmpPacked compares a block of deltas from ref packed at width w with
// p, rebased to c, straight from the packed words where a generated
// kernel applies: a full block of width 32 or less (int32 and int64
// streams pack alike) for a range (Eq included), and of width
// bitpack.MaxSetWidth or less for In, whose members inside the block it
// sets in set. Otherwise ok is false and the caller unpacks the block and
// runs cmpWords.
func cmpPacked[T integer](p *Pred[T], c cmp[T], ref T, packed []byte, cnt int, w uint, set *[64]uint64) (m0, m1 uint64, ok bool) {
	switch {
	case cnt != bitpack.BlockLen || w > 32:
		return 0, 0, false
	case c.op == PredRange:
		m0, m1 = bitpack.CompareRange(packed, w, c.lo, c.span)
		return m0, m1, true
	case p.Op != PredIn: // a range with Lo > Hi
		return 0, 0, true
	case w > bitpack.MaxSetWidth:
		return 0, 0, false
	}
	clear(set[:(1<<w+63)/64])
	i, _ := slices.BinarySearch(p.In, ref)
	for _, v := range p.In[i:] {
		d := udiff(v, ref)
		if d >= 1<<w {
			break
		}
		set[d/64] |= 1 << (d % 64)
	}
	m0, m1 = bitpack.CompareSet(packed, w, set)
	return m0, m1, true
}

// takeDense is the number of selected values from which a block is
// unpacked whole rather than read value by value.
const takeDense = 48

// blockWords returns the two words of sel that cover the block of cnt
// values starting at row (a multiple of 128), cleared past the block's
// end.
func blockWords(sel []uint64, row, cnt int) (m0, m1 uint64) {
	m0 = sel[row/64]
	if cnt < 64 {
		return m0 & (1<<cnt - 1), 0
	}
	if cnt > 64 {
		m1 = sel[row/64+1]
		if cnt < 128 {
			m1 &= 1<<(cnt-64) - 1
		}
	}
	return m0, m1
}

// packedAt reads value i of a block packed at width w (1 to 64): one
// word load, or two where the value straddles a word boundary.
func packedAt(packed []byte, i int, w uint) uint64 {
	bit := uint(i) * w
	at, sh := bit/64*8, bit%64
	v := binary.LittleEndian.Uint64(packed[at:]) >> sh
	if sh+w > 64 {
		v |= binary.LittleEndian.Uint64(packed[at+8:]) << (64 - sh)
	}
	return v & (^uint64(0) >> (64 - w))
}
