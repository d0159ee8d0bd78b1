package bitpack

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// 64-bit variants of the FOR + block bit-packing codec, for int64 columns
// (timestamps, large keys). Same layout as the 32-bit version with widths
// up to 64 bits.

// Width64 returns the number of bits needed to represent v.
func Width64(v uint64) uint { return uint(bits.Len64(v)) }

// MaxWidth64 returns the bits needed for the largest value in src.
func MaxWidth64(src []uint64) uint {
	var m uint64
	for _, v := range src {
		m |= v
	}
	return uint(bits.Len64(m))
}

// Pack64 appends the low `width` bits of every value in src to dst,
// little-endian into 64-bit words. width must be in [0, 64].
func Pack64(dst []byte, src []uint64, width uint) []byte {
	if width == 0 {
		return dst
	}
	totalBits := uint64(len(src)) * uint64(width)
	nWords := (totalBits + 63) / 64
	start := len(dst)
	dst = append(dst, make([]byte, nWords*8)...)
	out := dst[start:]

	var acc uint64
	var nacc uint
	wi := 0
	for _, v := range src {
		v &= mask64(width)
		acc |= v << nacc
		nacc += width
		if nacc >= 64 {
			binary.LittleEndian.PutUint64(out[wi*8:], acc)
			wi++
			nacc -= 64
			if nacc > 0 {
				acc = v >> (width - nacc)
			} else {
				acc = 0
			}
		}
	}
	if nacc > 0 {
		binary.LittleEndian.PutUint64(out[wi*8:], acc)
	}
	return dst
}

// Unpack64 reads n values of `width` bits from src into dst and returns
// the number of bytes consumed. Like Unpack, full 128-value blocks
// dispatch to the width-specialized kernel table and tails fall back to
// the generic loop.
func Unpack64(dst []uint64, src []byte, n int, width uint) (int, error) {
	if width == 0 {
		for i := 0; i < n; i++ {
			dst[i] = 0
		}
		return 0, nil
	}
	if n == BlockLen && width <= 64 && len(dst) >= BlockLen {
		nBytes := BlockLen / 8 * int(width)
		if len(src) < nBytes {
			return 0, ErrCorrupt
		}
		kernels64[width]((*[BlockLen]uint64)(dst), src)
		return nBytes, nil
	}
	return Unpack64Generic(dst, src, n, width)
}

// Unpack64Generic is the width-generic accumulator loop behind Unpack64:
// reference implementation, tail path, and scalar-ablation decoder.
func Unpack64Generic(dst []uint64, src []byte, n int, width uint) (int, error) {
	if width == 0 {
		for i := 0; i < n; i++ {
			dst[i] = 0
		}
		return 0, nil
	}
	totalBits := uint64(n) * uint64(width)
	nWords := int((totalBits + 63) / 64)
	if len(src) < nWords*8 {
		return 0, ErrCorrupt
	}
	var acc uint64
	var nacc uint
	wi := 0
	m := mask64(width)
	for i := 0; i < n; i++ {
		if nacc >= width {
			dst[i] = acc & m
			acc >>= width
			nacc -= width
			continue
		}
		next := binary.LittleEndian.Uint64(src[wi*8:])
		wi++
		v := acc
		if nacc < 64 {
			v |= next << nacc
		}
		dst[i] = v & m
		consumedFromNext := width - nacc
		acc = 0
		if consumedFromNext < 64 {
			acc = next >> consumedFromNext
		}
		nacc = 64 - consumedFromNext
	}
	return nWords * 8, nil
}

// EncodeFOR64 compresses src using frame-of-reference plus per-128-block
// bit packing: n:u32 base:u64 then per block width:u8 + packed payload.
func EncodeFOR64(dst []byte, src []int64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	if len(src) == 0 {
		return dst
	}
	base := src[0]
	for _, v := range src {
		if v < base {
			base = v
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(base))
	var deltas [BlockLen]uint64
	for off := 0; off < len(src); off += BlockLen {
		end := off + BlockLen
		if end > len(src) {
			end = len(src)
		}
		blk := src[off:end]
		for i, v := range blk {
			deltas[i] = uint64(v) - uint64(base)
		}
		w := MaxWidth64(deltas[:len(blk)])
		dst = append(dst, byte(w))
		dst = Pack64(dst, deltas[:len(blk)], w)
	}
	return dst
}

// DecodeFOR64 decompresses an EncodeFOR64 stream, appending values to dst
// and returning the extended dst and bytes consumed.
func DecodeFOR64(dst []int64, src []byte) ([]int64, int, error) {
	return decodeFOR64(dst, src, Unpack64)
}

// DecodeFOR64Generic is DecodeFOR64 on the generic unpack loop (the
// scalar ablation). Output is bit-identical to DecodeFOR64.
func DecodeFOR64Generic(dst []int64, src []byte) ([]int64, int, error) {
	return decodeFOR64(dst, src, Unpack64Generic)
}

func decodeFOR64(dst []int64, src []byte, unpack func([]uint64, []byte, int, uint) (int, error)) ([]int64, int, error) {
	if len(src) < 4 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	pos := 4
	if n == 0 {
		return dst, pos, nil
	}
	if len(src) < 12 {
		return dst, 0, ErrCorrupt
	}
	if n < 0 || (n+BlockLen-1)/BlockLen > len(src)-12 {
		return dst, 0, ErrCorrupt
	}
	base := int64(binary.LittleEndian.Uint64(src[pos:]))
	pos += 8
	var deltas [BlockLen]uint64
	out := len(dst)
	dst = slices.Grow(dst, n)[:out+n] // every slot is written below
	for got := 0; got < n; got += BlockLen {
		cnt := n - got
		if cnt > BlockLen {
			cnt = BlockLen
		}
		if pos >= len(src) {
			return dst, 0, ErrCorrupt
		}
		w := uint(src[pos])
		pos++
		if w > 64 {
			return dst, 0, ErrCorrupt
		}
		used, err := unpack(deltas[:cnt], src[pos:], cnt, w)
		if err != nil {
			return dst, 0, err
		}
		pos += used
		for i := 0; i < cnt; i++ {
			dst[out+got+i] = int64(uint64(base) + deltas[i])
		}
	}
	return dst, pos, nil
}

// EncodedSizeFOR64 returns the exact size EncodeFOR64(nil, src) produces.
func EncodedSizeFOR64(src []int64) int {
	if len(src) == 0 {
		return 4
	}
	base := src[0]
	for _, v := range src {
		if v < base {
			base = v
		}
	}
	size := 12
	var deltas [BlockLen]uint64
	for off := 0; off < len(src); off += BlockLen {
		end := off + BlockLen
		if end > len(src) {
			end = len(src)
		}
		blk := src[off:end]
		for i, v := range blk {
			deltas[i] = uint64(v) - uint64(base)
		}
		w := MaxWidth64(deltas[:len(blk)])
		bits := uint64(len(blk)) * uint64(w)
		size += 1 + int((bits+63)/64)*8
	}
	return size
}
