// Package bitpack implements frame-of-reference (FOR) encoding and
// fixed-width bit packing of 32-bit integers in 128-value blocks.
//
// The layout mirrors the structure of SIMD-FastBP128 from Lemire &
// Boytsov: values are grouped into blocks of 128, each block stores its
// own bit width, and within a block all values are packed at that width.
// Value i of a block occupies bits [i*w, (i+1)*w) of a little-endian
// stream of 64-bit words, so a full block at width w is exactly 2*w
// words — block payloads are always word-aligned and a value straddles
// at most one word boundary.
//
// Decoding dispatches on the width through a table of generated,
// fully unrolled kernels (kernels32_gen.go / kernels64_gen.go, one
// straight-line function per width covering a whole 128-value block);
// these replace the SIMD lane shuffles of the original with word-level
// constant-shift extraction. Partial tail blocks and the §6.8 scalar
// ablation use the retained accumulator loop ([UnpackGeneric]), which
// the kernels are tested bit-identical against for every width and
// tail length.
package bitpack

//go:generate go run ./gen

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// BlockLen is the number of values per packed block.
const BlockLen = 128

var (
	// ErrCorrupt is returned when a packed stream is malformed.
	ErrCorrupt = errors.New("bitpack: corrupt stream")
)

// Width returns the number of bits needed to represent v.
func Width(v uint32) uint { return uint(bits.Len32(v)) }

// MaxWidth returns the number of bits needed for the largest value in src.
func MaxWidth(src []uint32) uint {
	var m uint32
	for _, v := range src {
		m |= v
	}
	return uint(bits.Len32(m))
}

// Pack appends the low `width` bits of every value in src to dst.
// Values are packed little-endian into 64-bit words: value i occupies bits
// [i*width, (i+1)*width) of the conceptual bit stream. width must be in
// [0, 32]. Returns the extended dst.
func Pack(dst []byte, src []uint32, width uint) []byte {
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
		acc |= uint64(v&mask32(width)) << nacc
		nacc += width
		if nacc >= 64 {
			binary.LittleEndian.PutUint64(out[wi*8:], acc)
			wi++
			nacc -= 64
			if nacc > 0 {
				acc = uint64(v&mask32(width)) >> (width - nacc)
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

// Unpack reads n values of `width` bits from src into dst (which must have
// length >= n) and returns the number of bytes consumed. Full 128-value
// blocks decode through the width-specialized kernel table; short (tail)
// blocks fall back to the generic loop.
func Unpack(dst []uint32, src []byte, n int, width uint) (int, error) {
	if width == 0 {
		for i := 0; i < n; i++ {
			dst[i] = 0
		}
		return 0, nil
	}
	if n == BlockLen && width <= 32 && len(dst) >= BlockLen {
		nBytes := BlockLen / 8 * int(width) // 2*width words
		if len(src) < nBytes {
			return 0, ErrCorrupt
		}
		kernels32[width]((*[BlockLen]uint32)(dst), src)
		return nBytes, nil
	}
	return UnpackGeneric(dst, src, n, width)
}

// UnpackGeneric is the width-generic accumulator-loop decoder: the
// reference implementation the kernels must match bit for bit, the tail
// path for partial blocks, and the "scalar" side of the §6.8 ablation.
func UnpackGeneric(dst []uint32, src []byte, n int, width uint) (int, error) {
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
			dst[i] = uint32(acc & m)
			acc >>= width
			nacc -= width
			continue
		}
		// refill from the next word
		next := binary.LittleEndian.Uint64(src[wi*8:])
		wi++
		v := acc | next<<nacc
		dst[i] = uint32(v & m)
		consumedFromNext := width - nacc
		acc = 0
		if consumedFromNext < 64 {
			acc = next >> consumedFromNext
		}
		nacc = 64 - consumedFromNext
	}
	return nWords * 8, nil
}

func mask32(width uint) uint32 {
	if width >= 32 {
		return ^uint32(0)
	}
	return (1 << width) - 1
}

func mask64(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (1 << width) - 1
}

// EncodeFOR compresses src using frame-of-reference plus per-128-block bit
// packing and appends the result to dst. Layout:
//
//	n:u32  base:u32(min, as uint32 of the int32 min)  then per block:
//	width:u8  packed payload (ceil(blockLen*width/64) words)
//
// Signed inputs are handled by rebasing on the minimum value, so all
// packed deltas are non-negative.
func EncodeFOR(dst []byte, src []int32) []byte {
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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(base))
	var deltas [BlockLen]uint32
	for off := 0; off < len(src); off += BlockLen {
		end := off + BlockLen
		if end > len(src) {
			end = len(src)
		}
		blk := src[off:end]
		for i, v := range blk {
			deltas[i] = uint32(int64(v) - int64(base))
		}
		w := MaxWidth(deltas[:len(blk)])
		dst = append(dst, byte(w))
		dst = Pack(dst, deltas[:len(blk)], w)
	}
	return dst
}

// DecodeFOR decompresses a stream produced by EncodeFOR, appending the
// values to dst. It returns the extended dst and the number of input bytes
// consumed.
func DecodeFOR(dst []int32, src []byte) ([]int32, int, error) {
	return decodeFOR(dst, src, Unpack)
}

// DecodeFORGeneric is DecodeFOR on the generic unpack loop — the scalar
// side of the §6.8 ablation. Output is bit-identical to DecodeFOR.
func DecodeFORGeneric(dst []int32, src []byte) ([]int32, int, error) {
	return decodeFOR(dst, src, UnpackGeneric)
}

func decodeFOR(dst []int32, src []byte, unpack func([]uint32, []byte, int, uint) (int, error)) ([]int32, int, error) {
	if len(src) < 4 {
		return dst, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(src))
	pos := 4
	if n == 0 {
		return dst, pos, nil
	}
	if len(src) < 8 {
		return dst, 0, ErrCorrupt
	}
	// Every block needs at least its width byte, so n values require at
	// least ceil(n/BlockLen) more input bytes: reject implausible counts
	// before allocating the output (a corrupt header must not cause a
	// multi-gigabyte allocation).
	if n < 0 || (n+BlockLen-1)/BlockLen > len(src)-8 {
		return dst, 0, ErrCorrupt
	}
	base := int32(binary.LittleEndian.Uint32(src[pos:]))
	pos += 4
	var deltas [BlockLen]uint32
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
		if w > 32 {
			return dst, 0, ErrCorrupt
		}
		used, err := unpack(deltas[:cnt], src[pos:], cnt, w)
		if err != nil {
			return dst, 0, err
		}
		pos += used
		// base + delta wraps mod 2^32 either way, so int32 addition is
		// exactly the old widen-add-truncate.
		blk := dst[out+got : out+got+cnt]
		for i := range blk {
			blk[i] = base + int32(deltas[i])
		}
	}
	return dst, pos, nil
}

// EncodedSizeFOR returns the exact encoded size of EncodeFOR(nil, src)
// without materializing it. Used by the scheme estimator.
func EncodedSizeFOR(src []int32) int {
	if len(src) == 0 {
		return 4
	}
	base := src[0]
	for _, v := range src {
		if v < base {
			base = v
		}
	}
	size := 8
	var deltas [BlockLen]uint32
	for off := 0; off < len(src); off += BlockLen {
		end := off + BlockLen
		if end > len(src) {
			end = len(src)
		}
		blk := src[off:end]
		for i, v := range blk {
			deltas[i] = uint32(int64(v) - int64(base))
		}
		w := MaxWidth(deltas[:len(blk)])
		bits := uint64(len(blk)) * uint64(w)
		size += 1 + int((bits+63)/64)*8
	}
	return size
}
