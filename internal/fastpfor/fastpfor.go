// Package fastpfor implements a patched frame-of-reference codec for 32-bit
// integers in the spirit of SIMD-FastPFOR (Lemire & Boytsov): values are
// rebased on the block minimum and packed in 128-value blocks at a small bit
// width b chosen per block; the few values that do not fit ("exceptions")
// store their position and their high bits out of line, so outliers do not
// inflate the width of the whole block.
//
// Blocks reuse the bitpack layout invariants: a full block's low-bits
// payload is BlockLen*b bits rounded up to whole 64-bit words, so every
// block starts word-aligned and decodes through the width-specialized
// kernels in package bitpack. A final partial block (fewer than
// BlockLen values) and the §6.8 scalar ablation ([DecodeGeneric]) take
// the generic accumulator path instead.
package fastpfor

import (
	"encoding/binary"
	"errors"
	"slices"

	"btrblocks/internal/bitpack"
)

// BlockLen is the number of values per patched block.
const BlockLen = bitpack.BlockLen

// ErrCorrupt is returned when a stream is malformed.
var ErrCorrupt = errors.New("fastpfor: corrupt stream")

// Encode compresses src and appends the result to dst.
//
// Layout:
//
//	n:u32 base:u32 then per 128-value block:
//	  b:u8 maxb:u8 excCount:u8
//	  packed low bits (BlockLen*b bits, rounded to 64-bit words)
//	  exception positions (excCount bytes)
//	  packed exception high bits (excCount*(maxb-b) bits)
func Encode(dst []byte, src []int32) []byte {
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
	var lows [BlockLen]uint32
	var highs [BlockLen]uint32
	var positions [BlockLen]byte
	for off := 0; off < len(src); off += BlockLen {
		end := off + BlockLen
		if end > len(src) {
			end = len(src)
		}
		blk := src[off:end]
		for i, v := range blk {
			deltas[i] = uint32(int64(v) - int64(base))
		}
		d := deltas[:len(blk)]
		b, maxb := chooseWidth(d)
		exc := 0
		for i, v := range d {
			lows[i] = v & lowMask(b)
			if bitpack.Width(v) > b {
				positions[exc] = byte(i)
				highs[exc] = v >> b
				exc++
			}
		}
		dst = append(dst, byte(b), byte(maxb), byte(exc))
		dst = bitpack.Pack(dst, lows[:len(blk)], b)
		dst = append(dst, positions[:exc]...)
		dst = bitpack.Pack(dst, highs[:exc], maxb-b)
	}
	return dst
}

// chooseWidth picks the packed width b minimizing the block's encoded size
// and returns it with the maximum width maxb.
func chooseWidth(d []uint32) (b, maxb uint) {
	var freq [33]int
	for _, v := range d {
		freq[bitpack.Width(v)]++
	}
	maxb = 32
	for maxb > 0 && freq[maxb] == 0 {
		maxb--
	}
	best := maxb
	bestBits := uint64(len(d)) * uint64(maxb)
	exceptions := 0
	for w := int(maxb) - 1; w >= 0; w-- {
		exceptions += freq[w+1]
		// cost: packed lows + positions (8 bits each) + packed highs
		bits := uint64(len(d))*uint64(w) +
			uint64(exceptions)*8 +
			uint64(exceptions)*uint64(maxb-uint(w))
		if bits < bestBits {
			bestBits = bits
			best = uint(w)
		}
	}
	return best, maxb
}

func lowMask(b uint) uint32 {
	if b >= 32 {
		return ^uint32(0)
	}
	return (1 << b) - 1
}

// Decode decompresses a stream produced by Encode, appending values to dst.
// It returns the extended dst and the number of bytes consumed. Full
// blocks route through bitpack's width-specialized kernels (both the low
// bits and the exception high bits are bit-packed streams).
func Decode(dst []int32, src []byte) ([]int32, int, error) {
	return decode(dst, src, bitpack.Unpack)
}

// DecodeGeneric is Decode on the generic unpack loop — the scalar side
// of the §6.8 ablation. Output is bit-identical to Decode.
func DecodeGeneric(dst []int32, src []byte) ([]int32, int, error) {
	return decode(dst, src, bitpack.UnpackGeneric)
}

func decode(dst []int32, src []byte, unpack func([]uint32, []byte, int, uint) (int, error)) ([]int32, int, error) {
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
	// Each block carries a 3-byte header: reject counts the input cannot
	// possibly hold before allocating the output.
	if n < 0 || (n+BlockLen-1)/BlockLen*3 > len(src)-8 {
		return dst, 0, ErrCorrupt
	}
	base := int32(binary.LittleEndian.Uint32(src[pos:]))
	pos += 4

	var lows [BlockLen]uint32
	var highs [BlockLen]uint32
	out := len(dst)
	dst = slices.Grow(dst, n)[:out+n] // every slot is written below
	for got := 0; got < n; got += BlockLen {
		cnt := n - got
		if cnt > BlockLen {
			cnt = BlockLen
		}
		if pos+3 > len(src) {
			return dst, 0, ErrCorrupt
		}
		b := uint(src[pos])
		maxb := uint(src[pos+1])
		exc := int(src[pos+2])
		pos += 3
		if b > 32 || maxb > 32 || b > maxb || exc > cnt {
			return dst, 0, ErrCorrupt
		}
		used, err := unpack(lows[:cnt], src[pos:], cnt, b)
		if err != nil {
			return dst, 0, err
		}
		pos += used
		if pos+exc > len(src) {
			return dst, 0, ErrCorrupt
		}
		positions := src[pos : pos+exc]
		pos += exc
		used, err = unpack(highs[:exc], src[pos:], exc, maxb-b)
		if err != nil {
			return dst, 0, err
		}
		pos += used
		for i := 0; i < exc; i++ {
			p := int(positions[i])
			if p >= cnt {
				return dst, 0, ErrCorrupt
			}
			lows[p] |= highs[i] << b
		}
		// base + delta wraps mod 2^32 either way, so int32 addition is
		// exactly the old widen-add-truncate.
		blk := dst[out+got : out+got+cnt]
		for i := range blk {
			blk[i] = base + int32(lows[i])
		}
	}
	return dst, pos, nil
}
