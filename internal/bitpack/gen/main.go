// Command gen emits the width-specialized 128-value unpack kernels
// (kernels32_gen.go and kernels64_gen.go). Each kernel is the fully
// unrolled decode of one packed block: every output value becomes one
// shift/or/mask statement whose word index and shift amount are compile
// time constants, so the hot loop has no per-value branches and no
// accumulator state — the pure-Go analog of the generated SIMD kernels
// in Lemire & Boytsov's simdcomp.
//
// It also emits compare32_gen.go: per width, the compare of one full
// packed block with a predicate, straight to the block's two 64-bit
// match words — the same constant-shift extraction, each value tested
// and its bit set without being stored.
//
// Regenerate with `go generate ./internal/bitpack` after changing the
// layout; the output is gofmt-formatted and committed.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

func main() {
	write("kernels32_gen.go", emit(32))
	write("kernels64_gen.go", emit(64))
	write("compare32_gen.go", emitCompare())
}

func write(name string, src []byte) {
	formatted, err := format.Source(src)
	if err != nil {
		log.Fatalf("%s: generated code does not parse: %v", name, err)
	}
	if err := os.WriteFile(name, formatted, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", name, len(formatted))
}

// emit generates the kernel file for value size 32 or 64 bits.
func emit(valueBits int) []byte {
	var b bytes.Buffer
	typ := fmt.Sprintf("uint%d", valueBits)
	fmt.Fprintf(&b, `// Code generated by go run ./gen; DO NOT EDIT.

package bitpack

import "encoding/binary"

// kernels%d[w] unpacks one full %d-value block packed at width w from
// src (which must hold at least 2*w 64-bit words) into dst. Entry 0
// zero-fills. Each kernel is straight-line code: word indices and shift
// amounts are constants, values straddling a word boundary are stitched
// from two words.
var kernels%d = [%d]func(dst *[BlockLen]%s, src []byte){
`, valueBits, blockLen, valueBits, valueBits+1, typ)
	for w := 0; w <= valueBits; w++ {
		fmt.Fprintf(&b, "unpack%d_%d,\n", valueBits, w)
	}
	fmt.Fprintf(&b, "}\n\n")

	fmt.Fprintf(&b, "func unpack%d_0(dst *[BlockLen]%s, src []byte) {\n", valueBits, typ)
	fmt.Fprintf(&b, "\tfor i := range dst {\n\t\tdst[i] = 0\n\t}\n\t_ = src\n}\n\n")

	for w := 1; w <= valueBits; w++ {
		emitKernel(&b, valueBits, w, typ)
	}
	return b.Bytes()
}

const blockLen = 128

func emitKernel(b *bytes.Buffer, valueBits, w int, typ string) {
	nWords := blockLen * w / 64 // w<=64 and 128 values: always exact
	fmt.Fprintf(b, "func unpack%d_%d(dst *[BlockLen]%s, src []byte) {\n", valueBits, w, typ)
	fmt.Fprintf(b, "\t_ = src[%d]\n", nWords*8-1)
	loaded := -1
	for i := 0; i < blockLen; i++ {
		bit := i * w
		word := bit / 64
		sh := bit % 64
		for loaded < word {
			loaded++
			fmt.Fprintf(b, "\tw%d := binary.LittleEndian.Uint64(src[%d:])\n", loaded, loaded*8)
		}
		var expr string
		needMask := true
		if sh+w <= 64 {
			if sh == 0 {
				expr = fmt.Sprintf("w%d", word)
			} else {
				expr = fmt.Sprintf("w%d>>%d", word, sh)
			}
			if sh+w == 64 {
				needMask = false
			}
		} else {
			// value straddles the boundary between word and word+1
			for loaded < word+1 {
				loaded++
				fmt.Fprintf(b, "\tw%d := binary.LittleEndian.Uint64(src[%d:])\n", loaded, loaded*8)
			}
			expr = fmt.Sprintf("w%d>>%d|w%d<<%d", word, sh, word+1, 64-sh)
		}
		if w == valueBits {
			needMask = false
		}
		if valueBits == 32 {
			if needMask {
				fmt.Fprintf(b, "\tdst[%d] = uint32((%s)&%#x)\n", i, expr, uint64(1)<<w-1)
			} else {
				fmt.Fprintf(b, "\tdst[%d] = uint32(%s)\n", i, expr)
			}
		} else {
			if needMask {
				fmt.Fprintf(b, "\tdst[%d] = (%s)&%#x\n", i, expr, mask64of(w))
			} else {
				fmt.Fprintf(b, "\tdst[%d] = %s\n", i, expr)
			}
		}
	}
	fmt.Fprintf(b, "}\n\n")
}

func mask64of(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<w - 1
}

// maxSetWidth is the widest block the set kernels serve: a value of at
// most 12 bits indexes a set of 4096 bits, 64 words.
const maxSetWidth = 12

// emitCompare generates the compare kernels: range for widths 0-32, set
// for widths 0-12.
func emitCompare() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by go run ./gen; DO NOT EDIT.

package bitpack

import "encoding/binary"

// compareRange32[w] compares the %d values x of one full block packed at
// width w (src holds at least 2*w 64-bit words) with 0 <= x-a <= c, for
// a and c in [0, 2^w), and returns the matches as two words: bit i of m0
// for value i < 64, bit i-64 of m1 for the rest. Entry 0 is the block of
// zeros.
var compareRange32 = [33]func(src []byte, a, c int64) (m0, m1 uint64){
`, blockLen)
	for w := 0; w <= 32; w++ {
		fmt.Fprintf(&b, "compareRange32_%d,\n", w)
	}
	fmt.Fprintf(&b, `}

// compareSet32[w] is compareRange32 for a set: value x matches when bit x
// of set is.
var compareSet32 = [%d]func(src []byte, set *[64]uint64) (m0, m1 uint64){
`, maxSetWidth+1)
	for w := 0; w <= maxSetWidth; w++ {
		fmt.Fprintf(&b, "compareSet32_%d,\n", w)
	}
	fmt.Fprintf(&b, `}

// outside is 1 when x-a < 0 or x-a > c, with no branch and no flag: the
// sign of either difference.
func outside(x, a, c int64) uint64 {
	d := x - a
	return uint64(d|(c-d)) >> 63
}

func compareRange32_0(_ []byte, a, c int64) (m0, m1 uint64) {
	all := outside(0, a, c) - 1
	return all, all
}

func compareSet32_0(_ []byte, set *[64]uint64) (m0, m1 uint64) {
	all := -(set[0] & 1)
	return all, all
}

`)
	for w := 1; w <= 32; w++ {
		emitCompareKernel(&b, w, "compareRange32_%d(src []byte, a, c int64) (m0, m1 uint64)",
			"\tvar miss0, miss1 uint64\n", "\tmiss%d |= outside(int64(%s), a, c) << %d\n", "\treturn ^miss0, ^miss1\n")
	}
	for w := 1; w <= maxSetWidth; w++ {
		test := "\tm%d |= set[(%s)>>6] >> ((%[2]s)&63) & 1 << %d\n"
		if w <= 6 {
			test = "\tm%d |= set[0] >> (%s) & 1 << %d\n"
		}
		emitCompareKernel(&b, w, "compareSet32_%d(src []byte, set *[64]uint64) (m0, m1 uint64)",
			"", test, "\treturn m0, m1\n")
	}
	return b.Bytes()
}

// emitCompareKernel writes one compare kernel of width w: its signature
// (a format of the width), its declarations, the statement that tests
// value i (a format of the word its bit goes to, its extraction and the
// bit) and its return.
func emitCompareKernel(b *bytes.Buffer, w int, sig, decl, test, ret string) {
	fmt.Fprintf(b, "func "+sig+" {\n", w)
	fmt.Fprintf(b, "\t_ = src[%d]\n", blockLen*w/8-1)
	b.WriteString(decl)
	loaded := -1
	load := func(word int) {
		for loaded < word {
			loaded++
			fmt.Fprintf(b, "\tw%d := binary.LittleEndian.Uint64(src[%d:])\n", loaded, loaded*8)
		}
	}
	for i := 0; i < blockLen; i++ {
		bit := i * w
		word, sh := bit/64, bit%64
		load(word)
		expr := fmt.Sprintf("w%d", word)
		if sh != 0 {
			expr = fmt.Sprintf("w%d>>%d", word, sh)
		}
		if sh+w > 64 {
			load(word + 1)
			expr = fmt.Sprintf("(w%d>>%d|w%d<<%d)", word, sh, word+1, 64-sh)
		}
		if sh+w != 64 {
			expr = fmt.Sprintf("(%s)&%#x", expr, uint64(1)<<w-1)
		}
		fmt.Fprintf(b, test, i/64, expr, i%64)
	}
	b.WriteString(ret)
	b.WriteString("}\n\n")
}
