package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"btrblocks/internal/bitpack"
	"btrblocks/internal/fastpfor"
	"btrblocks/internal/fsst"
	"btrblocks/internal/roaring"
)

// Layout describes the structure of one compressed stream — the scheme
// tag, header fields, leaf payloads, and cascade sub-streams — obtained
// by walking headers only, without decoding any value payload. It is the
// building block of the public Inspect API and of FORMAT.md's worked
// examples.
//
// Byte accounting is exact by construction:
//
//	Bytes == HeaderBytes + PayloadBytes + Σ Children[i].Bytes
//
// and Bytes equals what the matching decoder would consume.
type Layout struct {
	// Code is the stream's scheme tag.
	Code Code
	// Kind is the stream's value kind.
	Kind Kind
	// Role says which sub-stream of the parent scheme this is ("run
	// values", "codes", "exceptions", …); empty for a block root.
	Role string
	// Values is the value count declared by the stream header.
	Values int
	// Bytes is the stream's total encoded size, tag byte included.
	Bytes int
	// HeaderBytes counts the tag byte plus fixed header fields.
	// PayloadBytes counts leaf payload bytes owned directly by this
	// stream: packed words, string pools, bitmaps, patches.
	HeaderBytes  int
	PayloadBytes int
	// Detail holds scheme-specific extras (bit widths, exception counts,
	// pool encoding) for human-readable rendering.
	Detail string
	// Children are the cascade sub-streams, in on-disk order.
	Children []*Layout
}

// seal computes Bytes from the parts and returns the layout.
func (l *Layout) seal() *Layout {
	l.Bytes = l.HeaderBytes + l.PayloadBytes
	for _, c := range l.Children {
		l.Bytes += c.Bytes
	}
	return l
}

// MaxDepth returns the number of cascade levels in the tree rooted at l
// (1 for a leaf scheme with no sub-streams).
func (l *Layout) MaxDepth() int {
	depth := 1
	for _, c := range l.Children {
		if d := 1 + c.MaxDepth(); d > depth {
			depth = d
		}
	}
	return depth
}

// Walk calls f for l and every descendant in pre-order, passing the
// node's cascade level (0 for l itself).
func (l *Layout) Walk(f func(node *Layout, level int)) {
	l.walk(f, 0)
}

func (l *Layout) walk(f func(*Layout, int), level int) {
	f(l, level)
	for _, c := range l.Children {
		c.walk(f, level+1)
	}
}

// InspectStream parses the layout of one compressed stream of the given
// kind. It validates framing exactly as the decoders do but never
// decodes payloads, so it is cheap even on large blocks. Returns the
// layout and the number of bytes consumed.
func InspectStream(kind Kind, src []byte) (*Layout, int, error) {
	var l *Layout
	var err error
	switch kind {
	case KindInt:
		l, err = walkNumeric(&Int.numInfo, src, "")
	case KindInt64:
		l, err = walkNumeric(&Int64.numInfo, src, "")
	case KindDouble:
		l, err = walkNumeric(&Double.numInfo, src, "")
	case KindString:
		l, err = walkString(src, "")
	default:
		return nil, 0, ErrCorrupt
	}
	if err != nil {
		return nil, 0, err
	}
	return l, l.Bytes, nil
}

// walkInt walks one of the int32 sub-streams every cascade produces.
func walkInt(src []byte, role string) (*Layout, error) { return walkNumeric(&Int.numInfo, src, role) }

// walkNumeric walks a stream of the numeric type t describes; sub-streams
// of values have the parent's kind, run lengths and codes are int32.
func walkNumeric(t *numInfo, src []byte, role string) (*Layout, error) {
	if len(src) < 1 {
		return nil, ErrCorrupt
	}
	code := Code(src[0])
	body := src[1:]
	l := &Layout{Code: code, Kind: t.kind, Role: role}
	walkValues := func(src []byte, role string) (*Layout, error) { return walkNumeric(t, src, role) }
	switch code {
	case CodeUncompressed:
		if len(body) < 4 {
			return nil, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		if n > maxBlockValues || len(body) < 4+t.width*n {
			return nil, ErrCorrupt
		}
		l.Values, l.HeaderBytes, l.PayloadBytes = n, 1+4, t.width*n
	case CodeOneValue:
		if len(body) < 4+t.width {
			return nil, ErrCorrupt
		}
		l.Values = int(binary.LittleEndian.Uint32(body))
		l.HeaderBytes = 1 + 4 + t.width
	case CodeRLE:
		return walkRLE(l, body, walkValues)
	case CodeDict:
		return walkDictCodes(l, body, walkValues)
	case CodeFrequency:
		if len(body) < 4+t.width {
			return nil, ErrCorrupt
		}
		l.Values = int(binary.LittleEndian.Uint32(body))
		l.HeaderBytes = 1 + 4 + t.width
		if err := walkFrequencyTail(l, body[4+t.width:], walkValues); err != nil {
			return nil, err
		}
	default: // a leaf codec, if the type's pool has it
		err := ErrCorrupt
		switch {
		case !slices.Contains(t.pool, code):
		case code == CodeFastBP:
			err = walkFOR(l, body, t.width, 8*t.width)
		case code == CodeFastPFOR:
			err = walkPFOR(l, body)
		case code == CodePDE:
			err = walkPDE(l, body)
		}
		if err != nil {
			return nil, err
		}
	}
	return l.seal(), nil
}

func walkString(src []byte, role string) (*Layout, error) {
	if len(src) < 1 {
		return nil, ErrCorrupt
	}
	code := Code(src[0])
	body := src[1:]
	l := &Layout{Code: code, Kind: KindString, Role: role}
	switch code {
	case CodeUncompressed:
		if len(body) < 8 {
			return nil, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		dataLen := int(binary.LittleEndian.Uint32(body[4:]))
		if n > maxBlockValues || dataLen < 0 || len(body) < 8+4*(n+1)+dataLen {
			return nil, ErrCorrupt
		}
		l.Values, l.HeaderBytes, l.PayloadBytes = n, 1+8, 4*(n+1)+dataLen
		l.Detail = fmt.Sprintf("offsets %dB, data %dB", 4*(n+1), dataLen)
	case CodeOneValue:
		if len(body) < 8 {
			return nil, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(body))
		strLen := int(binary.LittleEndian.Uint32(body[4:]))
		if n > maxBlockValues || strLen < 0 || len(body) < 8+strLen {
			return nil, ErrCorrupt
		}
		l.Values, l.HeaderBytes, l.PayloadBytes = n, 1+8, strLen
	case CodeDict:
		if err := walkStringDict(l, body); err != nil {
			return nil, err
		}
	case CodeFSST:
		if err := walkStringFSST(l, body); err != nil {
			return nil, err
		}
	default:
		return nil, ErrCorrupt
	}
	return l.seal(), nil
}

// walkRLE parses the shared RLE header and the (values, lengths)
// sub-streams; values have the parent's kind, lengths are int32.
func walkRLE(l *Layout, body []byte, walkValues func([]byte, string) (*Layout, error)) (*Layout, error) {
	if len(body) < 8 {
		return nil, ErrCorrupt
	}
	l.Values = int(binary.LittleEndian.Uint32(body))
	runCount := int(binary.LittleEndian.Uint32(body[4:]))
	if l.Values > maxBlockValues || runCount > l.Values {
		return nil, ErrCorrupt
	}
	l.HeaderBytes = 1 + 8
	l.Detail = fmt.Sprintf("%d runs", runCount)
	values, err := walkValues(body[8:], "run values")
	if err != nil {
		return nil, err
	}
	lengths, err := walkInt(body[8+values.Bytes:], "run lengths")
	if err != nil {
		return nil, err
	}
	if values.Values != runCount || lengths.Values != runCount {
		return nil, ErrCorrupt
	}
	l.Children = []*Layout{values, lengths}
	return l.seal(), nil
}

// walkDictCodes parses the shared Dict header and the (dictionary,
// codes) sub-streams; the dictionary has the parent's kind, codes are
// int32.
func walkDictCodes(l *Layout, body []byte, walkValues func([]byte, string) (*Layout, error)) (*Layout, error) {
	if len(body) < 8 {
		return nil, ErrCorrupt
	}
	l.Values = int(binary.LittleEndian.Uint32(body))
	dictN := int(binary.LittleEndian.Uint32(body[4:]))
	if l.Values > maxBlockValues || dictN > l.Values {
		return nil, ErrCorrupt
	}
	l.HeaderBytes = 1 + 8
	l.Detail = fmt.Sprintf("%d distinct", dictN)
	dict, err := walkValues(body[8:], "dictionary")
	if err != nil {
		return nil, err
	}
	codes, err := walkInt(body[8+dict.Bytes:], "codes")
	if err != nil {
		return nil, err
	}
	if dict.Values != dictN || codes.Values != l.Values {
		return nil, ErrCorrupt
	}
	l.Children = []*Layout{dict, codes}
	return l.seal(), nil
}

// walkFrequencyTail parses a Frequency payload after the fixed header:
// the top-value position bitmap, then the cascaded exceptions stream.
func walkFrequencyTail(l *Layout, tail []byte, walkValues func([]byte, string) (*Layout, error)) error {
	if l.Values > maxBlockValues {
		return ErrCorrupt
	}
	bm, used, err := roaring.FromBytes(tail)
	if err != nil {
		return ErrCorrupt
	}
	l.PayloadBytes = used
	l.Detail = fmt.Sprintf("top value at %d positions, bitmap %dB", bm.Cardinality(), used)
	exceptions, err := walkValues(tail[used:], "exceptions")
	if err != nil {
		return err
	}
	if bm.Cardinality()+exceptions.Values != l.Values {
		return ErrCorrupt
	}
	l.Children = []*Layout{exceptions}
	return nil
}

// walkFOR sizes a FOR + per-128-block bit-packed payload (FastBP):
// n:u32 [base:u32|u64, then per block width:u8 + packed words].
func walkFOR(l *Layout, body []byte, baseBytes, maxWidth int) error {
	if len(body) < 4 {
		return ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(body))
	l.Values = n
	if n == 0 {
		l.HeaderBytes = 1 + 4
		return nil
	}
	if n > maxBlockValues || len(body) < 4+baseBytes {
		return ErrCorrupt
	}
	l.HeaderBytes = 1 + 4 + baseBytes
	pos := 4 + baseBytes
	minW, maxW := maxWidth, 0
	for got := 0; got < n; got += bitpack.BlockLen {
		cnt := min(n-got, bitpack.BlockLen)
		if pos >= len(body) {
			return ErrCorrupt
		}
		w := int(body[pos])
		if w > maxWidth {
			return ErrCorrupt
		}
		minW, maxW = min(minW, w), max(maxW, w)
		packed := (cnt*w + 63) / 64 * 8
		pos += 1 + packed
		if pos > len(body) {
			return ErrCorrupt
		}
		l.PayloadBytes += 1 + packed
	}
	l.Detail = fmt.Sprintf("bit widths %d..%d", minW, maxW)
	return nil
}

// walkPFOR sizes a FastPFOR payload: n:u32 base:u32, then per block
// b:u8 maxb:u8 exc:u8 + packed lows + positions + packed highs.
func walkPFOR(l *Layout, body []byte) error {
	if len(body) < 4 {
		return ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(body))
	l.Values = n
	if n == 0 {
		l.HeaderBytes = 1 + 4
		return nil
	}
	if n > maxBlockValues || len(body) < 8 {
		return ErrCorrupt
	}
	l.HeaderBytes = 1 + 8
	pos := 8
	totalExc := 0
	for got := 0; got < n; got += fastpfor.BlockLen {
		cnt := min(n-got, fastpfor.BlockLen)
		if pos+3 > len(body) {
			return ErrCorrupt
		}
		b := int(body[pos])
		maxb := int(body[pos+1])
		exc := int(body[pos+2])
		if b > 32 || maxb > 32 || b > maxb || exc > cnt {
			return ErrCorrupt
		}
		totalExc += exc
		blockBytes := 3 + (cnt*b+63)/64*8 + exc + (exc*(maxb-b)+63)/64*8
		pos += blockBytes
		if pos > len(body) {
			return ErrCorrupt
		}
		l.PayloadBytes += blockBytes
	}
	l.Detail = fmt.Sprintf("%d exceptions", totalExc)
	return nil
}

// walkPDE parses a Pseudodecimal payload: n:u32, cascaded digits and
// exponents streams, the patch-position bitmap, and the raw patches.
func walkPDE(l *Layout, body []byte) error {
	if len(body) < 4 {
		return ErrCorrupt
	}
	l.Values = int(binary.LittleEndian.Uint32(body))
	if l.Values > maxBlockValues {
		return ErrCorrupt
	}
	l.HeaderBytes = 1 + 4
	pos := 4
	digits, err := walkInt(body[pos:], "digits")
	if err != nil {
		return err
	}
	pos += digits.Bytes
	exps, err := walkInt(body[pos:], "exponents")
	if err != nil {
		return err
	}
	pos += exps.Bytes
	if digits.Values != l.Values || exps.Values != l.Values {
		return ErrCorrupt
	}
	bm, used, err := roaring.FromBytes(body[pos:])
	if err != nil {
		return ErrCorrupt
	}
	pos += used
	patches := bm.Cardinality()
	if len(body) < pos+8*patches {
		return ErrCorrupt
	}
	l.PayloadBytes = used + 8*patches
	l.Detail = fmt.Sprintf("%d patches, bitmap %dB", patches, used)
	l.Children = []*Layout{digits, exps}
	return nil
}

// walkStringDict parses a string Dict payload: the pool (raw or
// FSST-compressed), then cascaded pool-lengths and codes streams.
func walkStringDict(l *Layout, body []byte) error {
	if len(body) < 9 {
		return ErrCorrupt
	}
	l.Values = int(binary.LittleEndian.Uint32(body))
	dictN := int(binary.LittleEndian.Uint32(body[4:]))
	if l.Values > maxBlockValues || dictN > l.Values {
		return ErrCorrupt
	}
	kind := body[8]
	l.HeaderBytes = 1 + 9
	pos := 9
	switch kind {
	case poolRaw:
		if len(body) < pos+4 {
			return ErrCorrupt
		}
		poolLen := int(binary.LittleEndian.Uint32(body[pos:]))
		if poolLen < 0 || len(body) < pos+4+poolLen {
			return ErrCorrupt
		}
		l.HeaderBytes += 4
		l.PayloadBytes = poolLen
		l.Detail = fmt.Sprintf("%d distinct, raw pool %dB", dictN, poolLen)
		pos += 4 + poolLen
	case poolFSST:
		table, used, err := fsst.TableFromBytes(body[pos:])
		if err != nil {
			return ErrCorrupt
		}
		pos += used
		if len(body) < pos+8 {
			return ErrCorrupt
		}
		rawLen := int(binary.LittleEndian.Uint32(body[pos:]))
		encLen := int(binary.LittleEndian.Uint32(body[pos+4:]))
		if rawLen < 0 || encLen < 0 || len(body) < pos+8+encLen {
			return ErrCorrupt
		}
		l.HeaderBytes += 8
		l.PayloadBytes = used + encLen
		l.Detail = fmt.Sprintf("%d distinct, FSST pool %dB -> %dB (table %d symbols, %dB)",
			dictN, rawLen, encLen, table.NumSymbols(), used)
		pos += 8 + encLen
	default:
		return ErrCorrupt
	}
	lengths, err := walkInt(body[pos:], "pool lengths")
	if err != nil {
		return err
	}
	pos += lengths.Bytes
	codes, err := walkInt(body[pos:], "codes")
	if err != nil {
		return err
	}
	if lengths.Values != dictN || codes.Values != l.Values {
		return ErrCorrupt
	}
	l.Children = []*Layout{lengths, codes}
	return nil
}

// walkStringFSST parses a direct-FSST payload: symbol table, compressed
// pool, and the cascaded string-lengths stream.
func walkStringFSST(l *Layout, body []byte) error {
	if len(body) < 4 {
		return ErrCorrupt
	}
	l.Values = int(binary.LittleEndian.Uint32(body))
	if l.Values > maxBlockValues {
		return ErrCorrupt
	}
	l.HeaderBytes = 1 + 4
	pos := 4
	table, used, err := fsst.TableFromBytes(body[pos:])
	if err != nil {
		return ErrCorrupt
	}
	pos += used
	if len(body) < pos+8 {
		return ErrCorrupt
	}
	rawLen := int(binary.LittleEndian.Uint32(body[pos:]))
	encLen := int(binary.LittleEndian.Uint32(body[pos+4:]))
	if rawLen < 0 || encLen < 0 || len(body) < pos+8+encLen {
		return ErrCorrupt
	}
	l.HeaderBytes += 8
	l.PayloadBytes = used + encLen
	l.Detail = fmt.Sprintf("pool %dB -> %dB (table %d symbols, %dB)",
		rawLen, encLen, table.NumSymbols(), used)
	pos += 8 + encLen
	lengths, err := walkInt(body[pos:], "string lengths")
	if err != nil {
		return err
	}
	if lengths.Values != l.Values {
		return ErrCorrupt
	}
	l.Children = []*Layout{lengths}
	return nil
}
