package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"btrblocks"
	"btrblocks/coldata"
	"btrblocks/internal/core"
	"btrblocks/internal/jsonlex"
)

// This file defines the wire representations shared by Server and
// Client: the JSON DTOs and the two block encodings, binary and JSON.
//
// The binary block format ("BTBK") is the throughput path — raw
// little-endian values with no per-value framing:
//
//	block  := "BTBK" version:u8 type:u8 startRow:u32 rows:u32
//	          nullCount:u32 nullPos:u32* payload
//	payload(int)    := rows × i32
//	payload(bigint) := rows × i64
//	payload(double) := rows × float64 bits (bit-exact, NaN payloads kept)
//	payload(string) := (rows+1) × u32 offsets, then data bytes
//
// A frame's length follows from its header, so a binary reply carries
// Content-Length and each side moves the payload once: the server
// writes it from the cached block's memory, the client reads it into
// the typed slices it returns, and a router passes the validated bytes
// through (see byteview.go for the little-endian guard). The frame
// itself is version 1 as first shipped: a client that predates
// Content-Length reads these replies, and this client reads a chunked,
// length-less reply from a server that predates it.
//
// The JSON block form (format=json, the default) is one object and a
// newline:
//
//	{"file":F,"block":N,"start_row":N,"rows":N,"type":T,"ints":[...],"nulls":[...]}
//
// with "ints", "ints64", "doubles" or "strings" by type, left out when
// the block has no rows, and "nulls" left out when it has none. Doubles
// travel as strconv 'g'/-1 strings because JSON cannot represent NaN or
// ±Inf and some decoders lose float precision; ParseFloat round-trips
// every finite value exactly, but NaN payloads are lost, so only the
// binary form is bit-exact. These are the bytes encoding/json wrote for
// the DTO this codec replaced, HTML escaping included (wire_test.go keeps
// that DTO as the reference). The one writer, writeBlockJSON, streams
// them from a cached block's memory or, on a router, from a validated
// frame, through a pooled 32 KiB buffer with no string per value; the
// reader, decodeBlockJSON, parses a body in one pass into BlockValues.
// Neither goes through encoding/json; PERFORMANCE.md has the cost of
// each before and after.

const (
	blockWireMagic   = "BTBK"
	blockWireVersion = 1
	frameHeaderLen   = 18
	// wireChunk sizes the buffer the header and the null list go through.
	wireChunk = 4096
)

// FileMeta describes one hosted file in /v1/files.
type FileMeta struct {
	Name   string `json:"name"`
	Bytes  int    `json:"bytes"`
	Kind   string `json:"kind"`
	Type   string `json:"type,omitempty"`
	Rows   int    `json:"rows"`
	Blocks int    `json:"blocks,omitempty"`
}

// InvalidateResult is the POST /v1/invalidate/NAME response.
type InvalidateResult struct {
	File string `json:"file"`
	// Status is "reloaded" when the file is served after invalidation,
	// "removed" when it no longer exists in the backing directory.
	Status string `json:"status"`
}

// CacheStats is a point-in-time copy of a store's cache and decode
// counters, for readers in the same process (btrserved's summary log,
// the benchmark); over HTTP the same counters are /metrics series.
type CacheStats struct {
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Evictions         int64 `json:"evictions"`
	Bytes             int64 `json:"bytes"`
	Entries           int64 `json:"entries"`
	DecodedBlocks     int64 `json:"decoded_blocks"`
	DecodedBytes      int64 `json:"decoded_bytes"`
	PrefetchScheduled int64 `json:"prefetch_scheduled"`
	PrefetchDropped   int64 `json:"prefetch_dropped"`
	InFlight          int64 `json:"inflight"`
	CorruptBlocks     int64 `json:"corrupt_blocks"`
	QuarantinedBlocks int64 `json:"quarantined_blocks"`
	RepairsAccepted   int64 `json:"repairs_accepted,omitempty"`
	RepairsRejected   int64 `json:"repairs_rejected,omitempty"`
}

// RepairResult is the PUT /v1/repair/NAME response.
type RepairResult struct {
	File string `json:"file"`
	// Bytes is the size of the installed payload.
	Bytes int `json:"bytes"`
	// Status is "accepted" — a rejected push is an HTTP error instead.
	Status string `json:"status"`
}

// BlockValues is the client-side decoded form of a block, whichever wire
// format carried it.
type BlockValues struct {
	File     string
	Block    int
	StartRow int
	Rows     int
	Type     string
	Ints     []int32
	Ints64   []int64
	Doubles  []float64
	Strings  []string
	// Nulls lists NULL positions, block-relative, ascending.
	Nulls []int
}

// UncompressedBytes returns the block's in-memory size under the same
// accounting as Column.UncompressedBytes.
func (b *BlockValues) UncompressedBytes() int {
	switch {
	case b.Ints != nil:
		return 4 * len(b.Ints)
	case b.Ints64 != nil:
		return 8 * len(b.Ints64)
	case b.Doubles != nil:
		return 8 * len(b.Doubles)
	default:
		n := 4 * len(b.Strings)
		for _, s := range b.Strings {
			n += len(s)
		}
		return n
	}
}

// typeNamed maps a wire type name (btrblocks.Type.String, as in
// FileMeta.Type) back to the type.
func typeNamed(name string) (btrblocks.Type, bool) {
	for _, t := range []btrblocks.Type{btrblocks.TypeInt, btrblocks.TypeInt64, btrblocks.TypeDouble, btrblocks.TypeString} {
		if t.String() == name {
			return t, true
		}
	}
	return 0, false
}

// WireType maps the block's Type string back to the btrblocks Type
// byte, with the populated payload slice as a tie-breaker so a block
// that traveled either wire format round-trips.
func (b *BlockValues) WireType() btrblocks.Type {
	if t, ok := typeNamed(b.Type); ok {
		return t
	}
	switch {
	case b.Ints != nil:
		return btrblocks.TypeInt
	case b.Ints64 != nil:
		return btrblocks.TypeInt64
	case b.Doubles != nil:
		return btrblocks.TypeDouble
	default:
		return btrblocks.TypeString
	}
}

// errBlockWire is the class of every malformed-frame error: the reply
// arrived whole and is wrong, so a retry cannot help.
var errBlockWire = errors.New("blockstore: bad block wire")

// leWords returns vals as little-endian words: their own memory when
// native, a converted copy otherwise.
func leWords[T word](vals []T, native bool) []byte {
	if native {
		return wordBytes(vals)
	}
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, vals) // cannot fail on a bytes.Buffer
	return buf.Bytes()
}

// readWords fills dst with little-endian words from r: straight into
// its memory when native, converted through encoding/binary otherwise.
func readWords[T word](r io.Reader, dst []T, native bool) error {
	if native {
		_, err := io.ReadFull(r, wordBytes(dst))
		return err
	}
	return binary.Read(r, binary.LittleEndian, dst)
}

// wireOffsets returns the rows+1 offsets a string column puts on the
// wire; a column with nil Offsets still sends its single 0.
func wireOffsets(s coldata.Strings) []uint32 {
	if len(s.Offsets) == 0 {
		return []uint32{0}
	}
	return s.Offsets
}

// blockFrameLen returns the exact length of blk's BTBK frame, which is
// what lets the reply carry Content-Length.
func blockFrameLen(blk *Block) int {
	n := frameHeaderLen + 4*blk.Col.Nulls.NullCount()
	switch blk.Col.Type {
	case btrblocks.TypeInt:
		n += 4 * len(blk.Col.Ints)
	case btrblocks.TypeInt64:
		n += 8 * len(blk.Col.Ints64)
	case btrblocks.TypeDouble:
		n += 8 * len(blk.Col.Doubles)
	case btrblocks.TypeString:
		n += 4*len(wireOffsets(blk.Col.Strings)) + len(blk.Col.Strings.Data)
	}
	return n
}

// writeBlockFrame writes blk in the BTBK wire format: the header and
// the null list through a small buffer, then the payload from the
// block's own memory — no buffer the size of the block is built.
func writeBlockFrame(w io.Writer, blk *Block, native bool) error {
	col := &blk.Col
	nulls := col.Nulls.NullCount()
	buf := make([]byte, 0, min(frameHeaderLen+4*nulls, wireChunk))
	buf = append(buf, blockWireMagic...)
	buf = append(buf, blockWireVersion, byte(col.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(blk.StartRow))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(blk.Rows()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nulls))
	var err error
	col.Nulls.ForEachNull(func(i int) bool {
		if len(buf)+4 > cap(buf) {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		return err == nil
	})
	if err == nil {
		_, err = w.Write(buf)
	}
	if err != nil {
		return err
	}
	var words []byte
	switch col.Type {
	case btrblocks.TypeInt:
		words = leWords(col.Ints, native)
	case btrblocks.TypeInt64:
		words = leWords(col.Ints64, native)
	case btrblocks.TypeDouble:
		words = leWords(col.Doubles, native)
	case btrblocks.TypeString:
		if _, err := w.Write(leWords(wireOffsets(col.Strings), native)); err != nil {
			return err
		}
		words = col.Strings.Data
	}
	_, err = w.Write(words)
	return err
}

// frameHeader is a parsed, bounds-checked BTBK header.
type frameHeader struct {
	typ                   btrblocks.Type
	startRow, rows, nulls int
	dataLen               int // string data bytes; 0 for the numeric types
}

// parseFrameHeader checks the header of a frame n bytes long: magic,
// version, type, counts within core.MaxBlockValues, and n equal to what
// the counts imply — so nothing sized by the header is allocated before
// the header is known to agree with the declared length.
func parseFrameHeader(hdr []byte, n int64) (frameHeader, error) {
	if len(hdr) < frameHeaderLen || n > math.MaxInt || string(hdr[:4]) != blockWireMagic || hdr[4] != blockWireVersion {
		return frameHeader{}, fmt.Errorf("%w: bad header", errBlockWire)
	}
	rows, nulls := binary.LittleEndian.Uint32(hdr[10:]), binary.LittleEndian.Uint32(hdr[14:])
	if rows > core.MaxBlockValues || nulls > rows {
		return frameHeader{}, fmt.Errorf("%w: %d rows with %d nulls exceeds the block limit", errBlockWire, rows, nulls)
	}
	h := frameHeader{
		typ:      btrblocks.Type(hdr[5]),
		startRow: int(binary.LittleEndian.Uint32(hdr[6:])),
		rows:     int(rows),
		nulls:    int(nulls),
	}
	payload := n - frameHeaderLen - 4*int64(nulls)
	switch h.typ {
	case btrblocks.TypeInt:
		payload -= 4 * int64(rows)
	case btrblocks.TypeInt64, btrblocks.TypeDouble:
		payload -= 8 * int64(rows)
	case btrblocks.TypeString:
		payload -= 4 * (int64(rows) + 1)
		if payload >= 0 && payload <= math.MaxUint32 {
			h.dataLen, payload = int(payload), 0
		}
	default:
		return frameHeader{}, fmt.Errorf("%w: unknown block type %d", errBlockWire, h.typ)
	}
	if payload != 0 {
		return frameHeader{}, fmt.Errorf("%w: %s payload size mismatch", errBlockWire, h.typ)
	}
	return h, nil
}

// checkNulls validates a wire null list: strictly ascending positions
// inside the block.
func checkNulls(b []byte, rows int) error {
	prev := -1
	for ; len(b) >= 4; b = b[4:] {
		p := int(binary.LittleEndian.Uint32(b))
		if p <= prev || p >= rows {
			return fmt.Errorf("%w: null positions not ascending within the block", errBlockWire)
		}
		prev = p
	}
	return nil
}

// checkOffsets validates wire string offsets: monotonic, and ending at
// the data length.
func checkOffsets(b []byte, dataLen int) error {
	prev := binary.LittleEndian.Uint32(b)
	for b = b[4:]; len(b) >= 4; b = b[4:] {
		o := binary.LittleEndian.Uint32(b)
		if o < prev {
			return fmt.Errorf("%w: string offsets not monotonic", errBlockWire)
		}
		prev = o
	}
	if int64(prev) != int64(dataLen) {
		return fmt.Errorf("%w: string payload size mismatch", errBlockWire)
	}
	return nil
}

// checkBlockFrame validates a complete frame in place: what a router
// does to a replica's reply before passing the bytes on.
func checkBlockFrame(frame []byte) error {
	h, err := parseFrameHeader(frame, int64(len(frame)))
	if err != nil {
		return err
	}
	pos := frameHeaderLen + 4*h.nulls
	if err := checkNulls(frame[frameHeaderLen:pos], h.rows); err != nil {
		return err
	}
	if h.typ == btrblocks.TypeString {
		return checkOffsets(frame[pos:pos+4*(h.rows+1)], h.dataLen)
	}
	return nil
}

// readChunk is the most readBytes allocates ahead of the bytes arriving.
const readChunk = 8 << 20

// readBytes reads exactly n bytes. Up to readChunk the buffer is made in
// one piece; beyond it the buffer grows as bytes arrive, so a reply that
// lies about its length cannot size an allocation.
func readBytes(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readChunk))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for len(buf) < n {
		at := len(buf)
		buf = append(buf, make([]byte, min(n-at, readChunk))...)
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readFrameHeader reads the header of the n-byte frame on r and checks
// it against n, before anything past it is read or sized.
func readFrameHeader(r io.Reader, n int64) ([]byte, frameHeader, error) {
	if n < frameHeaderLen {
		return nil, frameHeader{}, fmt.Errorf("%w: %d-byte frame", errBlockWire, n)
	}
	hdr, err := readBytes(r, frameHeaderLen)
	if err != nil {
		return nil, frameHeader{}, err
	}
	h, err := parseFrameHeader(hdr, n)
	return hdr, h, err
}

// readFrame reads the n-byte BTBK frame on r whole and validates it in
// place.
func readFrame(r io.Reader, n int64) ([]byte, error) {
	hdr, _, err := readFrameHeader(r, n)
	if err != nil {
		return nil, err
	}
	frame, err := readBytes(io.MultiReader(bytes.NewReader(hdr), r), int(n))
	if err != nil {
		return nil, err
	}
	if err := checkBlockFrame(frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// DecodeBlockFrame parses a complete BTBK frame.
func DecodeBlockFrame(file string, frame []byte) (*BlockValues, error) {
	return readBlockFrame(file, bytes.NewReader(frame), int64(len(frame)), hostLittleEndian)
}

// readBlockFrame decodes the n-byte BTBK frame on r straight into the
// slices of the BlockValues it returns: the header and the null list
// are validated before anything is sized by them, numeric payloads are
// read into the typed slice, and strings are substrings of one backing
// string over one data buffer. An error from r is returned as it is;
// every other error is an errBlockWire.
func readBlockFrame(file string, r io.Reader, n int64, native bool) (*BlockValues, error) {
	_, h, err := readFrameHeader(r, n)
	if err != nil {
		return nil, err
	}
	out := &BlockValues{File: file, StartRow: h.startRow, Rows: h.rows, Type: h.typ.String()}
	if h.nulls > 0 {
		nb, err := readBytes(r, 4*h.nulls)
		if err != nil {
			return nil, err
		}
		if err := checkNulls(nb, h.rows); err != nil {
			return nil, err
		}
		out.Nulls = make([]int, h.nulls)
		for i := range out.Nulls {
			out.Nulls[i] = int(binary.LittleEndian.Uint32(nb[4*i:]))
		}
	}
	switch h.typ {
	case btrblocks.TypeInt:
		out.Ints = make([]int32, h.rows)
		err = readWords(r, out.Ints, native)
	case btrblocks.TypeInt64:
		out.Ints64 = make([]int64, h.rows)
		err = readWords(r, out.Ints64, native)
	case btrblocks.TypeDouble:
		out.Doubles = make([]float64, h.rows)
		err = readWords(r, out.Doubles, native)
	case btrblocks.TypeString:
		out.Strings, err = readStrings(r, h)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readStrings reads a string payload: the offsets, then the data into
// the one buffer every returned string is a substring of.
func readStrings(r io.Reader, h frameHeader) ([]string, error) {
	offs, err := readBytes(r, 4*(h.rows+1))
	if err != nil {
		return nil, err
	}
	if err := checkOffsets(offs, h.dataLen); err != nil {
		return nil, err
	}
	data, err := readBytes(r, h.dataLen)
	if err != nil {
		return nil, err
	}
	backing := stringOf(data)
	out := make([]string, h.rows)
	lo := binary.LittleEndian.Uint32(offs)
	for i := range out {
		hi := binary.LittleEndian.Uint32(offs[4*(i+1):])
		out[i] = backing[lo:hi]
		lo = hi
	}
	return out, nil
}

// wireView is a block as the JSON writer reads it: the header's fields,
// the NULL positions in ascending order, and the payload in BTBK byte
// order. blockView makes one from a cached block's memory and frameView
// from a validated frame; neither copies the values.
type wireView struct {
	frameHeader
	file     string
	block    int
	eachNull func(yield func(int) bool)
	words    []byte // numeric payload: rows little-endian words
	offsets  []byte // string payload: rows+1 little-endian u32 offsets
	data     []byte // string payload: the bytes the offsets index
}

// blockView is the wireView of a cached block.
func blockView(blk *Block, native bool) wireView {
	col := &blk.Col
	v := wireView{
		frameHeader: frameHeader{typ: col.Type, startRow: blk.StartRow, rows: blk.Rows(), nulls: col.Nulls.NullCount()},
		file:        blk.File,
		block:       blk.Index,
		eachNull:    col.Nulls.ForEachNull,
	}
	switch col.Type {
	case btrblocks.TypeInt:
		v.words = leWords(col.Ints, native)
	case btrblocks.TypeInt64:
		v.words = leWords(col.Ints64, native)
	case btrblocks.TypeDouble:
		v.words = leWords(col.Doubles, native)
	case btrblocks.TypeString:
		v.offsets, v.data = leWords(wireOffsets(col.Strings), native), col.Strings.Data
	}
	return v
}

// frameView is the wireView of block idx of file, carried by frame.
func frameView(file string, idx int, frame []byte) (wireView, error) {
	if err := checkBlockFrame(frame); err != nil {
		return wireView{}, err
	}
	h, _ := parseFrameHeader(frame, int64(len(frame)))
	pos := frameHeaderLen + 4*h.nulls
	nulls := frame[frameHeaderLen:pos]
	v := wireView{frameHeader: h, file: file, block: idx, eachNull: func(yield func(int) bool) {
		for b := nulls; len(b) >= 4; b = b[4:] {
			if !yield(int(binary.LittleEndian.Uint32(b))) {
				return
			}
		}
	}}
	if h.typ == btrblocks.TypeString {
		v.offsets, v.data = frame[pos:pos+4*(h.rows+1)], frame[pos+4*(h.rows+1):]
	} else {
		v.words = frame[pos:]
	}
	return v, nil
}

// WriteBlockJSON writes the format=json body of block idx of file from
// its BTBK frame: the bytes the node that holds the block writes for it.
// A router answers format=json this way, without decoding the block.
func WriteBlockJSON(w io.Writer, file string, idx int, frame []byte) error {
	v, err := frameView(file, idx, frame)
	if err != nil {
		return err
	}
	return writeBlockJSON(w, v)
}

// valuesKey is the JSON key of a block's values.
func valuesKey(t btrblocks.Type) string {
	switch t {
	case btrblocks.TypeInt:
		return "ints"
	case btrblocks.TypeInt64:
		return "ints64"
	case btrblocks.TypeDouble:
		return "doubles"
	default:
		return "strings"
	}
}

// jsonChunk is the size of the pooled buffer a JSON body streams through.
const jsonChunk = 32 << 10

var jsonBufs = sync.Pool{New: func() any { b := make([]byte, 0, jsonChunk); return &b }}

// jsonOut is the JSON writer's buffer and the writer it drains into.
type jsonOut struct {
	w   io.Writer
	buf []byte
	err error
}

func (o *jsonOut) flush() {
	if o.err == nil && len(o.buf) > 0 {
		_, o.err = o.w.Write(o.buf)
	}
	o.buf = o.buf[:0]
}

// spill flushes a nearly full buffer.
func (o *jsonOut) spill() {
	if len(o.buf) >= jsonChunk-64 {
		o.flush()
	}
}

// writeBlockJSON is the one JSON block writer. It appends the body to a
// pooled buffer, value by value from v's memory, and writes the buffer
// out each time it fills.
func writeBlockJSON(w io.Writer, v wireView) error {
	bp := jsonBufs.Get().(*[]byte)
	o := jsonOut{w: w, buf: (*bp)[:0]}
	o.buf = append(o.buf, `{"file":`...)
	o.buf = appendJSONString(o.buf, v.file)
	o.buf = append(o.buf, `,"block":`...)
	o.buf = strconv.AppendInt(o.buf, int64(v.block), 10)
	o.buf = append(o.buf, `,"start_row":`...)
	o.buf = strconv.AppendInt(o.buf, int64(v.startRow), 10)
	o.buf = append(o.buf, `,"rows":`...)
	o.buf = strconv.AppendInt(o.buf, int64(v.rows), 10)
	o.buf = append(o.buf, `,"type":"`...)
	o.buf = append(o.buf, v.typ.String()...)
	if v.rows > 0 {
		o.buf = append(o.buf, `","`...)
		o.buf = append(o.buf, valuesKey(v.typ)...)
		o.buf = append(o.buf, `":[`...)
		for i := 0; i < v.rows && o.err == nil; i++ {
			if i > 0 {
				o.buf = append(o.buf, ',')
			}
			o.buf = appendJSONValue(o.buf, &v, i)
			o.spill()
		}
		o.buf = append(o.buf, ']')
	} else {
		o.buf = append(o.buf, '"')
	}
	if v.nulls > 0 {
		o.buf = append(o.buf, `,"nulls":[`...)
		sep := false
		v.eachNull(func(i int) bool {
			if sep {
				o.buf = append(o.buf, ',')
			}
			sep = true
			o.buf = strconv.AppendInt(o.buf, int64(i), 10)
			o.spill()
			return o.err == nil
		})
		o.buf = append(o.buf, ']')
	}
	o.buf = append(o.buf, "}\n"...)
	o.flush()
	if cap(o.buf) == jsonChunk { // a long string may have grown it: drop that one
		*bp = o.buf
		jsonBufs.Put(bp)
	}
	return o.err
}

// appendJSONValue appends value i of v: an integer, a double as its
// shortest 'g' string, or a string.
func appendJSONValue(dst []byte, v *wireView, i int) []byte {
	switch v.typ {
	case btrblocks.TypeInt:
		return strconv.AppendInt(dst, int64(int32(binary.LittleEndian.Uint32(v.words[4*i:]))), 10)
	case btrblocks.TypeInt64:
		return strconv.AppendInt(dst, int64(binary.LittleEndian.Uint64(v.words[8*i:])), 10)
	case btrblocks.TypeDouble:
		dst = append(dst, '"')
		dst = strconv.AppendFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(v.words[8*i:])), 'g', -1, 64)
		return append(dst, '"')
	default:
		lo, hi := binary.LittleEndian.Uint32(v.offsets[4*i:]), binary.LittleEndian.Uint32(v.offsets[4*i+4:])
		return appendJSONString(dst, v.data[lo:hi])
	}
}

// jsonSafe marks the bytes the writer leaves unescaped: printable ASCII
// but '"' and '\\', and '<', '>' and '&', which encoding/json escapes
// for HTML.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`"\\<>&`, rune(b))
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaped exactly as
// encoding/json escapes it: the short escapes, \u00XX for other control
// bytes and for <, > and &, \ufffd for each byte of invalid UTF-8, and
// \u2028 and \u2029 (line and paragraph separator).
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonReader is a cursor over a JSON block body: the shared lexer, and
// the body as the string unescaped values are substrings of.
type jsonReader struct {
	jsonlex.Reader
	s string
}

// maxJSONDepth bounds the arrays and objects nested in a skipped value
// (encoding/json allows 10000).
const maxJSONDepth = 100

// blockKeys are a JSON block's members; a key's bit in a seen mask is
// 1 << its index.
var blockKeys = [...]string{"file", "block", "start_row", "rows", "type", "ints", "ints64", "doubles", "strings", "nulls"}

// valueKeys is the seen-mask of the four values keys.
const valueKeys = 1<<5 | 1<<6 | 1<<7 | 1<<8

// decodeBlockJSON parses a format=json body in one pass straight into
// BlockValues. Keys may come in any order and whitespace anywhere JSON
// allows it; unknown keys are skipped. What it accepts, encoding/json
// reads into the same block (FuzzBlockJSON checks this), but it accepts
// less: the type is required and must be a wire type, a key comes once,
// only the type's values key may carry values — one per row — and nulls
// ascend within the block. Each slice is sized by counting its elements
// before it is allocated, and a string is a substring of body unless it
// is escaped, so body must not change afterwards.
func decodeBlockJSON(body []byte) (*BlockValues, error) {
	d := &jsonReader{Reader: jsonlex.Reader{B: body}, s: stringOf(body)}
	out, err := d.block()
	if err != nil {
		return nil, fmt.Errorf("%w: JSON block: %w", errBlockWire, err)
	}
	if err := checkBlockJSON(out); err != nil {
		return nil, err
	}
	return out, nil
}

// block reads the body's one object.
func (d *jsonReader) block() (*BlockValues, error) {
	out := &BlockValues{}
	if !d.Next('{') {
		return nil, d.Fail("object expected")
	}
	if !d.Next('}') {
		seen := 0
		for {
			d.WS()
			key, err := d.str()
			if err != nil {
				return nil, err
			}
			if !d.Next(':') {
				return nil, d.Fail("colon expected")
			}
			d.WS()
			if seen, err = d.member(out, key, seen); err != nil {
				return nil, err
			}
			if d.Next(',') {
				continue
			}
			if d.Next('}') {
				break
			}
			return nil, d.Fail("comma or } expected")
		}
	}
	d.WS()
	if d.Pos != len(d.B) {
		return nil, d.Fail("data after the object")
	}
	return out, nil
}

// member reads the value of key into out and returns seen with key's
// bit set.
func (d *jsonReader) member(out *BlockValues, key string, seen int) (int, error) {
	k := slices.Index(blockKeys[:], key)
	if k < 0 {
		// encoding/json matches a key to a field case-insensitively.
		folded := strings.Map(func(r rune) rune { return unicode.ToUpper(unicode.ToLower(r)) }, key)
		for _, bk := range blockKeys {
			if folded == strings.ToUpper(bk) {
				return 0, d.Fail("key " + strconv.Quote(key) + " differs from " + bk + " in case")
			}
		}
		return seen, d.Skip(maxJSONDepth)
	}
	if seen&(1<<k) != 0 {
		return 0, d.Fail("repeated key " + key)
	}
	if seen&valueKeys != 0 && valueKeys&(1<<k) != 0 {
		return 0, d.Fail("second values key " + key)
	}
	seen |= 1 << k
	var err error
	switch key {
	case "file":
		out.File, err = d.str()
		out.File = strings.Clone(out.File) // not a view that keeps the body alive
	case "block":
		out.Block, err = jsonlex.Int[int](&d.Reader, math.MinInt, math.MaxInt)
	case "start_row":
		out.StartRow, err = jsonlex.Int[int](&d.Reader, math.MinInt, math.MaxInt)
	case "rows":
		out.Rows, err = jsonlex.Int[int](&d.Reader, math.MinInt, math.MaxInt)
	case "type":
		var name string
		if name, err = d.str(); err == nil {
			t, ok := typeNamed(name)
			if !ok {
				return 0, d.Fail("unknown type " + strconv.Quote(name))
			}
			out.Type = t.String()
		}
	case "ints":
		out.Ints, err = jsonInts[int32](d, math.MinInt32, math.MaxInt32)
	case "ints64":
		out.Ints64, err = jsonInts[int64](d, math.MinInt64, math.MaxInt64)
	case "nulls":
		out.Nulls, err = jsonInts[int](d, math.MinInt, math.MaxInt)
	case "doubles":
		out.Doubles, err = jsonStrings(d, 4, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	case "strings":
		out.Strings, err = jsonStrings(d, 3, func(s string) (string, error) { return s, nil })
	}
	return seen, err
}

// checkBlockJSON checks what makes a block beyond JSON: a type, values
// of that type alone, one per row (none at all for no rows), and NULL
// positions ascending within the block.
func checkBlockJSON(b *BlockValues) error {
	if b.Type == "" {
		return fmt.Errorf("%w: JSON block without a type", errBlockWire)
	}
	var n int
	var typed bool
	switch t, _ := typeNamed(b.Type); t {
	case btrblocks.TypeInt:
		n, typed = len(b.Ints), b.Ints != nil
	case btrblocks.TypeInt64:
		n, typed = len(b.Ints64), b.Ints64 != nil
	case btrblocks.TypeDouble:
		n, typed = len(b.Doubles), b.Doubles != nil
	default:
		n, typed = len(b.Strings), b.Strings != nil
	}
	if typed != (b.Ints != nil || b.Ints64 != nil || b.Doubles != nil || b.Strings != nil) {
		return fmt.Errorf("%w: JSON block of type %s carries other values", errBlockWire, b.Type)
	}
	if n != b.Rows {
		return fmt.Errorf("%w: JSON block of %d rows carries %d values", errBlockWire, b.Rows, n)
	}
	prev := -1
	for _, p := range b.Nulls {
		if p <= prev || p >= b.Rows {
			return fmt.Errorf("%w: JSON block's null positions not ascending within the block", errBlockWire)
		}
		prev = p
	}
	return nil
}

// jsonInts reads an array of integers in [lo, hi]. It counts the
// elements first — the commas before the closing bracket, at most one
// element per two bytes — so the slice is allocated once, at its size.
func jsonInts[T int32 | int64 | int](d *jsonReader, lo, hi int64) ([]T, error) {
	if !d.Next('[') {
		return nil, d.Fail("array expected")
	}
	end := bytes.IndexByte(d.B[d.Pos:], ']')
	if end < 0 {
		return nil, d.Fail("unterminated array")
	}
	span := d.B[d.Pos : d.Pos+end]
	n := 0
	if len(bytes.TrimLeft(span, " \t\n\r")) > 0 {
		n = min(bytes.Count(span, []byte{','})+1, (len(span)+1)/2, core.MaxBlockValues)
	}
	out := make([]T, 0, n)
	if d.Next(']') {
		return out, nil
	}
	for {
		if len(out) == cap(out) {
			return nil, d.Fail("array too long or malformed")
		}
		d.WS()
		v, err := jsonlex.Int[T](&d.Reader, lo, hi)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if d.Next(',') {
			continue
		}
		if d.Next(']') {
			return out, nil
		}
		return nil, d.Fail("comma or ] expected")
	}
}

// jsonStrings reads an array of JSON strings, each converted by conv.
// An element takes two quotes and at least minLen bytes of the body with
// its separator, which bounds the slice before it is allocated.
func jsonStrings[T any](d *jsonReader, minLen int, conv func(string) (T, error)) ([]T, error) {
	if !d.Next('[') {
		return nil, d.Fail("array expected")
	}
	rest := d.B[d.Pos:]
	out := make([]T, 0, min(bytes.Count(rest, []byte{'"'})/2, len(rest)/minLen, core.MaxBlockValues))
	if d.Next(']') {
		return out, nil
	}
	for {
		if len(out) == cap(out) {
			return nil, d.Fail("array too long or malformed")
		}
		d.WS()
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := conv(s)
		if err != nil {
			return nil, d.Fail(err.Error())
		}
		out = append(out, v)
		if d.Next(',') {
			continue
		}
		if d.Next(']') {
			return out, nil
		}
		return nil, d.Fail("comma or ] expected")
	}
}

// str reads a JSON string: a substring of the body when it holds no
// escape and is valid UTF-8, else the copy encoding/json would make.
func (d *jsonReader) str() (string, error) {
	lo, hi, plain, err := d.Span()
	switch {
	case err != nil:
		return "", err
	case plain:
		return d.s[lo:hi], nil
	}
	raw := d.B[lo:hi]
	return stringOf(jsonlex.AppendUnescaped(make([]byte, 0, len(raw)+utf8.UTFMax), raw)), nil
}
