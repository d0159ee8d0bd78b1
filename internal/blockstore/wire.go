package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"btrblocks"
	"btrblocks/coldata"
	"btrblocks/internal/core"
	"btrblocks/internal/obs"
)

// This file defines the wire representations shared by Server and
// Client: the JSON DTOs and the binary block encoding.
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
// The JSON form carries doubles as strconv 'g/-1' strings because JSON
// cannot represent NaN/Inf and loses float precision in some decoders;
// ParseFloat round-trips every finite value exactly. The binary form is
// always bit-exact.

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

// BlockPayload is the JSON form of a decompressed block. Exactly one of
// the value slices is set, matching Type.
type BlockPayload struct {
	File     string   `json:"file"`
	Block    int      `json:"block"`
	StartRow int      `json:"start_row"`
	Rows     int      `json:"rows"`
	Type     string   `json:"type"`
	Ints     []int32  `json:"ints,omitempty"`
	Ints64   []int64  `json:"ints64,omitempty"`
	Doubles  []string `json:"doubles,omitempty"`
	Strings  []string `json:"strings,omitempty"`
	Nulls    []int    `json:"nulls,omitempty"`
}

// CountEqResult is the /v1/count-eq response.
type CountEqResult struct {
	File  string `json:"file"`
	Type  string `json:"type"`
	Value string `json:"value"`
	Count int    `json:"count"`
	Nanos int64  `json:"nanos"`
}

// InvalidateResult is the POST /v1/invalidate/NAME response.
type InvalidateResult struct {
	File string `json:"file"`
	// Status is "reloaded" when the file is served after invalidation,
	// "removed" when it no longer exists in the backing directory.
	Status string `json:"status"`
}

// CacheStats is the cache section of /v1/telemetry.
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

// TelemetryReport is the /v1/telemetry response: the serving-side cache
// counters, per-route request summaries with latency quantiles, plus the
// library's compression/decode telemetry snapshot (present when the
// store's Options carry a recorder; per-block events are stripped to
// keep the payload bounded).
type TelemetryReport struct {
	Cache     CacheStats                   `json:"cache"`
	Endpoints []obs.RouteSnapshot          `json:"endpoints,omitempty"`
	Telemetry *btrblocks.TelemetrySnapshot `json:"telemetry,omitempty"`
	// SpanExemplars links each root span name to its slowest recorded
	// trace ID — the jump from a latency histogram to the one concrete
	// trace that explains its tail. Present only when span recording is
	// enabled on the server.
	SpanExemplars []obs.Exemplar `json:"span_exemplars,omitempty"`
	// Spans carries the recorder's cumulative counters when span
	// recording is enabled.
	Spans *obs.SpanStats `json:"spans,omitempty"`
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

// nullPositions flattens a block's NULL mask.
func nullPositions(blk *Block) []int {
	if blk.Col.Nulls.NullCount() == 0 {
		return nil
	}
	out := make([]int, 0, blk.Col.Nulls.NullCount())
	blk.Col.Nulls.ForEachNull(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// blockPayload builds the JSON DTO for a decoded block.
func blockPayload(blk *Block) *BlockPayload {
	p := &BlockPayload{
		File:     blk.File,
		Block:    blk.Index,
		StartRow: blk.StartRow,
		Rows:     blk.Rows(),
		Type:     blk.Col.Type.String(),
		Nulls:    nullPositions(blk),
	}
	switch blk.Col.Type {
	case btrblocks.TypeInt:
		p.Ints = blk.Col.Ints
	case btrblocks.TypeInt64:
		p.Ints64 = blk.Col.Ints64
	case btrblocks.TypeDouble:
		p.Doubles = make([]string, len(blk.Col.Doubles))
		for i, v := range blk.Col.Doubles {
			p.Doubles[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	case btrblocks.TypeString:
		p.Strings = make([]string, blk.Col.Strings.Len())
		for i := range p.Strings {
			p.Strings[i] = blk.Col.Strings.At(i)
		}
	}
	return p
}

// Values converts the JSON DTO to BlockValues, parsing doubles back.
func (p *BlockPayload) Values() (*BlockValues, error) {
	out := &BlockValues{
		File:     p.File,
		Block:    p.Block,
		StartRow: p.StartRow,
		Rows:     p.Rows,
		Type:     p.Type,
		Ints:     p.Ints,
		Ints64:   p.Ints64,
		Strings:  p.Strings,
		Nulls:    p.Nulls,
	}
	if p.Doubles != nil {
		out.Doubles = make([]float64, len(p.Doubles))
		for i, s := range p.Doubles {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("blockstore: bad double %q at %d: %v", s, i, err)
			}
			out.Doubles[i] = v
		}
	}
	return out, nil
}

// WireType maps the block's Type string back to the btrblocks Type
// byte, with the populated payload slice as a tie-breaker so a block
// that traveled either wire format round-trips.
func (b *BlockValues) WireType() btrblocks.Type {
	switch b.Type {
	case btrblocks.TypeInt.String():
		return btrblocks.TypeInt
	case btrblocks.TypeInt64.String():
		return btrblocks.TypeInt64
	case btrblocks.TypeDouble.String():
		return btrblocks.TypeDouble
	case btrblocks.TypeString.String():
		return btrblocks.TypeString
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

// Payload renders the block as the JSON DTO (how a router re-serves a
// fetched block for format=json).
func (b *BlockValues) Payload() *BlockPayload {
	p := &BlockPayload{
		File:     b.File,
		Block:    b.Block,
		StartRow: b.StartRow,
		Rows:     b.Rows,
		Type:     b.WireType().String(),
		Ints:     b.Ints,
		Ints64:   b.Ints64,
		Strings:  b.Strings,
		Nulls:    b.Nulls,
	}
	if b.Doubles != nil {
		p.Doubles = make([]string, len(b.Doubles))
		for i, v := range b.Doubles {
			p.Doubles[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	return p
}

// errBlockWire is the class of every malformed-frame error: the reply
// arrived whole and is wrong, so a retry cannot help.
var errBlockWire = errors.New("blockstore: bad block wire")

// writeWords writes vals as little-endian words: straight from their
// memory when native, converted through encoding/binary otherwise.
func writeWords[T word](w io.Writer, vals []T, native bool) error {
	if native {
		_, err := w.Write(wordBytes(vals))
		return err
	}
	return binary.Write(w, binary.LittleEndian, vals)
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
	switch col.Type {
	case btrblocks.TypeInt:
		return writeWords(w, col.Ints, native)
	case btrblocks.TypeInt64:
		return writeWords(w, col.Ints64, native)
	case btrblocks.TypeDouble:
		return writeWords(w, col.Doubles, native)
	case btrblocks.TypeString:
		if err := writeWords(w, wireOffsets(col.Strings), native); err != nil {
			return err
		}
		_, err = w.Write(col.Strings.Data)
	}
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
