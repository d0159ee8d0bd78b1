package blockstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"btrblocks"
	"btrblocks/coldata"
	"btrblocks/internal/core"
	"btrblocks/internal/faultfs"
)

// refEncodeBlockBinary is the encoder as it shipped before frames were
// written from block memory: one block-sized buffer, one append per
// value. Kept as the reference the frame bytes are pinned to.
func refEncodeBlockBinary(blk *Block) []byte {
	nulls := nullPositions(blk)
	out := make([]byte, 0, 18+4*len(nulls)+blk.Bytes)
	out = append(out, blockWireMagic...)
	out = append(out, blockWireVersion, byte(blk.Col.Type))
	out = binary.LittleEndian.AppendUint32(out, uint32(blk.StartRow))
	out = binary.LittleEndian.AppendUint32(out, uint32(blk.Rows()))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(nulls)))
	for _, p := range nulls {
		out = binary.LittleEndian.AppendUint32(out, uint32(p))
	}
	switch blk.Col.Type {
	case btrblocks.TypeInt:
		for _, v := range blk.Col.Ints {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	case btrblocks.TypeInt64:
		for _, v := range blk.Col.Ints64 {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	case btrblocks.TypeDouble:
		for _, v := range blk.Col.Doubles {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	case btrblocks.TypeString:
		s := blk.Col.Strings
		out = binary.LittleEndian.AppendUint32(out, 0)
		for i := 0; i < s.Len(); i++ {
			out = binary.LittleEndian.AppendUint32(out, s.Offsets[i+1])
		}
		out = append(out, s.Data...)
	}
	return out
}

// refDecodeBlockBinary is the decoder as it shipped before replies were
// read into typed slices: one pass per value over a whole-body buffer,
// one string allocation per value. It does not validate the null list.
func refDecodeBlockBinary(file string, data []byte) (*BlockValues, error) {
	if len(data) < 18 || string(data[:4]) != blockWireMagic || data[4] != blockWireVersion {
		return nil, fmt.Errorf("blockstore: bad block wire header")
	}
	t := btrblocks.Type(data[5])
	out := &BlockValues{
		File:     file,
		StartRow: int(binary.LittleEndian.Uint32(data[6:])),
		Rows:     int(binary.LittleEndian.Uint32(data[10:])),
		Type:     t.String(),
	}
	nullCount := int(binary.LittleEndian.Uint32(data[14:]))
	pos := 18
	if nullCount < 0 || len(data) < pos+4*nullCount {
		return nil, fmt.Errorf("blockstore: truncated null list")
	}
	if nullCount > 0 {
		out.Nulls = make([]int, nullCount)
		for i := range out.Nulls {
			out.Nulls[i] = int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		}
	}
	rows := out.Rows
	switch t {
	case btrblocks.TypeInt:
		if len(data) != pos+4*rows {
			return nil, fmt.Errorf("blockstore: int payload size mismatch")
		}
		out.Ints = make([]int32, rows)
		for i := range out.Ints {
			out.Ints[i] = int32(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		}
	case btrblocks.TypeInt64:
		if len(data) != pos+8*rows {
			return nil, fmt.Errorf("blockstore: int64 payload size mismatch")
		}
		out.Ints64 = make([]int64, rows)
		for i := range out.Ints64 {
			out.Ints64[i] = int64(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	case btrblocks.TypeDouble:
		if len(data) != pos+8*rows {
			return nil, fmt.Errorf("blockstore: double payload size mismatch")
		}
		out.Doubles = make([]float64, rows)
		for i := range out.Doubles {
			out.Doubles[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	case btrblocks.TypeString:
		if len(data) < pos+4*(rows+1) {
			return nil, fmt.Errorf("blockstore: truncated string offsets")
		}
		offsets := make([]uint32, rows+1)
		for i := range offsets {
			offsets[i] = binary.LittleEndian.Uint32(data[pos:])
			pos += 4
		}
		payload := data[pos:]
		if int(offsets[rows]) != len(payload) {
			return nil, fmt.Errorf("blockstore: string payload size mismatch")
		}
		s := coldata.Strings{Offsets: offsets, Data: payload}
		out.Strings = make([]string, rows)
		for i := range out.Strings {
			if offsets[i+1] < offsets[i] {
				return nil, fmt.Errorf("blockstore: string offsets not monotonic")
			}
			out.Strings[i] = s.At(i)
		}
	default:
		return nil, fmt.Errorf("blockstore: unknown block type %d", t)
	}
	return out, nil
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

// refPayload is the DTO format=json replies were encoded from, through
// encoding/json, before the JSON block codec. With encoding/json it is
// the reference the codec's bytes and values are pinned to.
type refPayload struct {
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

// refBlockPayload builds the reference DTO for a cached block.
func refBlockPayload(blk *Block) *refPayload {
	p := &refPayload{
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

// refEncodeBlockJSON is the reference JSON body of blk, as obs.WriteJSON
// wrote it.
func refEncodeBlockJSON(t testing.TB, blk *Block) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(refBlockPayload(blk)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refDecodeBlockJSON is the reference reader: json.Unmarshal into the
// DTO, then the doubles parsed back.
func refDecodeBlockJSON(body []byte) (*BlockValues, error) {
	var p refPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, err
	}
	out := &BlockValues{
		File: p.File, Block: p.Block, StartRow: p.StartRow, Rows: p.Rows, Type: p.Type,
		Ints: p.Ints, Ints64: p.Ints64, Strings: p.Strings, Nulls: p.Nulls,
	}
	if p.Doubles != nil {
		out.Doubles = make([]float64, len(p.Doubles))
		for i, s := range p.Doubles {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, err
			}
			out.Doubles[i] = v
		}
	}
	return out, nil
}

// encodeJSON is the JSON writer's body for blk.
func encodeJSON(t testing.TB, blk *Block, native bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeBlockJSON(&buf, blockView(blk, native)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireBlock wraps a column as the block the store would cache.
func wireBlock(startRow int, col btrblocks.Column, nulls ...int) *Block {
	if len(nulls) > 0 {
		col.Nulls = btrblocks.NewNullMask()
		for _, p := range nulls {
			col.Nulls.SetNull(p)
		}
	}
	return &Block{File: "f.btr", StartRow: startRow, Col: col, Bytes: col.UncompressedBytes()}
}

// fullBlock is a 64000-row block of the given type, every seventh row
// NULL.
func fullBlock(t btrblocks.Type) *Block {
	const n = btrblocks.DefaultBlockSize
	rng := rand.New(rand.NewSource(int64(t) + 1))
	var nulls []int
	for i := 0; i < n; i += 7 {
		nulls = append(nulls, i)
	}
	var col btrblocks.Column
	switch t {
	case btrblocks.TypeInt:
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.Uint32())
		}
		col = btrblocks.IntColumn("c", v)
	case btrblocks.TypeInt64:
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(rng.Uint64())
		}
		col = btrblocks.Int64Column("c", v)
	case btrblocks.TypeDouble:
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(rng.Uint64()) // NaNs of every payload included
		}
		col = btrblocks.DoubleColumn("c", v)
	default:
		v := make([]string, n)
		for i := range v {
			v[i] = "city-"[:rng.Intn(6)] + strconv.Itoa(rng.Intn(4000)) // "" excluded, lengths 1..9
		}
		col = btrblocks.StringColumn("c", v)
	}
	return wireBlock(128000, col, nulls...)
}

type wireCase struct {
	name string
	blk  *Block
}

// wireCases are the golden blocks: every type, with and without NULLs,
// at 0, 1 and 64000 rows, with the values a byte view could get wrong.
func wireCases() []wireCase {
	qnan := math.Float64frombits(0x7ff8000000000123)
	snan := math.Float64frombits(0x7ff0000000000001)
	negZero := math.Copysign(0, -1)
	nilOffsets := btrblocks.Column{Name: "c", Type: btrblocks.TypeString}
	escapedFile := wireBlock(0, btrblocks.IntColumn("c", []int32{1}))
	escapedFile.File = "dir/\"a\"&<b>\\\xff.btr"
	cases := []wireCase{
		{"int/nulls", wireBlock(7, btrblocks.IntColumn("c", []int32{1, -1, math.MinInt32, math.MaxInt32, 0, 5, 6, 7, 8, 9}), 0, 3, 9)},
		{"int/empty", wireBlock(0, btrblocks.IntColumn("c", []int32{}))},
		{"int/one", wireBlock(64000, btrblocks.IntColumn("c", []int32{-2}))},
		{"int/full", fullBlock(btrblocks.TypeInt)},
		{"int64/extremes", wireBlock(3, btrblocks.Int64Column("c", []int64{math.MinInt64, math.MaxInt64, -1, 0, 1 << 40}), 4)},
		{"int64/empty", wireBlock(0, btrblocks.Int64Column("c", []int64{}))},
		{"int64/one", wireBlock(1, btrblocks.Int64Column("c", []int64{1 << 62}))},
		{"int64/full", fullBlock(btrblocks.TypeInt64)},
		{"double/nan-negzero", wireBlock(9, btrblocks.DoubleColumn("c", []float64{qnan, snan, negZero, 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}), 1, 2)},
		{"double/empty", wireBlock(0, btrblocks.DoubleColumn("c", []float64{}))},
		{"double/one", wireBlock(2, btrblocks.DoubleColumn("c", []float64{negZero}))},
		{"double/full", fullBlock(btrblocks.TypeDouble)},
		{"string/empties", wireBlock(5, btrblocks.StringColumn("c", []string{"", "a", "", "héllo", "", "\x00\xff"}), 2)},
		{"string/all-empty", wireBlock(0, btrblocks.StringColumn("c", []string{"", "", ""}))},
		{"string/empty", wireBlock(0, btrblocks.StringColumn("c", []string{}))},
		{"string/nil-offsets", wireBlock(0, nilOffsets)},
		{"string/one", wireBlock(1, btrblocks.StringColumn("c", []string{"only"}))},
		{"string/full", fullBlock(btrblocks.TypeString)},
		{"double/json-forms", wireBlock(11, btrblocks.DoubleColumn("c", []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero,
			1e21, 1e-7, 123456, 1e6, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -1.5, 0.1}), 0, 11)},
		{"string/escapes", wireBlock(3, btrblocks.StringColumn("c", jsonEscapeStrings()), 1)},
		{"string/escaped-file", escapedFile},
		{"int/one-null", wireBlock(5, btrblocks.IntColumn("c", []int32{0}), 0)},
	}
	for i := range cases {
		cases[i].blk.Index = i
	}
	return cases
}

// jsonEscapeStrings are the strings a JSON writer can get wrong: quotes,
// backslashes and HTML bytes, every control byte alone and all together,
// invalid UTF-8 (a stray continuation byte, a cut rune, an encoded
// surrogate), the line and paragraph separators, multi-byte runes, and
// every byte from 0x20 to 0xff in one string.
func jsonEscapeStrings() []string {
	out := []string{`"`, `\`, `<>&`, `a"b\c<d>e&f`, "\x80", "a\xc3", "\xed\xa0\x80", "\xff\xfe",
		"\xe2\x80\xa8", "x\xe2\x80\xa9y", "h\xc3\xa9llo \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80", "\x7f", "/"}
	var all []byte
	for b := 0; b < 0x20; b++ {
		out = append(out, string(rune(b)))
		all = append(all, byte(b))
	}
	out = append(out, string(all))
	all = all[:0]
	for b := 0x20; b < 0x100; b++ {
		all = append(all, byte(b))
	}
	return append(out, string(all))
}

func encodeFrame(t testing.TB, blk *Block, native bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeBlockFrame(&buf, blk, native); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameValues compares two decoded blocks bit for bit (NaN payloads and
// the sign of zero included) and slice for slice (nil vs empty too).
func sameValues(a, b *BlockValues) bool {
	if a.File != b.File || a.Block != b.Block || a.StartRow != b.StartRow || a.Rows != b.Rows || a.Type != b.Type ||
		(a.Ints == nil) != (b.Ints == nil) || (a.Ints64 == nil) != (b.Ints64 == nil) ||
		(a.Doubles == nil) != (b.Doubles == nil) || (a.Strings == nil) != (b.Strings == nil) || (a.Nulls == nil) != (b.Nulls == nil) ||
		len(a.Ints) != len(b.Ints) || len(a.Ints64) != len(b.Ints64) || len(a.Doubles) != len(b.Doubles) ||
		len(a.Strings) != len(b.Strings) || len(a.Nulls) != len(b.Nulls) {
		return false
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	for i := range a.Ints64 {
		if a.Ints64[i] != b.Ints64[i] {
			return false
		}
	}
	for i := range a.Doubles {
		if math.Float64bits(a.Doubles[i]) != math.Float64bits(b.Doubles[i]) {
			return false
		}
	}
	for i := range a.Strings {
		if a.Strings[i] != b.Strings[i] {
			return false
		}
	}
	for i := range a.Nulls {
		if a.Nulls[i] != b.Nulls[i] {
			return false
		}
	}
	return true
}

// TestBlockFrameLiteral pins one frame byte by byte, so the reference
// encoder the other cases compare against cannot drift with the code.
func TestBlockFrameLiteral(t *testing.T) {
	blk := wireBlock(7, btrblocks.IntColumn("c", []int32{1, -1, 2}), 1)
	const want = "4254424b" + "01" + "00" + "07000000" + "03000000" + "01000000" + "01000000" +
		"01000000" + "ffffffff" + "02000000"
	if got := hex.EncodeToString(encodeFrame(t, blk, hostLittleEndian)); got != want {
		t.Fatalf("frame\n got %s\nwant %s", got, want)
	}
	if got := hex.EncodeToString(refEncodeBlockBinary(blk)); got != want {
		t.Fatalf("reference encoder\n got %s\nwant %s", got, want)
	}
}

// TestBlockFrameGolden: for every golden block the new encoder — native
// byte view and portable loops alike — emits the reference encoder's
// bytes, and the new decoder — again both paths — returns what the
// reference decoder returns for them.
func TestBlockFrameGolden(t *testing.T) {
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := refEncodeBlockBinary(tc.blk)
			if n := blockFrameLen(tc.blk); n != len(want) {
				t.Fatalf("blockFrameLen = %d, frame is %d bytes", n, len(want))
			}
			for _, native := range []bool{hostLittleEndian, false} {
				if got := encodeFrame(t, tc.blk, native); !bytes.Equal(got, want) {
					t.Fatalf("native=%v: frame differs from the reference encoder's", native)
				}
			}
			if err := checkBlockFrame(want); err != nil {
				t.Fatalf("checkBlockFrame: %v", err)
			}
			ref, err := refDecodeBlockBinary("f.btr", want)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rows != tc.blk.Rows() || len(ref.Nulls) != tc.blk.Col.Nulls.NullCount() {
				t.Fatalf("reference decode: %d rows %d nulls", ref.Rows, len(ref.Nulls))
			}
			for _, native := range []bool{hostLittleEndian, false} {
				got, err := readBlockFrame("f.btr", bytes.NewReader(want), int64(len(want)), native)
				if err != nil {
					t.Fatalf("native=%v: %v", native, err)
				}
				if !sameValues(got, ref) {
					t.Fatalf("native=%v: decoded block differs from the reference decoder's", native)
				}
			}
			// A few bytes at a time: no read may assume a whole piece arrives at once.
			got, err := readBlockFrame("f.btr", &smallReader{bytes.NewReader(want)}, int64(len(want)), hostLittleEndian)
			if err != nil || !sameValues(got, ref) {
				t.Fatalf("decode in small reads: %v", err)
			}
			frame, err := readFrame(bytes.NewReader(want), int64(len(want)))
			if err != nil || !bytes.Equal(frame, want) {
				t.Fatalf("readFrame: %v", err)
			}
		})
	}
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBlockJSONGolden: for every golden block the JSON writer — from the
// block's memory, native byte view and portable copy alike, and from its
// frame as a router writes it — emits the bytes encoding/json wrote for
// the reference DTO, trailing newline included, and the reader returns
// what encoding/json reads from them.
func TestBlockJSONGolden(t *testing.T) {
	lit := wireBlock(7, btrblocks.IntColumn("c", []int32{1, -1, 2}), 1)
	const want = `{"file":"f.btr","block":0,"start_row":7,"rows":3,"type":"integer","ints":[1,-1,2],"nulls":[1]}` + "\n"
	if got := encodeJSON(t, lit, hostLittleEndian); string(got) != want {
		t.Fatalf("writer\n got %q\nwant %q", got, want)
	}
	if got := refEncodeBlockJSON(t, lit); string(got) != want {
		t.Fatalf("reference encoder\n got %q\nwant %q", got, want)
	}
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := refEncodeBlockJSON(t, tc.blk)
			var routed bytes.Buffer
			if err := WriteBlockJSON(&routed, tc.blk.File, tc.blk.Index, encodeFrame(t, tc.blk, hostLittleEndian)); err != nil {
				t.Fatal(err)
			}
			bodies := map[string][]byte{
				"native":   encodeJSON(t, tc.blk, hostLittleEndian),
				"portable": encodeJSON(t, tc.blk, false),
				"frame":    routed.Bytes(),
			}
			for what, got := range bodies {
				if !bytes.Equal(got, want) {
					i := firstDiff(got, want)
					t.Fatalf("%s: body differs from the reference at byte %d of %d:\n got %q\nwant %q",
						what, i, len(want), got[i:min(i+40, len(got))], want[i:min(i+40, len(want))])
				}
			}
			ref, err := refDecodeBlockJSON(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeBlockJSON(want)
			if err != nil {
				t.Fatal(err)
			}
			if !sameValues(got, ref) {
				t.Fatal("decoded block differs from the reference decoder's")
			}
		})
	}
}

// jsonEsc spells %uXXXX as the JSON escape it stands for.
func jsonEsc(s string) string { return strings.ReplaceAll(s, "%u", "\\"+"u") }

// TestBlockJSONReader: the reader takes keys in any order, whitespace
// between tokens and unknown keys of any shape, unescapes as
// encoding/json does, and refuses what is not JSON, what encoding/json
// would read differently, and what is no block.
func TestBlockJSONReader(t *testing.T) {
	const canonical = `{"file":"f","block":2,"start_row":5,"rows":3,"type":"double","doubles":["1.5","-Inf","0"],"nulls":[2]}`
	want, err := refDecodeBlockJSON([]byte(canonical))
	if err != nil {
		t.Fatal(err)
	}
	accepted := []string{
		canonical,
		" \t{ \"nulls\" :[ 2 ] ,\"doubles\":\n[\"1.5\" , \"-Inf\",\"0\"],\"type\":\"double\",\"rows\":3,\"start_row\":5,\"block\":2,\"file\":\"f\"}\r\n",
		jsonEsc(`{"x":{"y":[1,-2.5e+3,0.0,1E-2,true,false,null,"z\"\n%u0041"],"":{}},"file":"%u0066","block":2,"start_row":5,` +
			`"rows":3,"type":"dou%u0062le","doubles":["1.5","-Inf","%u0030"],"nulls":[2],"zz":[]}`),
	}
	for _, body := range accepted {
		got, err := decodeBlockJSON([]byte(body))
		if err != nil || !sameValues(got, want) {
			t.Errorf("%q: %v; want the canonical block", body, err)
		}
	}
	// Escapes, surrogates and invalid UTF-8 read as encoding/json reads them.
	odd := jsonEsc(`{"type":"string","rows":6,"strings":["%ud83d%ude00","%ud83d","%ude00%ud83d","%ud83dx","` + "\xff\xfe\xed\xa0\x80" + `","%u00e9\/\b\f\t\r\n\"\\"]}`)
	ref, err := refDecodeBlockJSON([]byte(odd))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeBlockJSON([]byte(odd)); err != nil || !sameValues(got, ref) {
		t.Errorf("escaped strings: %v, %q; want %q", err, got.Strings, ref.Strings)
	}
	// The depth bound counts arrays and objects, as encoding/json's does:
	// a scalar inside maxJSONDepth arrays is read past, one array more
	// is refused ("nested too deep" below).
	within := `{"type":"integer","rows":0,"x":` + strings.Repeat("[", maxJSONDepth) + "1" + strings.Repeat("]", maxJSONDepth) + `}`
	if got, err := decodeBlockJSON([]byte(within)); err != nil || got.Rows != 0 {
		t.Errorf("a scalar in %d arrays: decode = %v, %v; want an empty block", maxJSONDepth, got, err)
	}
	deep := strings.Repeat("[", maxJSONDepth+1) + strings.Repeat("]", maxJSONDepth+1)
	rejected := map[string]string{
		"empty":               ``,
		"null":                `null`,
		"array":               `[]`,
		"trailing data":       `{"type":"integer","rows":0}x`,
		"two objects":         `{"type":"integer","rows":0}{}`,
		"no type":             `{"rows":0}`,
		"unknown type":        `{"type":"float","rows":0}`,
		"key in other case":   `{"type":"integer","rows":1,"ints":[1],"Rows":1}`,
		"key folding to one":  "{\"type\":\"integer\",\"rows\":1,\"ints\":[1],\"\xc5\xbftart_row\":1}",
		"repeated key":        `{"type":"integer","rows":1,"ints":[1],"rows":1}`,
		"second values key":   `{"type":"integer","rows":1,"ints":[1],"ints64":[1]}`,
		"other type's values": `{"type":"integer","rows":1,"doubles":["1"]}`,
		"rows disagree":       `{"type":"integer","rows":2,"ints":[1]}`,
		"values missing":      `{"type":"integer","rows":1}`,
		"negative rows":       `{"type":"integer","rows":-1}`,
		"nulls descending":    `{"type":"integer","rows":2,"ints":[1,2],"nulls":[1,0]}`,
		"null past the block": `{"type":"integer","rows":2,"ints":[1,2],"nulls":[2]}`,
		"int32 overflow":      `{"type":"integer","rows":1,"ints":[2147483648]}`,
		"int64 overflow":      `{"type":"bigint","rows":1,"ints64":[-9223372036854775809]}`,
		"twenty digits":       `{"type":"bigint","rows":1,"ints64":[10000000000000000000]}`,
		"fraction":            `{"type":"integer","rows":1,"ints":[1.0]}`,
		"exponent":            `{"type":"integer","rows":1,"ints":[1e2]}`,
		"leading zero":        `{"type":"integer","rows":1,"ints":[01]}`,
		"bare minus":          `{"type":"integer","rows":1,"ints":[-]}`,
		"null element":        `{"type":"integer","rows":1,"ints":[null]}`,
		"null array":          `{"type":"integer","rows":0,"ints":null}`,
		"trailing comma":      `{"type":"integer","rows":1,"ints":[1,]}`,
		"quoted int":          `{"type":"integer","rows":1,"ints":["1"]}`,
		"bad double":          `{"type":"double","rows":1,"doubles":["x"]}`,
		"double out of range": `{"type":"double","rows":1,"doubles":["1e400"]}`,
		"unquoted double":     `{"type":"double","rows":1,"doubles":[1.5]}`,
		"control byte":        "{\"type\":\"string\",\"rows\":1,\"strings\":[\"a\x01\"]}",
		"bad escape":          `{"type":"string","rows":1,"strings":["\q"]}`,
		"short escape":        jsonEsc(`{"type":"string","rows":1,"strings":["%u12"]}`),
		"unterminated string": `{"type":"string","rows":1,"strings":["a`,
		"unterminated array":  `{"type":"integer","rows":1,"ints":[1`,
		"unterminated object": `{"type":"integer","rows":1,"ints":[1]`,
		"nested too deep":     `{"type":"integer","rows":0,"x":` + deep + `}`,
		"bad literal":         `{"type":"integer","rows":0,"x":tru}`,
		"bad number":          `{"type":"integer","rows":0,"x":1.}`,
		"bad exponent":        `{"type":"integer","rows":0,"x":1e}`,
		"missing colon":       `{"type" "integer"}`,
		"unquoted key":        `{type:"integer"}`,
	}
	for name, body := range rejected {
		if got, err := decodeBlockJSON([]byte(body)); !errors.Is(err, errBlockWire) || got != nil {
			t.Errorf("%s: decode = %v, %v; want an errBlockWire", name, got, err)
		}
	}
}

// smallReader reads at most 7 bytes per call (iotest.OneByteReader is
// too slow for the 64000-row cases).
type smallReader struct{ r io.Reader }

func (s *smallReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 7)]) }

// patchFrame returns a copy of frame with the u32 at off replaced.
func patchFrame(frame []byte, off int, v uint32) []byte {
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// TestBlockFrameRejects: every malformed frame is an errBlockWire from
// both the decoder and the in-place check.
func TestBlockFrameRejects(t *testing.T) {
	ints := encodeFrame(t, wireBlock(0, btrblocks.IntColumn("c", []int32{1, 2, 3, 4}), 1, 3), hostLittleEndian)
	strs := encodeFrame(t, wireBlock(0, btrblocks.StringColumn("c", []string{"ab", "c", "def"})), hostLittleEndian)
	bad := map[string][]byte{
		"empty":                 {},
		"short header":          ints[:17],
		"bad magic":             append([]byte("BTBX"), ints[4:]...),
		"bad version":           append(append([]byte("BTBK"), 2), ints[5:]...),
		"unknown type":          append(append([]byte("BTBK"), 1, 9), ints[6:]...),
		"rows over limit":       patchFrame(ints, 10, core.MaxBlockValues+1),
		"rows = 2^32-1":         patchFrame(ints, 10, math.MaxUint32),
		"nulls over rows":       patchFrame(ints, 14, 5),
		"nulls = 2^32-1":        patchFrame(ints, 14, math.MaxUint32),
		"rows disagree":         patchFrame(ints, 10, 5),
		"trailing byte":         append(append([]byte(nil), ints...), 0),
		"null out of range":     patchFrame(ints, 22, 4),
		"nulls descending":      patchFrame(ints, 18, 3),
		"nulls repeated":        patchFrame(ints, 22, 1),
		"offsets not monotonic": patchFrame(strs, 18+4, 9),
		"offsets past data":     patchFrame(strs, 18+12, 7),
		"offsets short of data": patchFrame(strs, 18+12, 5),
		"string rows disagree":  patchFrame(strs, 10, 2),
	}
	for name, frame := range bad {
		blk, err := DecodeBlockFrame("f", frame)
		if !errors.Is(err, errBlockWire) || blk != nil {
			t.Errorf("%s: decode = %v, %v; want an errBlockWire", name, blk, err)
		}
		if err := checkBlockFrame(frame); !errors.Is(err, errBlockWire) {
			t.Errorf("%s: checkBlockFrame = %v; want an errBlockWire", name, err)
		}
		if _, err := readFrame(bytes.NewReader(frame), int64(len(frame))); !errors.Is(err, errBlockWire) {
			t.Errorf("%s: readFrame = %v; want an errBlockWire", name, err)
		}
	}
	// The reference decoder accepted the three bad null lists: that gap
	// is what the check closes.
	for _, name := range []string{"null out of range", "nulls descending", "nulls repeated"} {
		if _, err := refDecodeBlockBinary("f", bad[name]); err != nil {
			t.Errorf("%s: reference decoder rejected it: %v", name, err)
		}
	}
}

// allocBytes returns the bytes f allocates per call.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeAllocsIndependentOfRows pins both decoders at a handful of
// allocations per block, the same for one row and for 64000 — strings
// included: the values are slices of the reply, not copies of it.
func TestDecodeAllocsIndependentOfRows(t *testing.T) {
	// header, BlockValues, value slice; + null bytes and Nulls; strings:
	// offsets, data and Strings in place of the value slice.
	const maxAllocs = 8
	small := map[btrblocks.Type]*Block{
		btrblocks.TypeInt:    wireBlock(0, btrblocks.IntColumn("c", []int32{1, 2}), 1),
		btrblocks.TypeInt64:  wireBlock(0, btrblocks.Int64Column("c", []int64{1, 2}), 1),
		btrblocks.TypeDouble: wireBlock(0, btrblocks.DoubleColumn("c", []float64{1, 2}), 1),
		btrblocks.TypeString: wireBlock(0, btrblocks.StringColumn("c", []string{"a", "b"}), 1),
	}
	for typ, one := range small {
		var counts [2]float64
		for i, blk := range []*Block{one, fullBlock(typ)} {
			frame := encodeFrame(t, blk, hostLittleEndian)
			rd := bytes.NewReader(frame)
			counts[i] = testing.AllocsPerRun(20, func() {
				rd.Reset(frame)
				if _, err := readBlockFrame("f", rd, int64(len(frame)), hostLittleEndian); err != nil {
					t.Fatal(err)
				}
			})
		}
		if counts[0] > maxAllocs || counts[1] > maxAllocs {
			t.Errorf("%s: %v allocations for 2 rows, %v for 64000; want <= %d for both", typ, counts[0], counts[1], maxAllocs)
		}
		// JSON: BlockValues, the file name, the value slice and Nulls.
		const maxJSONAllocs = 4
		for i, blk := range []*Block{one, fullBlock(typ)} {
			body := encodeJSON(t, blk, hostLittleEndian)
			counts[i] = testing.AllocsPerRun(5, func() {
				if _, err := decodeBlockJSON(body); err != nil {
					t.Fatal(err)
				}
			})
		}
		if counts[0] > maxJSONAllocs || counts[1] > maxJSONAllocs {
			t.Errorf("%s JSON: %v allocations for 2 rows, %v for 64000; want <= %d for both", typ, counts[0], counts[1], maxJSONAllocs)
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so what the
// handler itself allocates is all that is measured.
type discardResponse struct {
	h http.Header
	n int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestBinaryReplyAllocatesNoBlockSizedBuffer drives the block handler on
// cached 64000-row blocks: a binary reply allocates a small constant, not
// a copy of the block, and says how long it is; a JSON reply allocates
// no more than a binary one may.
func TestBinaryReplyAllocatesNoBlockSizedBuffer(t *testing.T) {
	cols := map[string]btrblocks.Column{
		"i.btr": fullBlock(btrblocks.TypeInt).Col,
		"l.btr": fullBlock(btrblocks.TypeInt64).Col,
		"d.btr": fullBlock(btrblocks.TypeDouble).Col,
		"s.btr": fullBlock(btrblocks.TypeString).Col,
	}
	contents := map[string][]byte{}
	for name, col := range cols {
		data, err := btrblocks.CompressColumn(col, nil)
		if err != nil {
			t.Fatal(err)
		}
		contents[name] = data
	}
	store, err := NewStore(contents, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store)
	for name, col := range cols {
		req := httptest.NewRequest(http.MethodGet, "/v1/block?format=binary&file="+name+"&block=0", nil)
		w := &discardResponse{h: http.Header{}}
		srv.ServeHTTP(w, req) // warm the cache
		blk, err := store.Block(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := blockFrameLen(blk)
		if w.n != want || w.h.Get("Content-Length") != strconv.Itoa(want) {
			t.Fatalf("%s: wrote %d bytes with Content-Length %q, frame is %d", name, w.n, w.h.Get("Content-Length"), want)
		}
		per := allocBytes(20, func() {
			srv.ServeHTTP(&discardResponse{h: http.Header{}}, req)
		})
		if limit := uint64(col.UncompressedBytes() / 8); per > limit {
			t.Errorf("%s: %d bytes allocated per binary reply of a %d-byte block; want under %d",
				name, per, col.UncompressedBytes(), limit)
		}
		// A JSON reply streams through a pooled buffer: no value is
		// formatted into a string of its own, and no body is built whole.
		jsonReq := httptest.NewRequest(http.MethodGet, "/v1/block?format=json&file="+name+"&block=0", nil)
		per = allocBytes(20, func() {
			srv.ServeHTTP(&discardResponse{h: http.Header{}}, jsonReq)
		})
		if limit := uint64(col.UncompressedBytes() / 8); per > limit {
			t.Errorf("%s: %d bytes allocated per JSON reply of a %d-byte block; want under %d",
				name, per, col.UncompressedBytes(), limit)
		}
	}
}

// legacyBlockServer serves blocks the way a server that predates
// Content-Length did: the reference encoder's frame, chunked; and
// format=json through encoding/json and the reference DTO.
func legacyBlockServer(store *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idx, _ := strconv.Atoi(r.URL.Query().Get("block"))
		blk, err := store.Block(r.URL.Query().Get("file"), idx)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(refBlockPayload(blk))
			return
		}
		frame := refEncodeBlockBinary(blk)
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(frame[:len(frame)/2])
		w.(http.Flusher).Flush() // headers leave without a length: the body goes out chunked
		_, _ = w.Write(frame[len(frame)/2:])
	})
}

// TestBlockWireInteroperates: a client that predates Content-Length
// (ReadAll, reference decoder) reads this server's replies, and this
// client reads a legacy server's chunked, length-less replies — as
// values and as a frame. In JSON the same holds both ways: the
// reference decoder reads this server's bodies, and this client reads
// encoding/json's.
func TestBlockWireInteroperates(t *testing.T) {
	store, cl, _, cols := newTestServer(t, Config{})
	legacy := httptest.NewServer(legacyBlockServer(store))
	defer legacy.Close()
	legacyCl := NewClient(legacy.URL)
	ctx := context.Background()
	for name := range cols {
		for b := 0; b < 3; b++ {
			resp, err := http.Get(cl.Endpoint() + blockPath(name, b))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.ContentLength != int64(len(body)) {
				t.Fatalf("%s#%d: Content-Length %d on a %d-byte reply", name, b, resp.ContentLength, len(body))
			}
			old, err := refDecodeBlockBinary(name, body)
			if err != nil {
				t.Fatalf("%s#%d: legacy client on this server: %v", name, b, err)
			}
			old.Block = b
			for what, c := range map[string]*Client{"this server": cl, "legacy server": legacyCl} {
				got, err := c.Block(ctx, name, b)
				if err != nil {
					t.Fatalf("%s#%d: %s: %v", name, b, what, err)
				}
				if !sameValues(got, old) {
					t.Fatalf("%s#%d: %s: values differ from the legacy client's", name, b, what)
				}
				frame, err := c.BlockFrame(ctx, name, b)
				if err != nil || !bytes.Equal(frame, body) {
					t.Fatalf("%s#%d: %s: frame differs from the reply body (%v)", name, b, what, err)
				}
			}

			path := "/v1/block?format=json&file=" + name + "&block=" + strconv.Itoa(b)
			resp, err = http.Get(cl.Endpoint() + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			legacyResp, err := http.Get(legacy.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			legacyBody, err := io.ReadAll(legacyResp.Body)
			legacyResp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, legacyBody) || resp.Header.Get("Content-Type") != legacyResp.Header.Get("Content-Type") {
				t.Fatalf("%s#%d: JSON reply differs from encoding/json's", name, b)
			}
			oldJSON, err := refDecodeBlockJSON(body)
			if err != nil {
				t.Fatalf("%s#%d: reference decoder on this server's JSON: %v", name, b, err)
			}
			for what, c := range map[string]*Client{"this server": cl, "legacy server": legacyCl} {
				got, err := c.BlockJSON(ctx, name, b)
				if err != nil || !sameValues(got, oldJSON) {
					t.Fatalf("%s#%d: %s: JSON values differ from the reference decoder's (%v)", name, b, what, err)
				}
			}
		}
	}
}

// TestClientBoundsWhatAReplyAllocates: a reply whose header or length
// claims more than a block can hold is refused on its first 18 bytes,
// not allocated for and not retried.
func TestClientBoundsWhatAReplyAllocates(t *testing.T) {
	hdr := func(typ btrblocks.Type, rows, nulls uint32) []byte {
		out := append([]byte(blockWireMagic), blockWireVersion, byte(typ))
		out = binary.LittleEndian.AppendUint32(out, 0)
		out = binary.LittleEndian.AppendUint32(out, rows)
		return binary.LittleEndian.AppendUint32(out, nulls)
	}
	replies := map[string]struct {
		head   []byte
		length string
	}{
		"rows over limit":       {hdr(btrblocks.TypeInt64, core.MaxBlockValues+1, 0), strconv.Itoa(18 + 8*(core.MaxBlockValues+1))},
		"nulls over rows":       {hdr(btrblocks.TypeInt, 4, 1<<30), strconv.Itoa(18 + 4<<30 + 16)},
		"length over the block": {hdr(btrblocks.TypeInt, 4, 0), "1099511627776"},
		"string data over 4GiB": {hdr(btrblocks.TypeString, 1, 0), strconv.Itoa(18 + 8 + 1<<33)},
	}
	for name, rep := range replies {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Length", rep.length)
			_, _ = w.Write(rep.head)
			w.(http.Flusher).Flush()
			<-r.Context().Done() // the rest never comes; the client must not wait for it
		}))
		cl := NewClient(srv.URL, WithBackoff(time.Millisecond, time.Millisecond))
		for what, fetch := range map[string]func() (any, error){
			"Block":      func() (any, error) { return cl.Block(context.Background(), "f", 0) },
			"BlockFrame": func() (any, error) { return cl.BlockFrame(context.Background(), "f", 0) },
		} {
			hits.Store(0)
			var err error
			per := allocBytes(1, func() { _, err = fetch() })
			if !errors.Is(err, errBlockWire) {
				t.Errorf("%s: %s = %v; want an errBlockWire", name, what, err)
			}
			if hits.Load() != 1 {
				t.Errorf("%s: %s made %d attempts; a malformed reply is not retried", name, what, hits.Load())
			}
			if per > 1<<20 {
				t.Errorf("%s: %s allocated %d bytes on an 18-byte reply", name, what, per)
			}
		}
		srv.CloseClientConnections()
		srv.Close()
	}
}

// TestClientCapsErrorBody: only the first line of a non-2xx body is
// used, so only a bounded piece of it is read.
func TestClientCapsErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write(bytes.Repeat([]byte("x"), 4<<20))
	}))
	defer srv.Close()
	cl := NewClient(srv.URL)
	for what, call := range map[string]func() error{
		"get":        func() error { _, err := cl.get(context.Background(), "/v1/files"); return err },
		"block":      func() error { _, err := cl.Block(context.Background(), "f", 0); return err },
		"invalidate": func() error { _, err := cl.Invalidate(context.Background(), "f"); return err },
	} {
		var he *HTTPError
		if err := call(); !errors.As(err, &he) || he.Status != http.StatusNotFound || len(he.Msg) != maxErrorBody {
			t.Errorf("%s: %v; want a 404 with a %d-byte message", what, err, maxErrorBody)
		}
	}
}

// TestClientRetriesMidBodyDrop: a connection that dies halfway through
// a frame is a transient failure — the block is fetched again — and
// when every attempt dies the caller gets an error and no block, never
// a partly filled one.
func TestClientRetriesMidBodyDrop(t *testing.T) {
	store, _, _, cols := newTestServer(t, Config{})
	inner := NewServer(store)
	var dropFirst atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dropFirst.Add(-1) < 0 {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body[:len(body)/2])
		panic(http.ErrAbortHandler) // drops the connection mid-body
	}))
	defer srv.Close()
	ctx := context.Background()
	cl := NewClient(srv.URL, WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	direct := NewClient(srv.URL)
	for name := range cols {
		want, err := direct.Block(ctx, name, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := cl.Stats().Retries
		dropFirst.Store(2)
		got, err := cl.Block(ctx, name, 1)
		if err != nil || !sameValues(got, want) {
			t.Fatalf("%s: block after two dropped attempts: %v", name, err)
		}
		if n := cl.Stats().Retries - before; n != 2 {
			t.Fatalf("%s: %d retries, want 2", name, n)
		}
		dropFirst.Store(2)
		if frame, err := cl.BlockFrame(ctx, name, 1); err != nil || checkBlockFrame(frame) != nil {
			t.Fatalf("%s: frame after two dropped attempts: %v", name, err)
		}
		dropFirst.Store(3)
		if got, err := cl.Block(ctx, name, 1); err == nil || got != nil {
			t.Fatalf("%s: every attempt dropped, yet Block = %v, %v", name, got, err)
		}
		dropFirst.Store(3)
		if frame, err := cl.BlockFrame(ctx, name, 1); err == nil || frame != nil {
			t.Fatalf("%s: every attempt dropped, yet BlockFrame returned %d bytes, %v", name, len(frame), err)
		}
	}
	dropFirst.Store(0)

	// The faultfs transport cuts the body and keeps Content-Length honest
	// about the cut: the frame arrives whole and short, a wire error.
	cutting := &http.Client{Transport: faultfs.NewRoundTripper(srv.Client().Transport, faultfs.Config{Seed: 5, Truncate: 1})}
	cut := NewClient(srv.URL, WithHTTPClient(cutting), WithRetries(1), WithBackoff(time.Millisecond, time.Millisecond))
	for name := range cols {
		if got, err := cut.Block(ctx, name, 0); !errors.Is(err, errBlockWire) || got != nil {
			t.Fatalf("%s: truncated reply: Block = %v, %v", name, got, err)
		}
	}
}

// FuzzDecodeBlockFrame: on any input the decoder does not panic, agrees
// with the in-place check on what is a frame, allocates no more than a
// fixed multiple of the input, takes both value paths to the same
// block, agrees with the reference decoder on every frame it accepts,
// and rejects every proper prefix of such a frame.
func FuzzDecodeBlockFrame(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzDecodeBlockFrame — the small golden frames
	// and one malformed frame per check.
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk *BlockValues
		var err error
		// Strings cost 16 B of header per 4 B offset, Nulls 8 B per 4 B
		// position; the rest is the input again plus small change (the
		// fuzz worker's own goroutines allocate a few kB alongside).
		if per, limit := allocBytes(1, func() { blk, err = DecodeBlockFrame("f", data) }), uint64(8*len(data)+64<<10); per > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), per, limit)
		}
		if cerr := checkBlockFrame(data); (err == nil) != (cerr == nil) {
			t.Fatalf("decode: %v, checkBlockFrame: %v", err, cerr)
		}
		if err != nil {
			if !errors.Is(err, errBlockWire) || blk != nil {
				t.Fatalf("decode = %v, %v; want nil and an errBlockWire", blk, err)
			}
			return
		}
		ref, err := refDecodeBlockBinary("f", data)
		if err != nil || !sameValues(blk, ref) {
			t.Fatalf("accepted a frame the reference decoder reads differently (%v)", err)
		}
		portable, err := readBlockFrame("f", bytes.NewReader(data), int64(len(data)), false)
		if err != nil || !sameValues(blk, portable) {
			t.Fatalf("portable path differs from the native one (%v)", err)
		}
		for k := 0; k < len(data) && len(data) <= 4096; k++ {
			if _, err := DecodeBlockFrame("f", data[:k]); !errors.Is(err, errBlockWire) {
				t.Fatalf("prefix of %d/%d bytes: %v; want an errBlockWire", k, len(data), err)
			}
		}
	})
}

// TestBinaryReplyEndsWithTheHandler: a client that holds a whole binary
// reply finds the request already counted by the server. Content-Length
// alone would let the last byte — and so the client — overtake the
// handler's own bookkeeping. A JSON reply, chunked, ends with the
// handler too.
func TestBinaryReplyEndsWithTheHandler(t *testing.T) {
	store, cl, _, cols := newTestServer(t, Config{})
	requests := store.Metrics().HTTP.Requests.At("/v1/block")
	ctx := context.Background()
	want := requests.Load()
	for i := 0; i < 200; i++ {
		for name := range cols {
			fetch := cl.Block
			if i%10 == 9 {
				fetch = cl.BlockJSON
			}
			if _, err := fetch(ctx, name, i%3); err != nil {
				t.Fatal(err)
			}
			want++
			if got := requests.Load(); got != want {
				t.Fatalf("fetch %d returned with %d of %d requests counted", want, got, want)
			}
		}
	}
}

// FuzzBlockJSON: on any input the JSON reader does not panic, allocates
// no more than a fixed multiple of the input, and reads every body it
// accepts as encoding/json reads it into the reference DTO.
func FuzzBlockJSON(f *testing.F) {
	for _, tc := range wireCases() {
		if tc.blk.Rows() <= 100 {
			f.Add(refEncodeBlockJSON(f, tc.blk))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk *BlockValues
		var err error
		// Strings cost 16 B of header per three body bytes, and an
		// escaped string its own copy; the rest is small change.
		if per, limit := allocBytes(1, func() { blk, err = decodeBlockJSON(data) }), uint64(8*len(data)+64<<10); per > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), per, limit)
		}
		if err != nil {
			if !errors.Is(err, errBlockWire) || blk != nil {
				t.Fatalf("decode = %v, %v; want nil and an errBlockWire", blk, err)
			}
			return
		}
		ref, err := refDecodeBlockJSON(data)
		if err != nil || !sameValues(blk, ref) {
			t.Fatalf("accepted a body encoding/json reads differently (%v)", err)
		}
	})
}
