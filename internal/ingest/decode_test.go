package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"btrblocks"
)

// decodeTables are the tables the decode tests register before each
// body (dup names one column twice, which CreateTable allows); every
// other table is inferred on first contact.
var decodeTables = map[string][]ColumnSpec{
	"t":   {{"i", "int"}, {"l", "int64"}, {"d", "double"}, {"s", "string"}},
	"dup": {{"a", "int"}, {"a", "int"}},
}

func decodeLookup(table string) ([]btrblocks.Column, bool) {
	specs, ok := decodeTables[table]
	if !ok {
		return nil, false
	}
	schema := make([]btrblocks.Column, len(specs))
	for i, sp := range specs {
		typ, _ := parseType(sp.Type)
		schema[i] = btrblocks.Column{Name: sp.Name, Type: typ}
	}
	return schema, true
}

// decodeBody runs the handler's decode path without a service, with the
// status the handler would answer (AppendContext refuses a chunk of no
// rows, which all-NULL rows with nothing to infer from make).
func decodeBody(body []byte, lines bool, lookup func(string) ([]btrblocks.Column, bool)) (string, btrblocks.Chunk, int) {
	decode := decodeJSON
	if lines {
		decode = decodeLines
	}
	b, err := decode(body)
	if err != nil {
		return "", btrblocks.Chunk{}, statusOf(err)
	}
	chunk, err := b.resolve(lookup)
	if err != nil {
		return "", btrblocks.Chunk{}, statusOf(err)
	}
	if chunk.NumRows() == 0 {
		return "", btrblocks.Chunk{}, statusOf(ErrEmptyBatch)
	}
	return b.table, chunk, http.StatusOK
}

// chunkDiff describes the first difference between two chunks: names,
// types, values bit for bit (NaN payloads and -0 included), NULL
// positions and string bytes; "" when there is none.
func chunkDiff(got, want *btrblocks.Chunk) string {
	if len(got.Columns) != len(want.Columns) {
		return fmt.Sprintf("%d columns, want %d", len(got.Columns), len(want.Columns))
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for c := range want.Columns {
		g, w := &got.Columns[c], &want.Columns[c]
		if g.Name != w.Name || g.Type != w.Type || g.Len() != w.Len() {
			return fmt.Sprintf("column %d is %s %s (%d rows), want %s %s (%d rows)", c, g.Name, g.Type, g.Len(), w.Name, w.Type, w.Len())
		}
		for r := 0; r < w.Len(); r++ {
			if g.Nulls.IsNull(r) != w.Nulls.IsNull(r) {
				return fmt.Sprintf("column %s row %d: NULL %v, want %v", w.Name, r, g.Nulls.IsNull(r), w.Nulls.IsNull(r))
			}
			same := true
			switch w.Type {
			case btrblocks.TypeInt:
				same = g.Ints[r] == w.Ints[r]
			case btrblocks.TypeInt64:
				same = g.Ints64[r] == w.Ints64[r]
			case btrblocks.TypeDouble:
				same = math.Float64bits(g.Doubles[r]) == math.Float64bits(w.Doubles[r])
			case btrblocks.TypeString:
				same = bytes.Equal(g.Strings.View(r), w.Strings.View(r))
			}
			if !same {
				return fmt.Sprintf("column %s row %d differs", w.Name, r)
			}
		}
	}
	return ""
}

// deepArrays is n nested empty arrays.
func deepArrays(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// manyKeysRow is one row object with n integer keys, in the order given.
func manyKeysRow(keys ...int) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf(`"k%02d":%d`, k, i)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

type appendCase struct {
	name  string
	lines bool
	body  string
	want  int
}

// appendCases is the differential table: each body goes through the
// decoder and the reference, with decodeTables registered.
func appendCases() []appendCase {
	const ok, bad = http.StatusOK, http.StatusBadRequest
	twenty := make([]int, 20)
	for i := range twenty {
		twenty[i] = i
	}
	return []appendCase{
		// Layout of the object.
		{"json/key-order", false, `{"rows":[{"s":"x","d":1.5,"l":2,"i":1}],"table":"t"}`, ok},
		{"json/whitespace", false, " \n{ \"table\" : \"t\" ,\t\"rows\" : [ { \"i\" : 1 } , { } ] } \r\n", ok},
		{"json/duplicate-key-last-wins", false, `{"table":"t","rows":[{"i":1,"i":2}]}`, ok},
		{"json/duplicate-key-after-bad-value", false, `{"table":"t","rows":[{"i":"bad","i":3,"s":[1],"s":"y"}]}`, ok},
		{"json/duplicate-key-bad-value-last", false, `{"table":"t","rows":[{"i":3,"i":"bad"}]}`, bad},
		{"json/duplicate-key-null-last", false, `{"table":"t","rows":[{"i":3,"i":null}]}`, ok},
		{"json/repeated-rows-merge", false, `{"table":"t","rows":[{"i":1,"s":"a"},{"i":2}],"rows":[{"l":5}]}`, ok},
		{"json/repeated-rows-longer", false, `{"table":"t","rows":[{"i":1}],"rows":[{"l":5},{"l":6}]}`, ok},
		{"json/repeated-rows-null-row", false, `{"table":"t","rows":[{"i":1},{"i":2}],"rows":[null,{"l":6}]}`, ok},
		{"json/repeated-rows-stale-slot", false, `{"table":"t","rows":[{"i":1},{"i":2}],"rows":[{"l":5}],"rows":[{},{}]}`, ok},
		{"json/repeated-rows-after-null", false, `{"table":"t","rows":[{"i":1}],"rows":null,"rows":[{"l":2}],"rows":[{"d":3}]}`, ok},
		{"json/repeated-rows-after-empty", false, `{"table":"t","rows":[{"i":1},{"i":2}],"rows":[],"rows":[{"l":2},{}]}`, ok},
		{"json/repeated-rows-bad-value-replaced", false, `{"table":"t","rows":[{"i":"x"}],"rows":[{"i":4}]}`, ok},
		{"json/repeated-rows-bad-value-dropped", false, `{"table":"t","rows":[{"i":1},{"i":"x"}],"rows":[{"l":4}]}`, ok},
		{"json/repeated-rows-null-last", false, `{"table":"t","rows":[{"i":1}],"rows":null}`, bad},
		{"json/rows-null", false, `{"table":"t","rows":null}`, bad},
		{"json/rows-empty", false, `{"table":"t","rows":[]}`, bad},
		{"json/rows-missing", false, `{"table":"t"}`, bad},
		// Missing keys and NULLs.
		{"json/missing-keys", false, `{"table":"t","rows":[{"i":1},{"s":"x"},{}]}`, ok},
		{"json/explicit-null", false, `{"table":"t","rows":[{"i":null,"l":null,"d":null,"s":null}]}`, ok},
		{"json/null-row", false, `{"table":"t","rows":[null,{"i":1},null]}`, ok},
		// Keys.
		{"json/unknown-key", false, `{"table":"t","rows":[{"i":1,"x":2}]}`, bad},
		{"json/unknown-key-null", false, `{"table":"t","rows":[{"i":1,"x":null}]}`, bad},
		{"json/escaped-keys", false, `{"table":"t","rows":[{"\u0069":7,"\u0073":"\u0078"}]}`, ok},
		{"json/escaped-key-repeats-plain", false, `{"table":"t","rows":[{"l":"x","\u006c":2}]}`, ok},
		{"json/escaped-key-unknown", false, `{"table":"t","rows":[{"i\u0000":1}]}`, bad},
		{"json/escaped-table", false, `{"t\u0061ble":"\u0074","rows":[{"i":1}]}`, ok},
		{"json/escaped-column-inferred", false, `{"table":"u","rows":[{"l_orderke\u0079":1}]}`, ok},
		{"json/case-folded-top-keys", false, `{"TABLE":"t","Rows":[{"i":1}]}`, ok},
		{"json/case-folded-long-s", false, `{"tAbLe":"t","rowſ":[{"i":1}]}`, ok},
		{"json/case-folded-escaped-top-keys", false, `{"T\u0041BLE":"t","r\u006fws":[{"i":1}]}`, ok},
		{"json/near-top-keys-skipped", false, `{"table":"t","rows":[{"i":1}],"rows_":[5],"tables":7}`, ok},
		{"json/column-keys-not-folded", false, `{"table":"t","rows":[{"I":1}]}`, bad},
		{"json/unknown-top-keys", false, `{"x":{"a":[1,2,{"b":null}],"c":true},"table":"t","y":"z\n","rows":[{"i":1}],"z":-1.5e3}`, ok},
		{"json/unknown-top-key-bad-syntax", false, `{"x":[1,],"table":"t","rows":[{"i":1}]}`, bad},
		{"json/unknown-top-key-bad-number", false, `{"x":01,"table":"t","rows":[{"i":1}]}`, bad},
		{"json/deep-unknown-value", false, `{"x":` + deepArrays(300) + `,"table":"t","rows":[{"i":1}]}`, ok},
		{"json/deep-row-value-replaced", false, `{"table":"t","rows":[{"i":` + deepArrays(300) + `,"i":1}]}`, ok},
		{"json/too-deep-unknown-value", false, `{"x":` + deepArrays(10000) + `,"table":"t","rows":[{"i":1}]}`, bad},
		{"json/deepest-unknown-value", false, `{"x":` + deepArrays(9999) + `,"table":"t","rows":[{"i":1}]}`, ok},
		// Strings.
		{"json/string-escapes", false, `{"table":"t","rows":[{"s":"a\"b\\c\/d\b\f\n\r\té€<>&\u00e9\u20AC\u0000\u001f"}]}`, ok},
		{"json/surrogates", false, `{"table":"t","rows":[{"s":"😀 \ud83d\ude00 \ud83d x \ude00 \ud83dA \ud83dA"}]}`, ok},
		{"json/invalid-utf8", false, "{\"table\":\"t\",\"rows\":[{\"s\":\"a\xffb\xc3 \xed\xa0\x80\"}]}", ok},
		{"json/invalid-utf8-key", false, "{\"table\":\"t\",\"rows\":[{\"i\xff\":1}]}", bad},
		{"json/control-byte", false, "{\"table\":\"t\",\"rows\":[{\"s\":\"a\x01\"}]}", bad},
		{"json/bad-escape", false, `{"table":"t","rows":[{"s":"\x"}]}`, bad},
		{"json/empty-string", false, `{"table":"t","rows":[{"s":""},{"s":"x"}]}`, ok},
		// Numbers.
		{"json/double-forms", false, `{"table":"t","rows":[{"d":-0},{"d":-0.0},{"d":1e-400},{"d":1E+2},{"d":0.1},{"d":-12.5e-3}]}`, ok},
		{"json/double-overflow", false, `{"table":"t","rows":[{"d":1e400}]}`, bad},
		{"json/int-fraction", false, `{"table":"t","rows":[{"i":1.0}]}`, bad},
		{"json/int-exponent", false, `{"table":"t","rows":[{"i":1e3}]}`, bad},
		{"json/int-quoted", false, `{"table":"t","rows":[{"i":"5"}]}`, bad},
		{"json/int-overflow", false, `{"table":"t","rows":[{"i":2147483648}]}`, bad},
		{"json/int-underflow", false, `{"table":"t","rows":[{"i":-2147483649}]}`, bad},
		{"json/int-bounds", false, `{"table":"t","rows":[{"i":2147483647},{"i":-2147483648},{"i":-0}]}`, ok},
		{"json/int64-bounds", false, `{"table":"t","rows":[{"l":9223372036854775807},{"l":-9223372036854775808}]}`, ok},
		{"json/int64-overflow", false, `{"table":"t","rows":[{"l":9223372036854775808}]}`, bad},
		{"json/double-quoted", false, `{"table":"t","rows":[{"d":"1.5"}]}`, bad},
		{"json/number-on-string", false, `{"table":"t","rows":[{"s":5}]}`, bad},
		{"json/bool-on-double", false, `{"table":"t","rows":[{"d":true}]}`, bad},
		{"json/nested-array", false, `{"table":"t","rows":[{"i":[1]}]}`, bad},
		{"json/nested-object", false, `{"table":"t","rows":[{"s":{"a":1}}]}`, bad},
		// Syntax and shape.
		{"json/syntax-error-after-bad-value", false, `{"table":"t","rows":[{"i":"bad"}],}`, bad},
		{"json/syntax-error-unknown-table", false, `{"table":"nosuch","rows":[{"v":1}]`, bad},
		{"json/trailing-data", false, `{"table":"t","rows":[{"i":1}]} x`, bad},
		{"json/two-objects", false, `{"table":"t","rows":[{"i":1}]}{}`, bad},
		{"json/empty-body", false, ``, bad},
		{"json/top-null", false, `null`, bad},
		{"json/top-array", false, `[{"table":"t"}]`, bad},
		{"json/top-empty-object", false, `{}`, bad},
		{"json/table-null", false, `{"table":null,"rows":[{"i":1}]}`, bad},
		{"json/table-null-after-name", false, `{"table":"t","table":null,"rows":[{"i":1}]}`, ok},
		{"json/table-number", false, `{"table":5,"rows":[{"i":1}]}`, bad},
		{"json/table-bad-name", false, `{"table":"../x","rows":[{"i":1}]}`, bad},
		{"json/rows-object", false, `{"table":"t","rows":{"i":1}}`, bad},
		{"json/row-array", false, `{"table":"t","rows":[[1]]}`, bad},
		{"json/row-number", false, `{"table":"t","rows":[5]}`, bad},
		{"json/row-bad-later-replaced", false, `{"table":"t","rows":[5],"rows":[{"i":1}]}`, bad},
		// First-contact inference.
		{"json/infer", false, `{"table":"u","rows":[{"a":1e3,"b":-0,"c":"x","d":null},{"d":2.5,"b":7}]}`, ok},
		{"json/infer-big-int-double", false, `{"table":"u","rows":[{"a":99999999999999999999}]}`, ok},
		{"json/infer-no-value", false, `{"table":"u","rows":[{"a":null}]}`, bad},
		{"json/infer-bad-name", false, `{"table":"u","rows":[{"a b":1}]}`, bad},
		{"json/infer-bool", false, `{"table":"u","rows":[{"a":true}]}`, bad},
		{"json/infer-later-bad-value", false, `{"table":"u","rows":[{"a":1},{"a":1.5}]}`, bad},
		{"json/infer-null-rows", false, `{"table":"u","rows":[null,null]}`, bad},
		{"json/infer-duplicate-key", false, `{"table":"u","rows":[{"a":null,"a":"x"},{"a":"y","a":null}]}`, ok},
		{"json/infer-duplicate-key-null-last", false, `{"table":"u","rows":[{"a":1,"a":null},{"a":"y"}]}`, ok},
		{"json/infer-repeated-rows", false, `{"table":"u","rows":[{"a":1}],"rows":[{"b":"x"}]}`, ok},
		{"json/infer-dropped-key", false, `{"table":"u","rows":[{"a":1},{"z":"x"}],"rows":[{"b":"x"}]}`, ok},
		{"json/infer-many-keys", false, `{"table":"u","rows":[` + manyKeysRow(twenty...) + `,` + manyKeysRow(19, 3, 0) + `,{"k05":null}]}`, ok},
		{"json/registered-duplicate-columns", false, `{"table":"dup","rows":[{"a":5},{},{"a":null}]}`, ok},
		{"json/registered-many-keys", false, `{"table":"t","rows":[` + manyKeysRow(twenty...) + `]}`, bad},

		// The line protocol.
		{"lines/all-types", true, `t i=5i,l=5i,d=2.5,s="x"`, ok},
		{"lines/bare-int", true, `t i=5,l=-7`, ok},
		{"lines/int-suffix-on-double", true, `t d=5i`, ok},
		{"lines/fraction-on-int", true, `t i=2.5`, bad},
		{"lines/special-doubles", true, "t d=NaN\nt d=-Inf\nt d=+Inf\nt d=nan\nt d=infinity\nt d=0x1p-2\nt d=1_0", ok},
		{"lines/nan-on-int", true, `t i=NaN`, bad},
		{"lines/double-overflow", true, `t d=1e400`, bad},
		{"lines/negative-zero", true, "t d=-0\nt d=-0i\nt d=-0.0", ok},
		{"lines/quoted-escapes", true, `t s="a\"b\\c,d=e\x"`, ok},
		{"lines/quoted-then-field", true, `t s="x,y=z",i=1i`, ok},
		{"lines/quoted-on-int", true, `t i="5"`, bad},
		{"lines/int-on-string", true, `t s=5i`, bad},
		{"lines/double-on-string", true, `t s=2.5`, bad},
		{"lines/null", true, "t i=null,s=null\nt l=1i", ok},
		{"lines/duplicate-field", true, `t i=1i,i=2i`, bad},
		{"lines/duplicate-unknown-field", true, `t x=1i,x=2i`, bad},
		{"lines/mixed-tables", true, "t i=1i\nu i=2i", bad},
		{"lines/blank-comments-crlf", true, "\n# c\nt i=1i\r\n\n  t i=2i  \n#t i=3i\n", ok},
		{"lines/unicode-space-trimmed", true, "\u00a0t i=1i\u2003\n\u0085", ok},
		{"lines/no-fields", true, "t ", bad},
		{"lines/no-table", true, "i=1i", bad},
		{"lines/comma-only", true, "t ,", bad},
		{"lines/trailing-comma", true, `t i=1i,`, ok},
		{"lines/double-comma", true, `t i=1i,,l=2i`, bad},
		{"lines/empty-value", true, `t i=`, bad},
		{"lines/empty-name", true, `t =1`, bad},
		{"lines/dangling-escape", true, `t s="abc\`, bad},
		{"lines/unterminated", true, `t s="abc`, bad},
		{"lines/text-after-quote", true, `t s="a"b`, bad},
		{"lines/invalid-utf8", true, "t s=\"a\xffb\"\nt s=\"\\\xc3\xa9\"\nt s=\"\xed\xa0\x80\"", ok},
		{"lines/signs-and-zeros", true, "t i=+5i,l=007\nt i=-0i", ok},
		{"lines/int32-overflow", true, `t i=2147483648i`, bad},
		{"lines/int64-overflow", true, `t l=9223372036854775808i`, bad},
		{"lines/name-with-space", true, `t a b=1`, bad},
		{"lines/bad-table", true, `../x i=1i`, bad},
		{"lines/registered-duplicate-columns", true, "dup a=5i\ndup a=null", ok},
		{"lines/empty-body", true, ``, bad},
		{"lines/comments-only", true, "# a\n\n# b\n", bad},
		{"lines/infer", true, "u a=5,b=2.5,c=\"x\",d=5i,e=null\nu e=1.5", ok},
		{"lines/infer-bare-int-then-fraction", true, "u a=5\nu a=2.5", bad},
		{"lines/infer-no-value", true, "u a=null", bad},
		{"lines/infer-bad-name", true, `u a.b/c=1i`, bad},
		{"lines/infer-many-keys", true, "u " + lineKeys(20) + "\nu k19=1i,k00=2i", ok},
	}
}

// lineKeys is one line's fields k00=0i..k(n-1)=(n-1)i.
func lineKeys(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("k%02d=%di", i, i)
	}
	return strings.Join(parts, ",")
}

// TestAppendDecodeDifferential holds the decoder to the reference on
// every body of the table: the same status, and on accepted bodies the
// same chunk and the same WAL record bytes. Each body is also posted
// through the handler to a fresh service, which must answer the same
// status and, on success, write the reference chunk's record to its WAL.
func TestAppendDecodeDifferential(t *testing.T) {
	for _, tc := range appendCases() {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			rtable, rchunk, rstatus := refDecode(body, tc.lines, decodeLookup)
			table, chunk, status := decodeBody(body, tc.lines, decodeLookup)
			if status != rstatus || status != tc.want {
				t.Fatalf("decoder %d, reference %d, want %d", status, rstatus, tc.want)
			}
			if status == http.StatusOK {
				if table != rtable {
					t.Fatalf("table %q, reference %q", table, rtable)
				}
				if d := chunkDiff(&chunk, &rchunk); d != "" {
					t.Fatal(d)
				}
				if !bytes.Equal(encodeWALPayload(1, table, &chunk), encodeWALPayload(1, rtable, &rchunk)) {
					t.Fatal("WAL record bytes differ")
				}
			}

			dir := t.TempDir()
			svc, err := Open(quietConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for table, specs := range decodeTables {
				if err := svc.CreateTable(table, specs); err != nil {
					t.Fatal(err)
				}
			}
			path := "/v1/append"
			if tc.lines {
				path = "/v1/write"
			}
			w := httptest.NewRecorder()
			NewHandler(svc).ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if w.Code != rstatus {
				t.Fatalf("handler answered %d, reference %d: %s", w.Code, rstatus, w.Body)
			}
			if w.Code != http.StatusOK {
				return
			}
			var res appendResult
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			wal, err := os.ReadFile(activeSegment(t, filepath.Join(dir, ".wal")))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(wal, encodeWALPayload(res.Seq, rtable, &rchunk)) {
				t.Fatal("the WAL does not hold the reference chunk's record")
			}
		})
	}
}

// TestAppendBodyTooLarge: a body over maxBodyBytes is 413 before it is
// read. The body is honest about its length, so the reference, which
// read maxBodyBytes+1 bytes and then refused, answered 413 as well.
func TestAppendBodyTooLarge(t *testing.T) {
	svc, err := Open(quietConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := NewHandler(svc)
	for _, path := range []string{"/v1/append", "/v1/write"} {
		body := &countingReader{n: maxBodyBytes + 1}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = maxBodyBytes + 1
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d, want 413", path, w.Code)
		}
		if body.read > 0 {
			t.Errorf("%s: read %d bytes of a body it refused by its length", path, body.read)
		}
	}
}

// countingReader yields n spaces and counts what was read.
type countingReader struct{ n, read int }

func (c *countingReader) Read(p []byte) (int, error) {
	if c.read == c.n {
		return 0, io.EOF
	}
	k := min(len(p), c.n-c.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	c.read += k
	return k, nil
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzAppend checks one body against the reference: the same status,
// and on an accepted body the same chunk. The decode allocates at most
// 64 bytes per body byte and per cell of the chunk (rows × columns: an
// inferred table's sparse keys make rows × keys NULL cells, which the
// reference allocated too) plus 64 KiB.
func fuzzAppend(t *testing.T, body []byte, lines bool) {
	if raceBuild {
		t.Skip("the race runtime changes allocation counts")
	}
	rtable, rchunk, rstatus := refDecode(body, lines, decodeLookup)
	var (
		table  string
		chunk  btrblocks.Chunk
		status int
	)
	allocated := heapBytes(func() { table, chunk, status = decodeBody(body, lines, decodeLookup) })
	if status != rstatus {
		t.Fatalf("decoder %d, reference %d", status, rstatus)
	}
	if status == http.StatusOK {
		if table != rtable {
			t.Fatalf("table %q, reference %q", table, rtable)
		}
		if d := chunkDiff(&chunk, &rchunk); d != "" {
			t.Fatal(d)
		}
	}
	cells := len(chunk.Columns) * chunk.NumRows()
	if limit := uint64(64*(len(body)+cells) + 64<<10); allocated > limit {
		t.Fatalf("decode allocated %d bytes for a %d-byte body of %d cells; limit %d", allocated, len(body), cells, limit)
	}
}

func FuzzAppendJSON(f *testing.F) {
	for _, tc := range appendCases() {
		if !tc.lines && len(tc.body) < 4096 {
			f.Add([]byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { fuzzAppend(t, body, false) })
}

func FuzzAppendLines(f *testing.F) {
	for _, tc := range appendCases() {
		if tc.lines {
			f.Add([]byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { fuzzAppend(t, body, true) })
}

// TestParseNumbersMatchStrconv: the binder's fast paths read every text
// exactly as strconv does, bit for bit and error for error.
func TestParseNumbersMatchStrconv(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	texts := []string{"-0", "0", "-0.0", "1.", ".5", "-", "", "1e3", "00.5", "007", "-.5", "+1", "1_0", "0x10",
		"123456789012345", "1234567890123456", "0.000000000000001", "999999999999999.9", "2147483648", "-2147483648",
		"999999999999999999", "9223372036854775807", "-9223372036854775808", "1.7976931348623157e308"}
	for i := 0; i < 100_000; i++ {
		var s string
		switch i % 4 {
		case 0:
			s = strconv.FormatFloat(r.Float64()*math.Pow(10, float64(r.Intn(12)-4)), 'f', r.Intn(10), 64)
		case 1:
			s = strconv.FormatInt(r.Int63(), 10)
		case 2:
			s = strconv.FormatFloat(r.NormFloat64()*1000, 'g', -1, 64)
		default:
			s = strconv.FormatFloat(float64(r.Intn(100000))/100, 'f', -1, 64)
		}
		if r.Intn(2) == 0 {
			s = "-" + s
		}
		texts = append(texts, s)
	}
	for _, s := range texts {
		want, werr := strconv.ParseFloat(s, 64)
		if got, err := parseFloat([]byte(s)); (err == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv %v, %v", s, got, err, want, werr)
		}
		for _, bits := range []int{32, 64} {
			want, werr := strconv.ParseInt(s, 10, bits)
			if got, err := parseInt([]byte(s), bits); (err == nil) != (werr == nil) || got != want {
				t.Fatalf("parseInt(%q, %d) = %v, %v; strconv %v, %v", s, bits, got, err, want, werr)
			}
		}
	}
}

// TestDecodeSizesMembersByBody: colons and equals signs inside values do
// not size the member slice past what the body can hold (a member takes
// at least five bytes of JSON, four of line protocol, and 16 bytes to
// record), so a body of them allocates a few times its length (the
// line-protocol body's string is also its column's data), not 16.
func TestDecodeSizesMembersByBody(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime changes allocation counts")
	}
	for _, tc := range []struct {
		lines bool
		body  string
	}{
		{false, `{"table":"t","rows":[{"i":1}],"x":"` + strings.Repeat(":", 1<<20) + `"}`},
		{true, `t s="` + strings.Repeat("=", 1<<20) + `"`},
	} {
		body := []byte(tc.body)
		var status int
		allocated := heapBytes(func() { _, _, status = decodeBody(body, tc.lines, decodeLookup) })
		if status != http.StatusOK {
			t.Fatalf("lines=%v: status %d", tc.lines, status)
		}
		if limit := uint64(6*len(body) + 64<<10); allocated > limit {
			t.Errorf("lines=%v: %d bytes allocated for a %d-byte body; want <= %d", tc.lines, allocated, len(body), limit)
		}
	}
}
