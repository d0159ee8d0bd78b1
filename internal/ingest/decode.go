package ingest

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"btrblocks"
	"btrblocks/internal/jsonlex"
)

// This file is the one decoder of append bodies, POST /v1/append's JSON
// and POST /v1/write's line protocol. It works in the order the handler
// needs:
//
//  1. read the whole body once, checking its syntax, and record each
//     row's values as views of the body by key (decodeJSON, decodeLines);
//  2. resolve the table's schema, registered or inferred from the views
//     on first contact (appendBatch.resolve, inferSchema);
//  3. bind each row's views in schema order into column slices allocated
//     once at the row count, unescaping strings straight into the
//     column's data buffer (appendBatch.chunk).
//
// What it accepts and builds is what encoding/json made of a JSON body
// unmarshalled into one map per row (the line protocol was parsed into
// the same maps): reference_test.go keeps that code, and the decode
// tests and fuzz targets hold the two to the same status and the same
// chunk. So a syntax error anywhere is refused before the schema is
// looked at, a key that repeats in a row keeps its last value (an
// earlier one is never bound), and a repeated "rows" merges into the
// rows before it as encoding/json's slice and map reuse does.

// maxDepth is encoding/json's nesting limit for a whole text.
const maxDepth = 10000

// appendBatch is a decoded append body before its schema is known.
type appendBatch struct {
	body  []byte
	lines bool // the views are line-protocol values, not JSON
	table string
	keys  [][]byte         // distinct keys, first seen first: views of body unless escaped
	views []bool           // which keys are views of the body (JSON keys without escapes)
	index map[string]int32 // keys by name, once there are many
	rows  int
	// Row r's values are members[start[r]:start[r+1]], in body order.
	start   []int32
	members []member

	// Decode state of the JSON "rows" arrays read so far: how many there
	// were, how many row slots encoding/json's slice would hold, and,
	// from the second array on, each slot's floor: the first member that
	// is still alive in it.
	arrays int
	slots  int
	floor  []int32
}

// member is one value of a row: key indexes keys, and [lo, hi) are the
// value's bytes in the body.
type member struct {
	row, key, lo, hi int32
}

// manyKeys is the key count above which keys are looked up in a map.
const manyKeys = 16

// keyIndex returns name's index in keys, adding it if it is new; guess
// is where it is likely to be (rows usually repeat one key order), and
// view says name is a JSON key's own bytes in the body. An added name is
// kept as it is, so it must not change afterwards.
func (b *appendBatch) keyIndex(name []byte, guess int, view bool) int32 {
	if guess < len(b.keys) && bytes.Equal(b.keys[guess], name) {
		return int32(guess)
	}
	if b.index != nil {
		if k, ok := b.index[string(name)]; ok {
			return k
		}
	} else {
		for k, key := range b.keys {
			if bytes.Equal(key, name) {
				return int32(k)
			}
		}
	}
	k := int32(len(b.keys))
	b.keys = append(b.keys, name)
	b.views = append(b.views, view)
	if b.index == nil && len(b.keys) > manyKeys {
		b.index = make(map[string]int32, 2*len(b.keys))
		for i, key := range b.keys {
			b.index[string(key)] = int32(i)
		}
	} else if b.index != nil {
		b.index[string(name)] = k
	}
	return k
}

// lookupKey returns name's index in keys, or -1.
func (b *appendBatch) lookupKey(name string) int32 {
	if b.index != nil {
		if k, ok := b.index[name]; ok {
			return k
		}
		return -1
	}
	for k, key := range b.keys {
		if string(key) == name {
			return int32(k)
		}
	}
	return -1
}

// badBody marks a body the decoder refuses before any schema is read.
func badBody(format string, err error) error {
	return &httpError{http.StatusBadRequest, fmt.Errorf("bad %s: %w", format, err)}
}

// decodeJSON reads a POST /v1/append body: {"table":T,"rows":[{...},...]}.
// The two keys match case-insensitively, unknown ones are skipped, a
// null table or row is what encoding/json makes of it, and a row's
// values may be any JSON (binding refuses what is not its column's).
func decodeJSON(body []byte) (*appendBatch, error) {
	// A member has a colon of its own and takes at least five bytes
	// (`"":0,`): both bound the members, the second when strings hold
	// colons.
	members := min(bytes.Count(body, []byte{':'}), len(body)/5+1)
	b := &appendBatch{body: body, members: make([]member, 0, members)}
	d := &jsonlex.Reader{B: body}
	if err := b.readJSON(d); err != nil {
		return nil, badBody("JSON", err)
	}
	if b.rows == 0 {
		return nil, ErrEmptyBatch
	}
	if b.arrays > 1 {
		b.gather()
	} else {
		b.start = rowStarts(b.members, b.rows)
	}
	return b, nil
}

func (b *appendBatch) readJSON(d *jsonlex.Reader) error {
	if !d.Next('{') {
		return d.Fail("object expected")
	}
	if !d.Next('}') {
		for {
			d.WS()
			key, _, err := readKey(d)
			if err != nil {
				return err
			}
			if !d.Next(':') {
				return d.Fail("colon expected")
			}
			d.WS()
			switch {
			case foldEqual(key, "TABLE"):
				err = b.readTable(d)
			case foldEqual(key, "ROWS"):
				err = b.readRows(d)
			default:
				err = d.Skip(maxDepth - 1)
			}
			if err != nil {
				return err
			}
			if d.Next(',') {
				continue
			}
			if d.Next('}') {
				break
			}
			return d.Fail("comma or } expected")
		}
	}
	d.WS()
	if d.Pos != len(d.B) {
		return d.Fail("data after the object")
	}
	return nil
}

// readKey reads an object key: a view of the body when it stands for
// itself (view), else its unescaped copy.
func readKey(d *jsonlex.Reader) (name []byte, view bool, err error) {
	lo, hi, plain, err := d.Span()
	if err != nil || plain {
		return d.B[lo:hi], plain, err
	}
	return jsonlex.AppendUnescaped(nil, d.B[lo:hi]), false, nil
}

// foldEqual reports whether key names the field upper under
// encoding/json's key folding: each rune stands for the smallest rune of
// its case-folding orbit, so "rows", "Rows" and "rowſ" all name ROWS.
func foldEqual(key []byte, upper string) bool {
	i := 0
	for len(key) > 0 {
		r, size := utf8.DecodeRune(key)
		if i == len(upper) || foldRune(r) != rune(upper[i]) {
			return false
		}
		key, i = key[size:], i+1
	}
	return i == len(upper)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		f := unicode.SimpleFold(r)
		if f <= r {
			return f
		}
		r = f
	}
}

// isNull reports whether the JSON value at the cursor is null (only its
// first byte is looked at: Skip checks the rest).
func isNull(d *jsonlex.Reader) bool { return d.Pos < len(d.B) && d.B[d.Pos] == 'n' }

// readTable reads the table's name; null leaves it as it was.
func (b *appendBatch) readTable(d *jsonlex.Reader) error {
	if isNull(d) {
		return d.Skip(0)
	}
	name, _, err := readKey(d)
	b.table = string(name)
	return err
}

// readRows reads one "rows" array. As encoding/json decodes into the same
// slice of maps: element i merges into row slot i (null empties it), the
// row count becomes the array's length, and null or [] drops every slot.
// A single array, the usual body, needs none of that bookkeeping.
func (b *appendBatch) readRows(d *jsonlex.Reader) error {
	if isNull(d) {
		b.rows, b.slots, b.floor = 0, 0, b.floor[:0]
		return d.Skip(0)
	}
	if !d.Next('[') {
		return d.Fail("array expected")
	}
	if b.arrays++; b.arrays == 2 {
		b.floor = make([]int32, b.slots) // every member so far is alive
	}
	n := 0
	if !d.Next(']') {
		for {
			d.WS()
			if n == b.slots {
				b.slots++
				if b.floor != nil {
					b.floor = append(b.floor, int32(len(b.members)))
				}
			}
			if isNull(d) {
				if b.floor != nil {
					b.floor[n] = int32(len(b.members))
				}
				if err := d.Skip(0); err != nil {
					return err
				}
			} else if err := b.readRow(d, int32(n)); err != nil {
				return err
			}
			n++
			if d.Next(',') {
				continue
			}
			if d.Next(']') {
				break
			}
			return d.Fail("comma or ] expected")
		}
	}
	if n == 0 {
		b.slots, b.floor = 0, b.floor[:0]
	}
	b.rows = n
	return nil
}

// readRow reads one row object into members.
func (b *appendBatch) readRow(d *jsonlex.Reader, row int32) error {
	if !d.Next('{') {
		return d.Fail("row object expected")
	}
	if d.Next('}') {
		return nil
	}
	k := int32(-1)
	for {
		d.WS()
		var err error
		if k, err = b.rowKey(d, k); err != nil {
			return err
		}
		if !d.Next(':') {
			return d.Fail("colon expected")
		}
		d.WS()
		lo := d.Pos
		// The value sits inside the body, "rows" and row containers.
		if err := d.Skip(maxDepth - 3); err != nil {
			return err
		}
		b.members = append(b.members, member{row, k, int32(lo), int32(d.Pos)})
		if d.Next(',') {
			continue
		}
		if d.Next('}') {
			return nil
		}
		return d.Fail("comma or } expected")
	}
}

// rowKey reads the key at the cursor and returns its index in keys. The
// key after prev is tried first, straight against the body: rows usually
// repeat one key order, and a key that is a view of the body is the same
// key wherever the same bytes stand between quotes, so it needs no scan.
func (b *appendBatch) rowKey(d *jsonlex.Reader, prev int32) (int32, error) {
	guess := int(prev + 1)
	if guess < len(b.keys) && b.views[guess] {
		key := b.keys[guess]
		if end := d.Pos + 1 + len(key); end < len(d.B) && d.B[d.Pos] == '"' && d.B[end] == '"' && bytes.Equal(d.B[d.Pos+1:end], key) {
			d.Pos = end + 1
			return int32(guess), nil
		}
	}
	name, view, err := readKey(d)
	if err != nil {
		return 0, err
	}
	return b.keyIndex(name, guess, view), nil
}

// rowStarts returns where each row's members start in members, which
// are in row order, with the end of the last row after them.
func rowStarts(members []member, rows int) []int32 {
	start := make([]int32, rows+1)
	for _, m := range members {
		start[m.row+1]++
	}
	for r := 0; r < rows; r++ {
		start[r+1] += start[r]
	}
	return start
}

// gather keeps the members a later "rows" left alive, grouped by row in
// body order: the merge of every array into the row slots.
func (b *appendBatch) gather() {
	alive := b.members[:0:0]
	for i, m := range b.members {
		if int(m.row) < b.rows && int32(i) >= b.floor[m.row] {
			alive = append(alive, m)
		}
	}
	b.start = rowStarts(alive, b.rows)
	next := slices.Clone(b.start[:b.rows])
	b.members = make([]member, len(alive))
	for _, m := range alive {
		b.members[next[m.row]] = m
		next[m.row]++
	}
}

// decodeLines reads a POST /v1/write body: one row per line,
// `table field=value,field=value,...`. Blank lines and #-comments are
// skipped, and every line must name the same table. A value is `123i`
// (an integer), a bare number as strconv.ParseFloat reads it, `null`, or
// a double-quoted string in which a backslash takes the next byte as it
// is. Field names are taken as they are; one may not repeat in a line.
func decodeLines(body []byte) (*appendBatch, error) {
	// A field has an '=' of its own and takes at least four bytes
	// (`a=1,`): both bound the members, the second when values hold '='.
	members := min(bytes.Count(body, []byte{'='}), len(body)/4+1)
	b := &appendBatch{body: body, lines: true, members: make([]member, 0, members)}
	var last []int32 // the last row each key was seen in
	for at, ln := 0, 1; at <= len(body); ln++ {
		end := bytes.IndexByte(body[at:], '\n')
		if end < 0 {
			end = len(body) - at
		}
		raw := body[at : at+end]
		line := bytes.TrimLeftFunc(raw, unicode.IsSpace)
		base := at + len(raw) - len(line)
		line = bytes.TrimRightFunc(line, unicode.IsSpace)
		at += end + 1
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.IndexByte(line, ' ')
		if sp <= 0 {
			return nil, badBody("line protocol", fmt.Errorf("line %d: want `table field=value,...`", ln))
		}
		if b.rows == 0 {
			b.table = string(line[:sp])
		} else if string(line[:sp]) != b.table {
			return nil, badBody("line protocol", fmt.Errorf("line %d: mixed tables %q and %q in one batch", ln, b.table, line[:sp]))
		}
		n := len(b.members)
		if err := b.readFields(line[sp+1:], base+sp+1, &last); err != nil {
			return nil, badBody("line protocol", fmt.Errorf("line %d: %w", ln, err))
		}
		if len(b.members) == n {
			return nil, badBody("line protocol", fmt.Errorf("line %d: row has no fields", ln))
		}
		b.rows++
	}
	if b.rows == 0 {
		return nil, ErrEmptyBatch
	}
	b.start = rowStarts(b.members, b.rows)
	return b, nil
}

// readFields reads `a=1i,b=2.5,c="x,y"`, the fields of one line, which
// start at byte off of the body.
func (b *appendBatch) readFields(s []byte, off int, last *[]int32) error {
	row, k := int32(b.rows), int32(-1)
	for len(s) > 0 {
		eq := bytes.IndexByte(s, '=')
		if eq <= 0 {
			return fmt.Errorf("want field=value near %q", s)
		}
		name := s[:eq]
		lo := off + eq + 1
		s = s[eq+1:]
		n, err := lineValue(s)
		if err != nil {
			return err
		}
		k = b.keyIndex(name, int(k+1), false)
		if int(k) == len(*last) {
			*last = append(*last, -1)
		}
		if (*last)[k] == row {
			return fmt.Errorf("duplicate field %q", name)
		}
		(*last)[k] = row
		b.members = append(b.members, member{row, k, int32(lo), int32(lo + n)})
		s = s[n:]
		off = lo + n
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("want ',' near %q", s)
			}
			s, off = s[1:], off+1
		}
	}
	return nil
}

// lineValue returns the length of the line-protocol value s starts with,
// checking it: a quoted string up to its closing quote, else the token up
// to the next comma, which must be an integer with the i suffix, null or
// a number.
func lineValue(s []byte) (int, error) {
	if len(s) > 0 && s[0] == '"' {
		for i := 1; i < len(s); i++ {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in %q", s)
				}
				i++
			case '"':
				return i + 1, nil
			}
		}
		return 0, fmt.Errorf("unterminated string in %q", s)
	}
	tok := s
	if end := bytes.IndexByte(s, ','); end >= 0 {
		tok = s[:end]
	}
	switch {
	case bytes.HasSuffix(tok, []byte("i")):
		if _, err := strconv.ParseInt(string(tok[:len(tok)-1]), 10, 64); err != nil {
			return 0, fmt.Errorf("bad integer %q", tok)
		}
	case string(tok) == "null":
	default:
		if _, err := strconv.ParseFloat(string(tok), 64); err != nil {
			return 0, fmt.Errorf("bad number %q", tok)
		}
	}
	return len(tok), nil
}

// Kinds of a value view.
const (
	kindNull   = iota
	kindNumber // its text is a number for strconv
	kindString // a JSON string, or a quoted line-protocol string
	kindOther  // true, false, an array or an object
)

// view classifies a member's value and returns the text binding reads:
// a number's digits (without a line-protocol i), a string's contents
// between the quotes.
func (b *appendBatch) view(m member) (int, []byte) {
	v := b.body[m.lo:m.hi]
	switch {
	case v[0] == '"':
		return kindString, v[1 : len(v)-1]
	case b.lines && string(v) == "null":
		return kindNull, nil
	case b.lines && v[len(v)-1] == 'i':
		return kindNumber, v[:len(v)-1]
	case b.lines, v[0] == '-', '0' <= v[0] && v[0] <= '9':
		return kindNumber, v
	case v[0] == 'n':
		return kindNull, nil
	}
	return kindOther, v
}

// resolve finds the batch's schema, the table's registered one from
// registered or else inferred from the batch (first contact), and binds
// the batch to it.
func (b *appendBatch) resolve(registered func(table string) ([]btrblocks.Column, bool)) (btrblocks.Chunk, error) {
	if !validName(b.table) {
		return btrblocks.Chunk{}, fmt.Errorf("%w: table %q", ErrBadName, b.table)
	}
	schema, ok := registered(b.table)
	if !ok {
		var err error
		if schema, err = inferSchema(b); err != nil {
			return btrblocks.Chunk{}, err
		}
	}
	return b.chunk(schema)
}

// inferSchema derives a schema from the first batch for a table that
// was not created explicitly: the keys of every row in sorted order,
// each typed by its first non-null value. A quoted value infers string,
// an integer in int64's range int64, any other number double.
func inferSchema(b *appendBatch) ([]btrblocks.Column, error) {
	types := make([]btrblocks.Type, len(b.keys))
	used := make([]bool, len(b.keys))
	last := make([]int32, len(b.keys)) // the last row each key was typed in
	for i := range last {
		last[i] = -1
	}
	for r := 0; r < b.rows; r++ {
		row := b.members[b.start[r]:b.start[r+1]]
		for i := len(row) - 1; i >= 0; i-- { // a repeated key's last value counts
			m := row[i]
			used[m.key] = true
			if types[m.key] != 0 || last[m.key] == int32(r) {
				continue
			}
			last[m.key] = int32(r)
			t, err := inferColumnType(b, m)
			if err != nil {
				return nil, err
			}
			types[m.key] = t
		}
	}
	var schema []btrblocks.Column
	for k, key := range b.keys {
		if !used[k] {
			continue
		}
		name := string(key)
		if !validName(name) {
			return nil, fmt.Errorf("%w: column %q", ErrBadName, name)
		}
		if types[k] == 0 {
			return nil, fmt.Errorf("%w: column %q has no non-null value to infer a type from (create the table explicitly)", ErrSchema, name)
		}
		schema = append(schema, btrblocks.Column{Name: name, Type: types[k]})
	}
	slices.SortFunc(schema, func(x, y btrblocks.Column) int { return strings.Compare(x.Name, y.Name) })
	return schema, nil
}

// inferColumnType types one value for inferSchema; the zero Type, which
// is TypeInt and so never inferred, stands for NULL and leaves the
// column to a later row.
func inferColumnType(b *appendBatch, m member) (btrblocks.Type, error) {
	kind, text := b.view(m)
	switch kind {
	case kindNull:
		return 0, nil
	case kindString:
		return btrblocks.TypeString, nil
	case kindNumber:
		if _, err := strconv.ParseInt(string(text), 10, 64); err == nil {
			return btrblocks.TypeInt64, nil
		}
		if _, err := strconv.ParseFloat(string(text), 64); err == nil {
			return btrblocks.TypeDouble, nil
		}
	}
	return 0, fmt.Errorf("%w: column %q value %s", ErrBadValue, b.keys[m.key], b.body[m.lo:m.hi])
}

// chunk binds the batch to schema: each column's slice is allocated once
// at the row count (a string column's data at the size of its values,
// which only invalid UTF-8, widened to U+FFFD, outgrows),
// a missing key or null sets the NULL mask over a zero value, and a key
// the schema lacks or a value its column's type cannot hold is an error.
func (b *appendBatch) chunk(schema []btrblocks.Column) (btrblocks.Chunk, error) {
	keyOf := make([]int32, len(schema)) // each column's key, -1 if no row has it
	known := make([]bool, len(b.keys))  // whether a column takes the key
	for c := range schema {
		if keyOf[c] = b.lookupKey(schema[c].Name); keyOf[c] >= 0 {
			known[keyOf[c]] = true
		}
	}
	dataLen := make([]int, len(b.keys)) // a key's string values, their quotes left out
	for _, m := range b.members {
		dataLen[m.key] += max(int(m.hi-m.lo)-2, 0)
	}
	chunk := emptyChunkFor(schema)
	for c := range chunk.Columns {
		cc := &chunk.Columns[c]
		switch cc.Type {
		case btrblocks.TypeInt:
			cc.Ints = make([]int32, b.rows)
		case btrblocks.TypeInt64:
			cc.Ints64 = make([]int64, b.rows)
		case btrblocks.TypeDouble:
			cc.Doubles = make([]float64, b.rows)
		case btrblocks.TypeString:
			cc.Strings.Offsets = make([]uint32, 1, b.rows+1)
			if keyOf[c] >= 0 {
				cc.Strings.Data = make([]byte, 0, dataLen[keyOf[c]])
			}
		}
	}
	slot := make([]int32, len(b.keys)) // this row's last member per key
	for k := range slot {
		slot[k] = -1
	}
	for r := 0; r < b.rows; r++ {
		row := b.members[b.start[r]:b.start[r+1]]
		for i, m := range row {
			if !known[m.key] {
				return chunk, fmt.Errorf("%w: row %d has unknown column %q", ErrSchema, r, b.keys[m.key])
			}
			slot[m.key] = b.start[r] + int32(i)
		}
		for c := range chunk.Columns {
			cc := &chunk.Columns[c]
			kind, text := kindNull, []byte(nil)
			if k := keyOf[c]; k >= 0 && slot[k] >= 0 {
				kind, text = b.view(b.members[slot[k]])
			}
			if kind == kindNull {
				if cc.Type == btrblocks.TypeString {
					cc.Strings.Offsets = append(cc.Strings.Offsets, uint32(len(cc.Strings.Data)))
				}
				if cc.Nulls == nil {
					cc.Nulls = btrblocks.NewNullMask()
				}
				cc.Nulls.SetNull(r)
				continue
			}
			if err := b.bind(cc, r, kind, text); err != nil {
				return chunk, fmt.Errorf("row %d column %q: %w", r, cc.Name, err)
			}
		}
		for _, m := range row {
			slot[m.key] = -1
		}
	}
	return chunk, nil
}

// bind stores one non-null value at row r of col.
func (b *appendBatch) bind(col *btrblocks.Column, r, kind int, text []byte) error {
	if (kind == kindString) != (col.Type == btrblocks.TypeString) || kind == kindOther {
		return fmt.Errorf("%w: %s as %s", ErrBadValue, text, typeName(col.Type))
	}
	var err error
	switch col.Type {
	case btrblocks.TypeInt:
		var v int64
		v, err = parseInt(text, 32)
		col.Ints[r] = int32(v)
	case btrblocks.TypeInt64:
		col.Ints64[r], err = parseInt(text, 64)
	case btrblocks.TypeDouble:
		col.Doubles[r], err = parseFloat(text)
	case btrblocks.TypeString:
		s := &col.Strings
		if b.lines {
			s.Data = appendLineString(s.Data, text)
		} else {
			s.Data = jsonlex.AppendUnescaped(s.Data, text)
		}
		s.Offsets = append(s.Offsets, uint32(len(s.Data)))
	}
	if err != nil {
		return fmt.Errorf("%w: %s as %s", ErrBadValue, text, typeName(col.Type))
	}
	return nil
}

// parseInt is strconv.ParseInt(string(text), 10, bits), with a fast path
// for the usual text: a minus or not, then at most 18 digits.
func parseInt(text []byte, bits int) (int64, error) {
	digits := bytes.TrimPrefix(text, []byte("-"))
	if v, ok := decimal(digits); ok {
		if len(digits) < len(text) {
			v = -v
		}
		if bits == 64 || math.MinInt32 <= v && v <= math.MaxInt32 {
			return v, nil
		}
	}
	return strconv.ParseInt(string(text), 10, bits)
}

// decimal returns the value of digits if they are 1 to 18 decimal digits.
func decimal(digits []byte) (int64, bool) {
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// pow10 are the powers of ten parseFloat divides by, each exact.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat is strconv.ParseFloat(string(text), 64), with a fast path
// for a plain decimal of at most 15 digits (a minus or not, digits, and a
// point with digits after it or not): the digits and the power of ten
// are exact as float64s, so their quotient is the correctly rounded value
// ParseFloat returns, the sign of -0 included.
func parseFloat(text []byte) (float64, error) {
	num := bytes.TrimPrefix(text, []byte("-"))
	whole, frac, point := bytes.Cut(num, []byte("."))
	w, ok := decimal(whole)
	f, fok := decimal(frac)
	if ok && (fok || !point) && len(whole)+len(frac) <= 15 {
		v := float64(w*int64(pow10[len(frac)])+f) / pow10[len(frac)]
		if len(num) < len(text) {
			v = -v
		}
		return v, nil
	}
	return strconv.ParseFloat(string(text), 64)
}

// appendLineString appends a quoted line-protocol string's contents with
// each backslash dropped before the byte it escapes, and each byte of
// invalid UTF-8 then replaced by U+FFFD, as a JSON round trip of the Go
// string did.
func appendLineString(dst, raw []byte) []byte {
	start := len(dst)
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\\' {
			i++
		}
		dst = append(dst, raw[i])
	}
	if utf8.Valid(dst[start:]) {
		return dst
	}
	s := string(dst[start:])
	dst = dst[:start]
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, r)
		i += size
	}
	return dst
}
