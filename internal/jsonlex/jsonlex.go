// Package jsonlex is the JSON lexer the hand-written readers share: a
// cursor over a JSON text that reads past values, checking their syntax
// as encoding/json does, reads integers and string spans straight from
// the text, and unescapes a string the way encoding/json does. The block
// wire's JSON reader (internal/blockstore) and the append decoder
// (internal/ingest) are built on it; each keeps its own grammar of keys
// and values above it.
package jsonlex

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Reader is a cursor over a JSON text B; Pos is the next byte to read.
type Reader struct {
	B   []byte
	Pos int
}

// SyntaxError is what a Reader returns for text it refuses: what was
// wrong and the byte offset where it was found.
type SyntaxError struct {
	Msg    string
	Offset int
}

func (e *SyntaxError) Error() string { return e.Msg + " at byte " + strconv.Itoa(e.Offset) }

// Fail returns a SyntaxError for what at the cursor.
func (d *Reader) Fail(what string) error { return &SyntaxError{what, d.Pos} }

// WS skips whitespace.
func (d *Reader) WS() {
	if d.Pos < len(d.B) && d.B[d.Pos] > ' ' {
		return // the usual case: no whitespace at all
	}
	for d.Pos < len(d.B) {
		switch d.B[d.Pos] {
		case ' ', '\t', '\n', '\r':
			d.Pos++
		default:
			return
		}
	}
}

// Next skips whitespace, then consumes c if it comes next.
func (d *Reader) Next(c byte) bool {
	d.WS()
	if d.Pos < len(d.B) && d.B[d.Pos] == c {
		d.Pos++
		return true
	}
	return false
}

// plain marks the bytes that stand for themselves inside a JSON string:
// printable ASCII but '"' and '\\'.
var plain = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// Span reads past the JSON string at the cursor, checking its escapes
// and bytes, and returns the bounds of its contents and whether they
// stand for themselves (no escape, valid UTF-8).
func (d *Reader) Span() (lo, hi int, isPlain bool, err error) {
	b := d.B
	if d.Pos >= len(b) || b[d.Pos] != '"' {
		return 0, 0, false, d.Fail("string expected")
	}
	lo, isPlain = d.Pos+1, true
	for i := lo; i < len(b); {
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			d.Pos = i + 1
			return lo, i, isPlain, nil
		case c == '\\':
			isPlain = false
			switch {
			case i+1 < len(b) && strings.IndexByte(`"\/bfnrt`, b[i+1]) >= 0:
				i += 2
			case i+5 < len(b) && b[i+1] == 'u' && isHex4(b[i+2:i+6]):
				i += 6
			default:
				d.Pos = i
				return 0, 0, false, d.Fail("bad escape")
			}
		case c < 0x20:
			d.Pos = i
			return 0, 0, false, d.Fail("control byte in string")
		case isPlain:
			r, size := utf8.DecodeRune(b[i:])
			isPlain = r != utf8.RuneError || size > 1
			i += size
		default:
			i++
		}
	}
	d.Pos = len(b)
	return 0, 0, false, d.Fail("unterminated string")
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// AppendUnescaped appends the contents of a string span Span accepted,
// unescaped as encoding/json unescapes them: a surrogate pair of escapes
// is one rune, and a lone surrogate or a byte of invalid UTF-8 is
// utf8.RuneError. Runs of plain bytes are copied whole.
func AppendUnescaped(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case plain[c]:
			j := i + 1
			for j < len(raw) && plain[raw[j]] {
				j++
			}
			dst = append(dst, raw[i:j]...)
			i = j
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2 : i+6])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2 : i+6])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			dst = append(dst, unescape[raw[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// Skip reads past one JSON value, checking its syntax. The value may
// hold at most limit levels of arrays and objects, itself included
// (encoding/json allows 10000 in a whole text).
func (d *Reader) Skip(limit int) error {
	d.WS()
	if d.Pos >= len(d.B) {
		return d.Fail("value expected")
	}
	switch c := d.B[d.Pos]; {
	case c == '"':
		_, _, _, err := d.Span()
		return err
	case c == '{', c == '[':
		if limit <= 0 {
			return d.Fail("value nested too deep")
		}
		d.Pos++
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		if d.Next(closer) {
			return nil
		}
		for {
			if c == '{' {
				d.WS()
				if _, _, _, err := d.Span(); err != nil {
					return err
				}
				if !d.Next(':') {
					return d.Fail("colon expected")
				}
			}
			if err := d.Skip(limit - 1); err != nil {
				return err
			}
			if d.Next(',') {
				continue
			}
			if d.Next(closer) {
				return nil
			}
			return d.Fail("comma or " + string(closer) + " expected")
		}
	case c == '-' || '0' <= c && c <= '9':
		return d.Number()
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(d.B[d.Pos:], []byte(lit)) {
			d.Pos += len(lit)
			return nil
		}
	}
	return d.Fail("value expected")
}

// Number reads past a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *Reader) Number() error {
	b := d.B
	i := d.Pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	i = digits(b, i)
	if i == start || i-start > 1 && b[start] == '0' {
		return d.Fail("bad number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; digits(b, i) == i {
			return d.Fail("bad number")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits(b, i) == i {
			return d.Fail("bad number")
		}
		i = digits(b, i)
	}
	d.Pos = i
	return nil
}

// digits returns the index of the first byte at or after i in b that is
// not a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// Int reads a JSON number that is an integer in [lo, hi].
func Int[T int32 | int64 | int](d *Reader, lo, hi int64) (T, error) {
	b, i := d.B, d.Pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i-start == 19 {
			return 0, d.Fail("integer out of range")
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case i == start:
		return 0, d.Fail("number expected")
	case b[start] == '0' && i-start > 1:
		return 0, d.Fail("leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, d.Fail("integer expected")
	case neg && u > uint64(-(lo+1))+1, !neg && u > uint64(hi):
		return 0, d.Fail("integer out of range")
	}
	d.Pos = i
	if neg {
		return T(-int64(u)), nil
	}
	return T(u), nil
}
