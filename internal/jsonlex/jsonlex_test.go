package jsonlex

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSkipMatchesEncodingJSON: a text is one value Skip reads to its end
// exactly when encoding/json finds it valid, nesting limit included.
func TestSkipMatchesEncodingJSON(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	texts := []string{
		`0`, `-0`, `-0.5e+10`, `1E3`, `01`, `-`, `1.`, `.5`, `1e`, `+1`,
		`"a"`, `"é😀"`, `"\x"`, `"\u12"`, "\"a\x01\"", "\"\xff\"", `"`,
		`true`, `false`, `null`, `nul`, `truex`, `True`,
		`[]`, `[1,2]`, `[1,]`, `[,1]`, `{}`, `{"a":1,"b":[{}]}`, `{"a"}`, `{"a":1,}`, `{1:2}`,
		` [ 1 , { "a" : null } ] `, "\t\r\n{}\n",
		deep(100), deep(10000), deep(10001),
	}
	for _, text := range texts {
		d := &Reader{B: []byte(text)}
		err := d.Skip(10000)
		d.WS()
		got := err == nil && d.Pos == len(text)
		if want := json.Valid([]byte(text)); got != want {
			t.Errorf("%.40q: Skip reads it whole %v (%v), encoding/json valid %v", text, got, err, want)
		}
	}
}

// TestAppendUnescapedMatchesEncodingJSON: what Span accepts, unescaped,
// is the string encoding/json decodes.
func TestAppendUnescapedMatchesEncodingJSON(t *testing.T) {
	for _, text := range []string{
		`""`, `"plain"`, `"a\"b\\c\/d\b\f\n\r\t"`, `"\u0041\u00e9\u20AC\u0000"`,
		`"😀"`, `"\ud83d\ude00"`, `"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`, `"\ud83d😀"`,
		"\"a\xffb\xc3\"", "\"\xed\xa0\x80\"", "\"é€😀<>&\"",
	} {
		d := &Reader{B: []byte(text)}
		lo, hi, plain, err := d.Span()
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		var want string
		if err := json.Unmarshal([]byte(text), &want); err != nil {
			t.Fatalf("%q: encoding/json: %v", text, err)
		}
		if got := string(AppendUnescaped(nil, d.B[lo:hi])); got != want {
			t.Errorf("%q: unescaped %q, encoding/json %q", text, got, want)
		}
		if plain != (text[1:len(text)-1] == want) {
			t.Errorf("%q: plain %v", text, plain)
		}
	}
}
