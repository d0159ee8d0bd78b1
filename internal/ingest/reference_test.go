package ingest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"btrblocks"
)

// This file keeps the append decoding the one-pass decoder replaced:
// bodies unmarshalled by encoding/json into one map per row (the line
// protocol parsed into the same maps), a schema inferred from the maps,
// and each value re-parsed from its raw JSON. It is the reference the
// decoder is checked against (decode_test.go, FuzzAppendJSON,
// FuzzAppendLines): every body gets the same status class from both,
// and every accepted body the same chunk.

// refDecode decodes an append body the reference way, with the table's
// registered schema from lookup, into the chunk the handler would
// append, or the status it would answer.
func refDecode(body []byte, lines bool, lookup func(string) ([]btrblocks.Column, bool)) (string, btrblocks.Chunk, int) {
	var table string
	var rows []map[string]json.RawMessage
	if lines {
		var err error
		if table, rows, err = refParseLineProtocol(string(body)); err != nil {
			return "", btrblocks.Chunk{}, http.StatusBadRequest
		}
	} else {
		var req jsonAppendRequest
		if err := json.Unmarshal(body, &req); err != nil || len(req.Rows) == 0 {
			return "", btrblocks.Chunk{}, http.StatusBadRequest
		}
		table, rows = req.Table, req.Rows
	}
	if !validName(table) {
		return "", btrblocks.Chunk{}, http.StatusBadRequest
	}
	schema, ok := lookup(table)
	if !ok {
		var err error
		if schema, err = refInferSchema(rows); err != nil {
			return "", btrblocks.Chunk{}, http.StatusBadRequest
		}
	}
	chunk, err := refChunkFromRows(schema, rows)
	if err != nil || chunk.NumRows() == 0 {
		return "", btrblocks.Chunk{}, http.StatusBadRequest
	}
	return table, chunk, http.StatusOK
}

// jsonAppendRequest is the body of POST /v1/append: row objects keyed by
// column name. Missing keys become NULL; unknown keys are rejected.
type jsonAppendRequest struct {
	Table string                       `json:"table"`
	Rows  []map[string]json.RawMessage `json:"rows"`
}

// refInferSchema derives a schema from the first batch for a table that
// was not explicitly created: column names are the union of row keys in
// sorted order; types come from the first non-null value per column.
// Integral JSON numbers infer int64, fractional ones double.
func refInferSchema(rows []map[string]json.RawMessage) ([]btrblocks.Column, error) {
	keys := map[string]bool{}
	for _, row := range rows {
		for k := range row {
			keys[k] = true
		}
	}
	if len(keys) > maxInferredColumns {
		return nil, fmt.Errorf("%w: the first batch would infer %d columns", ErrSchema, len(keys))
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	schema := make([]btrblocks.Column, 0, len(names))
	for _, name := range names {
		if !validName(name) {
			return nil, fmt.Errorf("%w: column %q", ErrBadName, name)
		}
		t, err := refInferColumnType(rows, name)
		if err != nil {
			return nil, err
		}
		schema = append(schema, btrblocks.Column{Name: name, Type: t})
	}
	return schema, nil
}

func refInferColumnType(rows []map[string]json.RawMessage, name string) (btrblocks.Type, error) {
	for _, row := range rows {
		raw, ok := row[name]
		if !ok || refIsJSONNull(raw) {
			continue
		}
		s := strings.TrimSpace(string(raw))
		if len(s) > 0 && s[0] == '"' {
			return btrblocks.TypeString, nil
		}
		if _, err := strconv.ParseInt(s, 10, 64); err == nil {
			return btrblocks.TypeInt64, nil
		}
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			return btrblocks.TypeDouble, nil
		}
		return 0, fmt.Errorf("%w: column %q value %s", ErrBadValue, name, s)
	}
	return 0, fmt.Errorf("%w: column %q has no non-null value to infer a type from (create the table explicitly)", ErrSchema, name)
}

func refIsJSONNull(raw json.RawMessage) bool {
	return len(raw) == 0 || strings.TrimSpace(string(raw)) == "null"
}

// refChunkFromRows converts row objects into a columnar chunk matching
// schema. Missing keys and explicit nulls set the NULL mask; unknown
// keys and type mismatches are errors.
func refChunkFromRows(schema []btrblocks.Column, rows []map[string]json.RawMessage) (btrblocks.Chunk, error) {
	chunk := emptyChunkFor(schema)
	known := make(map[string]bool, len(schema))
	for i := range schema {
		known[schema[i].Name] = true
	}
	for r, row := range rows {
		for k := range row {
			if !known[k] {
				return chunk, fmt.Errorf("%w: row %d has unknown column %q", ErrSchema, r, k)
			}
		}
		for i := range chunk.Columns {
			col := &chunk.Columns[i]
			raw, ok := row[col.Name]
			if !ok || refIsJSONNull(raw) {
				refSetNullRow(col, r)
				continue
			}
			if err := refAppendValue(col, raw); err != nil {
				return chunk, fmt.Errorf("row %d column %q: %w", r, col.Name, err)
			}
		}
	}
	return chunk, nil
}

// refSetNullRow appends a NULL slot (zero value + mask bit) at row r.
func refSetNullRow(col *btrblocks.Column, r int) {
	switch col.Type {
	case btrblocks.TypeInt:
		col.Ints = append(col.Ints, 0)
	case btrblocks.TypeInt64:
		col.Ints64 = append(col.Ints64, 0)
	case btrblocks.TypeDouble:
		col.Doubles = append(col.Doubles, 0)
	case btrblocks.TypeString:
		col.Strings = col.Strings.Append("")
	}
	if col.Nulls == nil {
		col.Nulls = btrblocks.NewNullMask()
	}
	col.Nulls.SetNull(r)
}

func refAppendValue(col *btrblocks.Column, raw json.RawMessage) error {
	s := strings.TrimSpace(string(raw))
	switch col.Type {
	case btrblocks.TypeInt:
		v, err := strconv.ParseInt(s, 10, 32)
		if err != nil {
			return fmt.Errorf("%w: %s as int32", ErrBadValue, s)
		}
		col.Ints = append(col.Ints, int32(v))
	case btrblocks.TypeInt64:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: %s as int64", ErrBadValue, s)
		}
		col.Ints64 = append(col.Ints64, v)
	case btrblocks.TypeDouble:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("%w: %s as double", ErrBadValue, s)
		}
		col.Doubles = append(col.Doubles, v)
	case btrblocks.TypeString:
		var v string
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("%w: %s as string", ErrBadValue, s)
		}
		col.Strings = col.Strings.Append(v)
	}
	return nil
}

// refParseLineProtocol parses the text/plain append format: one row per
// line, `table field=value,field=value,...`. Value syntax: `123i` is a
// 64-bit integer, a bare number is a double, and `"..."` (with \" and
// \\ escapes) is a string. Blank lines and #-comments are skipped.
// All lines must target the same table (one batch, one WAL record).
func refParseLineProtocol(body string) (table string, rows []map[string]json.RawMessage, err error) {
	for ln, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp <= 0 {
			return "", nil, fmt.Errorf("line %d: want `table field=value,...`", ln+1)
		}
		t := line[:sp]
		if table == "" {
			table = t
		} else if t != table {
			return "", nil, fmt.Errorf("line %d: mixed tables %q and %q in one batch", ln+1, table, t)
		}
		row, err := refParseLineFields(line[sp+1:])
		if err != nil {
			return "", nil, fmt.Errorf("line %d: %v", ln+1, err)
		}
		rows = append(rows, row)
	}
	if table == "" {
		return "", nil, ErrEmptyBatch
	}
	return table, rows, nil
}

// refParseLineFields splits `a=1i,b=2.5,c="x,y"` respecting quoted commas.
func refParseLineFields(s string) (map[string]json.RawMessage, error) {
	row := map[string]json.RawMessage{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("want field=value near %q", s)
		}
		name := s[:eq]
		s = s[eq+1:]
		var raw json.RawMessage
		if len(s) > 0 && s[0] == '"' {
			val, rest, err := refScanQuoted(s)
			if err != nil {
				return nil, err
			}
			enc, _ := json.Marshal(val)
			raw = enc
			s = rest
		} else {
			end := strings.IndexByte(s, ',')
			tok := s
			if end >= 0 {
				tok = s[:end]
			}
			switch {
			case strings.HasSuffix(tok, "i"):
				n := strings.TrimSuffix(tok, "i")
				if _, err := strconv.ParseInt(n, 10, 64); err != nil {
					return nil, fmt.Errorf("bad integer %q", tok)
				}
				raw = json.RawMessage(n)
			case tok == "null":
				raw = json.RawMessage("null")
			default:
				if _, err := strconv.ParseFloat(tok, 64); err != nil {
					return nil, fmt.Errorf("bad number %q", tok)
				}
				raw = json.RawMessage(tok)
			}
			s = s[len(tok):]
		}
		if _, dup := row[name]; dup {
			return nil, fmt.Errorf("duplicate field %q", name)
		}
		row[name] = raw
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("want ',' near %q", s)
			}
			s = s[1:]
		}
	}
	if len(row) == 0 {
		return nil, fmt.Errorf("row has no fields")
	}
	return row, nil
}

// refScanQuoted consumes a leading double-quoted string with \" and \\
// escapes and returns the unescaped value and the remainder.
func refScanQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			i++
			b.WriteByte(s[i])
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated string in %q", s)
}
