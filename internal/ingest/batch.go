package ingest

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"btrblocks"
	"btrblocks/coldata"
)

// Sentinel errors of the ingest validation layer; returned wrapped with
// context, so test with errors.Is. The HTTP layer maps them to 400.
var (
	// ErrSchema is returned when a batch does not match the table's
	// registered schema (column set, order, or types).
	ErrSchema = errors.New("ingest: batch does not match table schema")
	// ErrBadValue is returned when a row value cannot be represented in
	// its column's type (e.g. a fractional number in an integer column).
	ErrBadValue = errors.New("ingest: value does not fit column type")
	// ErrBadName is returned for table or column names outside
	// [A-Za-z0-9_.-] — names become file paths, so they are restricted.
	ErrBadName = errors.New("ingest: invalid table or column name")
	// ErrEmptyBatch is returned for appends with no rows.
	ErrEmptyBatch = errors.New("ingest: empty batch")
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// validName reports whether s is safe to embed in a file name.
func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

// ColumnSpec is one column of a table schema.
type ColumnSpec struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// parseType maps the wire type names to btrblocks types.
func parseType(s string) (btrblocks.Type, error) {
	switch strings.ToLower(s) {
	case "int", "int32", "integer":
		return btrblocks.TypeInt, nil
	case "int64", "bigint":
		return btrblocks.TypeInt64, nil
	case "double", "float", "float64":
		return btrblocks.TypeDouble, nil
	case "string", "text":
		return btrblocks.TypeString, nil
	}
	return 0, fmt.Errorf("%w: unknown type %q", ErrSchema, s)
}

// typeName is the inverse of parseType, used by markers and stats.
func typeName(t btrblocks.Type) string {
	switch t {
	case btrblocks.TypeInt:
		return "int"
	case btrblocks.TypeInt64:
		return "int64"
	case btrblocks.TypeDouble:
		return "double"
	case btrblocks.TypeString:
		return "string"
	}
	return "invalid"
}

// schemaOf extracts the name/type prototypes of a chunk's columns.
func schemaOf(chunk *btrblocks.Chunk) []btrblocks.Column {
	out := make([]btrblocks.Column, len(chunk.Columns))
	for i := range chunk.Columns {
		out[i] = btrblocks.Column{Name: chunk.Columns[i].Name, Type: chunk.Columns[i].Type}
	}
	return out
}

// schemaMatches reports whether a batch's columns equal the registered
// schema in count, order, name and type.
func schemaMatches(schema []btrblocks.Column, chunk *btrblocks.Chunk) error {
	if len(chunk.Columns) != len(schema) {
		return fmt.Errorf("%w: batch has %d columns, table has %d",
			ErrSchema, len(chunk.Columns), len(schema))
	}
	for i := range schema {
		if chunk.Columns[i].Name != schema[i].Name || chunk.Columns[i].Type != schema[i].Type {
			return fmt.Errorf("%w: column %d is %s %s, table has %s %s",
				ErrSchema, i, chunk.Columns[i].Name, chunk.Columns[i].Type,
				schema[i].Name, schema[i].Type)
		}
	}
	return nil
}

// appendColumn appends src's values onto dst of the same type. dst grows
// in place; NULL positions are rebased by dst's current length.
func appendColumn(d, s *btrblocks.Column) {
	base := d.Len()
	switch s.Type {
	case btrblocks.TypeInt:
		d.Ints = append(d.Ints, s.Ints...)
	case btrblocks.TypeInt64:
		d.Ints64 = append(d.Ints64, s.Ints64...)
	case btrblocks.TypeDouble:
		d.Doubles = append(d.Doubles, s.Doubles...)
	case btrblocks.TypeString:
		if n := s.Len(); n > 0 {
			src, dst := &s.Strings, &d.Strings
			if len(dst.Offsets) == 0 {
				dst.Offsets = append(dst.Offsets, 0)
			}
			lo, at := src.Offsets[0], uint32(len(dst.Data))
			dst.Data = append(dst.Data, src.Data[lo:src.Offsets[n]]...)
			for _, o := range src.Offsets[1:] {
				dst.Offsets = append(dst.Offsets, at+o-lo)
			}
		}
	}
	s.Nulls.ForEachNull(func(p int) bool {
		if d.Nulls == nil {
			d.Nulls = btrblocks.NewNullMask()
		}
		d.Nulls.SetNull(base + p)
		return true
	})
}

// reserveColumn sizes the empty column d for rows values, a string
// column's data for dataLen bytes.
func reserveColumn(d *btrblocks.Column, rows, dataLen int) {
	switch d.Type {
	case btrblocks.TypeInt:
		d.Ints = make([]int32, 0, rows)
	case btrblocks.TypeInt64:
		d.Ints64 = make([]int64, 0, rows)
	case btrblocks.TypeDouble:
		d.Doubles = make([]float64, 0, rows)
	case btrblocks.TypeString:
		d.Strings = coldata.NewStringsBuilder(rows, dataLen)
	}
}

// concatChunk returns batches, which hold rows rows, as one chunk: the
// batch itself when there is one, else a copy with each column allocated
// once.
func concatChunk(batches []*btrblocks.Chunk, rows int) btrblocks.Chunk {
	if len(batches) == 1 {
		return *batches[0]
	}
	cols := emptyChunkFor(batches[0].Columns).Columns
	for c := range cols {
		dataLen := 0
		for _, b := range batches {
			dataLen += len(b.Columns[c].Strings.Data)
		}
		reserveColumn(&cols[c], rows, dataLen)
		for _, b := range batches {
			appendColumn(&cols[c], &b.Columns[c])
		}
	}
	return btrblocks.Chunk{Columns: cols}
}

// emptyChunkFor builds a zero-row chunk with the given schema.
func emptyChunkFor(schema []btrblocks.Column) btrblocks.Chunk {
	cols := make([]btrblocks.Column, len(schema))
	for i := range schema {
		cols[i] = btrblocks.Column{Name: schema[i].Name, Type: schema[i].Type}
	}
	return btrblocks.Chunk{Columns: cols}
}
