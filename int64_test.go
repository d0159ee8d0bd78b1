package btrblocks

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInt64ColumnRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	rng := rand.New(rand.NewSource(1))
	base := int64(1_700_000_000_000) // epoch milliseconds
	values := make([]int64, 150000)  // multiple blocks
	for i := range values {
		values[i] = base + int64(i)*1000 + int64(rng.Intn(999))
	}
	col := Int64Column("event_time", values)
	data, err := CompressColumn(col, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(col.UncompressedBytes()) / float64(len(data)); ratio < 1.5 {
		t.Fatalf("timestamps compressed only %.2fx", ratio)
	}
	got, err := DecompressColumn(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeInt64 || got.Len() != len(values) {
		t.Fatalf("shape: %v %d", got.Type, got.Len())
	}
	for i := range values {
		if got.Ints64[i] != values[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
	if ft, err := ColumnFileType(data); err != nil || ft != TypeInt64 {
		t.Fatalf("ColumnFileType = %v, %v", ft, err)
	}
}

func TestInt64NullsAndCountEqual(t *testing.T) {
	opt := DefaultOptions()
	n := 20000
	values := make([]int64, n)
	nulls := NewNullMask()
	for i := range values {
		values[i] = 7_000_000_000
		if i%4 == 0 {
			nulls.SetNull(i)
			values[i] = 999 // garbage replaced by densification
		}
	}
	col := Int64Column("x", values)
	col.Nulls = nulls
	data, err := CompressColumn(col, opt)
	if err != nil {
		t.Fatal(err)
	}
	count, err := Count(data, Int64Eq(7_000_000_000), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range values {
		if !nulls.IsNull(i) && values[i] == 7_000_000_000 {
			want++
		}
	}
	if count != want {
		t.Fatalf("count = %d, want %d", count, want)
	}
	if count, _ := Count(data, Int64Eq(999), opt); count != 0 {
		t.Fatalf("null garbage counted %d times", count)
	}
	// type mismatch
	if _, err := Count(mustCompress(t, IntColumn("i", []int32{1})), Int64Eq(1), opt); err != ErrTypeMismatch {
		t.Fatalf("err = %v", err)
	}
}

func TestInt64ChunkAndStream(t *testing.T) {
	opt := &Options{BlockSize: 2000}
	values := make([]int64, 9000)
	for i := range values {
		values[i] = int64(i) << 33
	}
	chunk := &Chunk{Columns: []Column{
		Int64Column("big", values),
		IntColumn("small", make([]int32, 9000)),
	}}
	cc, err := CompressChunk(chunk, opt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecompressChunk(cc, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if back.Columns[0].Ints64[i] != values[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
	if back.Columns[0].Type.String() != "bigint" {
		t.Fatalf("type name = %s", back.Columns[0].Type)
	}
}

func TestInt64Choose(t *testing.T) {
	opt := DefaultOptions()
	same := make([]int64, 10000)
	scheme, _ := Choose(Int64Column("c", same), opt)
	if scheme != SchemeOneValue {
		t.Fatalf("scheme = %v", scheme)
	}
}

func TestInt64Quick(t *testing.T) {
	opt := &Options{BlockSize: 300}
	f := func(values []int64) bool {
		col := Int64Column("q", values)
		data, err := CompressColumn(col, opt)
		if err != nil {
			return false
		}
		got, err := DecompressColumn(data, opt)
		if err != nil || got.Len() != len(values) {
			return false
		}
		for i := range values {
			if got.Ints64[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInt64ExtremesBitExact(t *testing.T) {
	opt := DefaultOptions()
	values := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1}
	data, err := CompressColumn(Int64Column("e", values), opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressColumn(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if got.Ints64[i] != values[i] {
			t.Fatalf("value %d: %d != %d", i, got.Ints64[i], values[i])
		}
	}
}
