package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"btrblocks"
)

func testChunk(vals ...int64) *btrblocks.Chunk {
	col := btrblocks.Column{Name: "v", Type: btrblocks.TypeInt64, Ints64: vals}
	return &btrblocks.Chunk{Columns: []btrblocks.Column{col}}
}

func TestWALPayloadRoundTrip(t *testing.T) {
	chunk := &btrblocks.Chunk{Columns: []btrblocks.Column{
		{Name: "a", Type: btrblocks.TypeInt, Ints: []int32{1, -2, 3}},
		{Name: "b", Type: btrblocks.TypeInt64, Ints64: []int64{10, 20, 30}},
		{Name: "c", Type: btrblocks.TypeDouble, Doubles: []float64{1.5, 0, -2.25}},
		{Name: "s", Type: btrblocks.TypeString},
	}}
	for _, v := range []string{"x", "", "hello, wal"} {
		chunk.Columns[3].Strings = chunk.Columns[3].Strings.Append(v)
	}
	chunk.Columns[2].Nulls = btrblocks.NewNullMask()
	chunk.Columns[2].Nulls.SetNull(1)

	payload := encodeWALPayload(42, "metrics", chunk)
	rec, err := decodeWALPayload(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.Seq != 42 || rec.Table != "metrics" {
		t.Fatalf("got seq=%d table=%q", rec.Seq, rec.Table)
	}
	if got := rec.Chunk.NumRows(); got != 3 {
		t.Fatalf("rows = %d, want 3", got)
	}
	if rec.Chunk.Columns[0].Ints[1] != -2 || rec.Chunk.Columns[1].Ints64[2] != 30 {
		t.Fatal("int values corrupted")
	}
	if rec.Chunk.Columns[2].Doubles[2] != -2.25 {
		t.Fatal("double values corrupted")
	}
	if !rec.Chunk.Columns[2].Nulls.IsNull(1) || rec.Chunk.Columns[2].Nulls.IsNull(0) {
		t.Fatal("null mask corrupted")
	}
	if rec.Chunk.Columns[3].Strings.At(2) != "hello, wal" {
		t.Fatal("string values corrupted")
	}
}

func TestWALPayloadDecodeRejectsGarbage(t *testing.T) {
	payload := encodeWALPayload(1, "t", testChunk(1, 2, 3))
	for cut := 0; cut < len(payload); cut += 3 {
		if _, err := decodeWALPayload(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, NewMetrics(), func(*walRecord) error { t.Fatal("unexpected replay"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		_, off, gen, err := w.append("t", testChunk(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.syncTo(off.end(), gen); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	var got []int64
	met := NewMetrics()
	w2, err := openWAL(dir, met, func(rec *walRecord) error {
		got = append(got, rec.Chunk.Columns[0].Ints64...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(got) != 5 {
		t.Fatalf("replayed %d rows, want 5: %v", len(got), got)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
	if w2.nextSeq != 6 {
		t.Fatalf("nextSeq = %d, want 6", w2.nextSeq)
	}
}

// activeSegment returns the highest-numbered WAL segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best := ""
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "%08d.wal", &n); err == nil {
			if best == "" || e.Name() > best {
				best = e.Name()
			}
		}
	}
	if best == "" {
		t.Fatal("no WAL segment found")
	}
	return filepath.Join(dir, best)
}

func TestWALTornTailsDiscarded(t *testing.T) {
	tears := map[string]func([]byte) []byte{
		"partial frame header": func(b []byte) []byte { return append(b, walRecTag, 0x10) },
		"length past EOF": func(b []byte) []byte {
			b = append(b, walRecTag)
			b = binary.LittleEndian.AppendUint32(b, 1000)
			b = binary.LittleEndian.AppendUint32(b, 0xdead)
			return append(b, "short"...)
		},
		"crc mismatch": func(b []byte) []byte {
			payload := encodeWALPayload(99, "t", testChunk(99))
			b = append(b, walRecTag)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
			b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli)+1)
			return append(b, payload...)
		},
		"bad tag":       func(b []byte) []byte { return append(b, 'Z', 1, 2, 3) },
		"truncated mid": func(b []byte) []byte { return b[:len(b)-3] },
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(dir, NewMetrics(), func(*walRecord) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 3; i++ {
				_, off, gen, err := w.append("t", testChunk(i))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.syncTo(off.end(), gen); err != nil {
					t.Fatal(err)
				}
			}
			w.crash()

			seg := activeSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			var got []int64
			met := NewMetrics()
			w2, err := openWAL(dir, met, func(rec *walRecord) error {
				got = append(got, rec.Chunk.Columns[0].Ints64...)
				return nil
			})
			if err != nil {
				t.Fatalf("reopen after tear: %v", err)
			}
			defer w2.close()
			// "truncated mid" cuts into record 3's synced bytes; the other
			// tears leave all 3 records intact and damage only the tail.
			want := 3
			if name == "truncated mid" {
				want = 2
			}
			if len(got) != want {
				t.Fatalf("replayed %d records, want %d (%v)", len(got), want, got)
			}
			if met.WALDiscardedTails.Load() == 0 {
				t.Fatal("discarded-tail metric not counted")
			}
			// New appends must go to a fresh segment and survive.
			if _, off, gen, err := w2.append("t", testChunk(50)); err != nil {
				t.Fatal(err)
			} else if err := w2.syncTo(off.end(), gen); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWALCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, NewMetrics(), func(*walRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, off, gen, err := w.append("t", testChunk(1)); err != nil {
		t.Fatal(err)
	} else if err := w.syncTo(off.end(), gen); err != nil {
		t.Fatal(err)
	}
	before := activeSegment(t, dir)
	if err := w.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(before); !os.IsNotExist(err) {
		t.Fatalf("old segment %s not pruned (err=%v)", before, err)
	}
	// Records appended after the checkpoint land in the new segment.
	if _, off, gen, err := w.append("t", testChunk(2)); err != nil {
		t.Fatal(err)
	} else if err := w.syncTo(off.end(), gen); err != nil {
		t.Fatal(err)
	}
	if w.size() <= int64(walHeaderLen) {
		t.Fatal("new segment holds no records")
	}
}

func TestWALSeqMonotonicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w, _ := openWAL(dir, NewMetrics(), func(*walRecord) error { return nil })
	seq1, off, gen, err := w.append("t", testChunk(1))
	if err != nil {
		t.Fatal(err)
	}
	w.syncTo(off.end(), gen)
	w.close()

	w2, err := openWAL(dir, NewMetrics(), func(*walRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	seq2, _, _, err := w2.append("t", testChunk(2))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Fatalf("sequence went backwards: %d then %d", seq1, seq2)
	}
}
