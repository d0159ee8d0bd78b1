package btrblocks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// The agreement table: every entry point that reads a container, run on
// the same damaged copies of one small file per container kind and
// version. Each row records every entry point's outcome:
//
//	ok       accepted
//	corrupt  rejected with ErrCorrupt (neither subclass)
//	trunc    rejected with ErrTruncatedFile
//	crc      rejected with ErrChecksumMismatch
//	v1       rejected with ErrAppendVersion (a v1 stream cannot be appended to)
//	other    rejected with an error outside ErrCorrupt (an unsupported version)
//	bad      Verify's report is not OK (a report carries no error class)
//	panic    the entry point panicked
//
// The entry points are inspect (Inspect), verify (Verify with Deep),
// index (ParseColumnIndex, then DecompressColumn), decode (DecodeFile,
// then DecompressChunk), reader (NewReader, then Next to io.EOF) and
// append (NewAppendWriter).
type agreeCase struct {
	kind FileKind
	ver  byte
	edit string
	want string
}

var agreeCases = []agreeCase{
	{FileKindColumn, 1, "pristine", "inspect=ok verify=ok index=ok"},
	{FileKindColumn, 1, "bad magic", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "version 0", "inspect=other verify=bad index=other"},
	{FileKindColumn, 1, "version 3", "inspect=other verify=bad index=other"},
	{FileKindColumn, 1, "cut after magic", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "cut after version", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "cut after name length", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "cut after name", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "cut after block count", "inspect=trunc verify=bad index=trunc"},
	{FileKindColumn, 1, "cut after block header", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "cut after data length", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "cut after block data", "inspect=trunc verify=bad index=trunc"},
	{FileKindColumn, 1, "overrun", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 1, "trailing byte", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "pristine", "inspect=ok verify=ok index=ok"},
	{FileKindColumn, 2, "bad magic", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "version 0", "inspect=other verify=bad index=other"},
	{FileKindColumn, 2, "version 3", "inspect=other verify=bad index=other"},
	{FileKindColumn, 2, "cut after magic", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "cut after version", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "cut after name length", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "cut after name", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "cut after block count", "inspect=trunc verify=bad index=trunc"},
	{FileKindColumn, 2, "cut after block header", "inspect=trunc verify=bad index=trunc"},
	{FileKindColumn, 2, "cut after data length", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "cut after block data", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "cut after block checksum", "inspect=trunc verify=bad index=trunc"},
	{FileKindColumn, 2, "cut before file checksum", "inspect=trunc verify=bad index=trunc"},
	{FileKindColumn, 2, "overrun", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindColumn, 2, "trailing byte", "inspect=corrupt verify=bad index=corrupt"},
	{FileKindChunk, 1, "pristine", "inspect=ok verify=ok decode=ok"},
	{FileKindChunk, 1, "bad magic", "inspect=corrupt verify=bad decode=corrupt"},
	{FileKindChunk, 1, "version 0", "inspect=other verify=bad decode=other"},
	{FileKindChunk, 1, "version 3", "inspect=other verify=bad decode=other"},
	{FileKindChunk, 1, "cut after magic", "inspect=corrupt verify=bad decode=corrupt"},
	{FileKindChunk, 1, "cut after version", "inspect=corrupt verify=bad decode=corrupt"},
	{FileKindChunk, 1, "cut after column count", "inspect=trunc verify=bad decode=trunc"},
	{FileKindChunk, 1, "cut after length table", "inspect=trunc verify=bad decode=trunc"},
	{FileKindChunk, 1, "cut after first column", "inspect=trunc verify=bad decode=trunc"},
	{FileKindChunk, 1, "overrun", "inspect=trunc verify=bad decode=trunc"},
	{FileKindChunk, 1, "trailing byte", "inspect=corrupt verify=bad decode=corrupt"},
	{FileKindChunk, 2, "pristine", "inspect=ok verify=ok decode=ok"},
	{FileKindChunk, 2, "bad magic", "inspect=corrupt verify=bad decode=corrupt"},
	{FileKindChunk, 2, "version 0", "inspect=other verify=bad decode=other"},
	{FileKindChunk, 2, "version 3", "inspect=other verify=bad decode=other"},
	{FileKindChunk, 2, "cut after magic", "inspect=corrupt verify=bad decode=corrupt"},
	{FileKindChunk, 2, "cut after version", "inspect=corrupt verify=bad decode=corrupt"},
	{FileKindChunk, 2, "cut after column count", "inspect=trunc verify=bad decode=trunc"},
	{FileKindChunk, 2, "cut after length table", "inspect=crc verify=bad decode=crc"},
	{FileKindChunk, 2, "cut after first column", "inspect=crc verify=bad decode=crc"},
	{FileKindChunk, 2, "cut before file checksum", "inspect=crc verify=bad decode=crc"},
	{FileKindChunk, 2, "overrun", "inspect=crc verify=bad decode=crc"},
	{FileKindChunk, 2, "trailing byte", "inspect=crc verify=bad decode=crc"},
	{FileKindStream, 1, "pristine", "inspect=ok verify=ok reader=ok append=v1"},
	{FileKindStream, 1, "bad magic", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "version 0", "inspect=other verify=bad reader=other append=other"},
	{FileKindStream, 1, "version 3", "inspect=other verify=bad reader=other append=other"},
	{FileKindStream, 1, "cut after magic", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after version", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after column count", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after schema type", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after schema name length", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after schema", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after frame tag", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after frame length", "inspect=trunc verify=bad reader=trunc append=trunc"},
	{FileKindStream, 1, "cut inside chunk", "inspect=trunc verify=bad reader=trunc append=trunc"},
	{FileKindStream, 1, "cut after first chunk", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after footer tag", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "cut after chunk count", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "overrun", "inspect=trunc verify=bad reader=trunc append=trunc"},
	{FileKindStream, 1, "trailing byte", "inspect=corrupt verify=bad reader=ok append=corrupt"},
	{FileKindStream, 1, "schema type 200", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "schema name ≠ chunk name", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "schema type ≠ chunk type", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "footer chunkCount off by 5", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "footer rowCount = 99", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 1, "65,535-column header", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "pristine", "inspect=ok verify=ok reader=ok append=ok"},
	{FileKindStream, 2, "bad magic", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "version 0", "inspect=other verify=bad reader=other append=other"},
	{FileKindStream, 2, "version 3", "inspect=other verify=bad reader=other append=other"},
	{FileKindStream, 2, "cut after magic", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after version", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after column count", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after schema type", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after schema name length", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after schema", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after frame tag", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after frame length", "inspect=trunc verify=bad reader=trunc append=trunc"},
	{FileKindStream, 2, "cut inside chunk", "inspect=trunc verify=bad reader=trunc append=trunc"},
	{FileKindStream, 2, "cut after first chunk", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after footer tag", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut after chunk count", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "cut before stream checksum", "inspect=trunc verify=bad reader=trunc append=trunc"},
	{FileKindStream, 2, "overrun", "inspect=trunc verify=bad reader=trunc append=trunc"},
	{FileKindStream, 2, "trailing byte", "inspect=corrupt verify=bad reader=ok append=corrupt"},
	{FileKindStream, 2, "schema type 200", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "schema name ≠ chunk name", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "schema type ≠ chunk type", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "footer chunkCount off by 5", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "footer rowCount = 99", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
	{FileKindStream, 2, "65,535-column header", "inspect=corrupt verify=bad reader=corrupt append=corrupt"},
}

// agreeEntries lists, per container kind, the entry points that read it.
var agreeEntries = map[FileKind][]string{
	FileKindColumn: {"inspect", "verify", "index"},
	FileKindChunk:  {"inspect", "verify", "decode"},
	FileKindStream: {"inspect", "verify", "reader", "append"},
}

func TestContainerReadersAgree(t *testing.T) {
	for _, tc := range agreeCases {
		name := fmt.Sprintf("%s/v%d/%s", tc.kind, tc.ver, tc.edit)
		t.Run(name, func(t *testing.T) {
			data := agreeEdit(t, tc.kind, tc.ver, tc.edit)
			got := agreeOutcomes(tc.kind, data)
			if got != tc.want {
				t.Fatalf("outcomes\n got %s\nwant %s", got, tc.want)
			}
			// Every entry point accepts or every one rejects, but for two
			// outcomes: NewAppendWriter refuses an intact v1 stream by
			// design, and a Reader cannot see bytes after a stream's final
			// checksum (FORMAT.md §2.4).
			accepts := map[bool][]string{}
			for _, field := range strings.Fields(got) {
				entry, outcome, _ := strings.Cut(field, "=")
				if outcome == "v1" || entry == "reader" && tc.edit == "trailing byte" {
					continue
				}
				accepts[outcome == "ok"] = append(accepts[outcome == "ok"], entry)
			}
			if len(accepts) > 1 {
				t.Fatalf("%v accept, %v reject", accepts[true], accepts[false])
			}
		})
	}
}

// agreeOutcomes runs every entry point of kind on data and formats the
// outcomes as a row's want string.
func agreeOutcomes(kind FileKind, data []byte) string {
	var out []string
	for _, entry := range agreeEntries[kind] {
		out = append(out, entry+"="+agreeOutcome(entry, data))
	}
	return strings.Join(out, " ")
}

// agreeOutcome runs one entry point on data.
func agreeOutcome(entry string, data []byte) (outcome string) {
	defer func() {
		if recover() != nil {
			outcome = "panic"
		}
	}()
	switch entry {
	case "inspect":
		_, err := Inspect(data)
		return agreeClass(err)
	case "verify":
		if !Verify(data, &VerifyOptions{Deep: true}).OK {
			return "bad"
		}
		return "ok"
	case "index":
		_, err := ParseColumnIndex(data)
		if err == nil {
			_, err = DecompressColumn(data, nil)
		}
		return agreeClass(err)
	case "decode":
		cc, err := DecodeFile(data)
		if err == nil {
			_, err = DecompressChunk(cc, nil)
		}
		return agreeClass(err)
	case "reader":
		return agreeClass(readToEOF(data, &Options{Parallelism: 1}))
	}
	_, err := NewAppendWriter(&memFile{data: append([]byte(nil), data...)}, nil)
	return agreeClass(err)
}

// readToEOF reads a stream chunk by chunk and returns the first error
// other than io.EOF.
func readToEOF(data []byte, opt *Options) error {
	r, err := NewReader(bytes.NewReader(data), opt)
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func agreeClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrChecksumMismatch):
		return "crc"
	case errors.Is(err, ErrTruncatedFile):
		return "trunc"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrAppendVersion):
		return "v1"
	}
	return "other"
}

// agreeFixture is the pristine file of a row: a 3,000-row int column with
// NULLs in two 2,000-row blocks; a chunk of it and a string column; or a
// stream of two 1,500-row chunks of those two columns.
func agreeFixture(t *testing.T, kind FileKind, ver byte) []byte {
	t.Helper()
	opt := &Options{BlockSize: 2000, FormatVersion: int(ver)}
	cols := func(n int) []Column {
		ints := make([]int32, n)
		strs := make([]string, n)
		nulls := NewNullMask()
		for i := range ints {
			ints[i] = int32(i % 7)
			strs[i] = []string{"lima", "oslo", "kyiv"}[i%3]
			if i%100 == 0 {
				nulls.SetNull(i)
			}
		}
		ic := IntColumn("i", ints)
		ic.Nulls = nulls
		return []Column{ic, StringColumn("s", strs)}
	}
	switch kind {
	case FileKindColumn:
		data, err := CompressColumn(cols(3000)[0], opt)
		if err != nil {
			t.Fatal(err)
		}
		return data
	case FileKindChunk:
		cc, err := CompressChunk(&Chunk{Columns: cols(3000)}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return cc.EncodeFile()
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cols(0), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.WriteChunk(&Chunk{Columns: cols(1500)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// agreeEdit returns the fixture of kind and ver damaged as edit names.
// Framing offsets come from Inspect on the pristine file.
func agreeEdit(t *testing.T, kind FileKind, ver byte, edit string) []byte {
	t.Helper()
	data := agreeFixture(t, kind, ver)
	fi, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data)
	put32 := func(at, v int) []byte {
		binary.LittleEndian.PutUint32(data[at:], uint32(v))
		return data
	}
	// The stream rows that edit a field refresh the stream checksum, so
	// only the edited rule can reject them.
	refresh := func(data []byte) []byte {
		if ver >= formatVersion2 {
			binary.LittleEndian.PutUint32(data[len(data)-crcBytes:], crc32c(data[:len(data)-crcBytes]))
		}
		return data
	}
	cut := map[string]int{"cut after magic": 4, "cut after version": 5}
	switch kind {
	case FileKindColumn:
		c, b := fi.Columns[0], fi.Columns[0].Blocks[0]
		cut["cut after name length"] = 8
		cut["cut after name"] = 8 + len(c.Name)
		cut["cut after block count"] = c.HeaderBytes
		cut["cut after block header"] = b.Offset + 8
		cut["cut after data length"] = b.Offset + blockHeaderBytes + b.NullBytes
		cut["cut after block data"] = b.Offset + blockHeaderBytes + b.NullBytes + b.DataBytes
		cut["cut after block checksum"] = b.Offset + b.Size
		cut["cut before file checksum"] = n - crcBytes
	case FileKindChunk:
		cut["cut after column count"] = 7
		cut["cut after length table"] = fi.HeaderBytes
		cut["cut after first column"] = fi.HeaderBytes + fi.Columns[0].Size
		cut["cut before file checksum"] = n - crcBytes
	case FileKindStream:
		footer := n - fi.FooterBytes - fi.ChecksumBytes
		cut["cut after column count"] = 7
		cut["cut after schema type"] = 8
		cut["cut after schema name length"] = 10
		cut["cut after schema"] = fi.HeaderBytes
		cut["cut after frame tag"] = fi.Chunks[0].Offset + 1
		cut["cut after frame length"] = fi.Chunks[0].Offset + 5
		cut["cut inside chunk"] = fi.Chunks[0].Offset + fi.Chunks[0].Size/2
		cut["cut after first chunk"] = fi.Chunks[1].Offset
		cut["cut after footer tag"] = footer + 1
		cut["cut after chunk count"] = footer + 5
		cut["cut before stream checksum"] = footer + 13
	}
	if at, ok := cut[edit]; ok {
		return data[:at]
	}
	switch edit {
	case "pristine":
		return data
	case "bad magic":
		data[0] = 'X'
		return data
	case "version 0", "version 3":
		data[4] = edit[len(edit)-1] - '0'
		return data
	case "trailing byte":
		return append(data, 0)
	case "overrun":
		// The first length field past the header: block 0's data length,
		// column 0's length-table entry, or chunk frame 0's length.
		switch kind {
		case FileKindColumn:
			b := fi.Columns[0].Blocks[0]
			return put32(b.Offset+8+b.NullBytes, n)
		case FileKindChunk:
			return put32(7, n)
		}
		return put32(fi.Chunks[0].Offset+1, n)
	case "schema type 200":
		data[7] = 200
		return refresh(data)
	case "schema name ≠ chunk name":
		data[10] = 'j'
		return refresh(data)
	case "schema type ≠ chunk type":
		data[7] = byte(TypeInt64)
		return refresh(data)
	case "footer chunkCount off by 5":
		footer := n - fi.FooterBytes - fi.ChecksumBytes
		return refresh(put32(footer+1, len(fi.Chunks)+5))
	case "footer rowCount = 99":
		footer := n - fi.FooterBytes - fi.ChecksumBytes
		binary.LittleEndian.PutUint64(data[footer+5:], 99)
		return refresh(data)
	case "65,535-column header":
		return []byte{'B', 'T', 'R', 'S', ver, 0xff, 0xff}
	}
	t.Fatalf("unknown edit %q", edit)
	return nil
}

// memFile is an in-memory io.ReadWriteSeeker for NewAppendWriter.
type memFile struct {
	data []byte
	off  int
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if end := f.off + len(p); end > len(f.data) {
		f.data = append(f.data[:f.off], make([]byte, end-f.off)...)
	}
	n := copy(f.data[f.off:], p)
	f.off += n
	return n, nil
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		f.off = int(off)
	case io.SeekCurrent:
		f.off += int(off)
	case io.SeekEnd:
		f.off = len(f.data) + int(off)
	}
	return int64(f.off), nil
}
