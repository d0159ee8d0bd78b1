package fsst_test

import (
	"bytes"
	"testing"

	"btrblocks"
	"btrblocks/internal/fsst"
	"btrblocks/internal/pbi"
	"btrblocks/internal/tpch"
)

// TestEquivalenceLakeCorpus runs both implementations over every string
// column of the benchmark's corpus (PBI Largest5 + TPC-H lineitem): the
// table trained on a column's payload and the payload's encoding must be
// byte-identical to the reference.
func TestEquivalenceLakeCorpus(t *testing.T) {
	rows := 16000
	if testing.Short() {
		rows = 2000
	}
	var cols []btrblocks.Column
	for _, ds := range pbi.Largest5(rows, 42) {
		cols = append(cols, ds.Chunk.Columns...)
	}
	cols = append(cols, tpch.Lineitem(rows, 42).Columns...)
	checked := 0
	for _, col := range cols {
		if col.Type != btrblocks.TypeString || len(col.Strings.Data) == 0 {
			continue
		}
		payload := col.Strings.Data
		sample := [][]byte{payload}
		wantTable, wantEnc := fsst.ReferenceTableAndEncoding(sample, payload)
		table := fsst.Train(sample)
		if got := table.AppendTable(nil); !bytes.Equal(got, wantTable) {
			t.Fatalf("%s: symbol table differs from the reference", col.Name)
		}
		if got := table.Encode(nil, payload); !bytes.Equal(got, wantEnc) {
			t.Fatalf("%s: encoding differs from the reference", col.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("corpus has no string columns")
	}
}
