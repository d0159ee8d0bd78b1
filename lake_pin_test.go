package btrblocks_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"btrblocks"
	"btrblocks/internal/pbi"
	"btrblocks/internal/tpch"
)

// lakePinSHA256 pins, per table, the bytes CompressColumn writes at the
// default Options for the benchmark's lake corpus: the five largest
// Public BI workbooks and TPC-H lineitem, 64,000 rows each, generator
// seed 42. goldenChunkSHA256 covers 800-row blocks of a small file; this
// pin covers full 64,000-row blocks of every column kind, so a change to
// the order in which scheme selection does its work that flips a decision
// or a byte anywhere in the corpus fails here. A deliberate encoding
// change regenerates it, in a commit of its own.
var lakePinSHA256 = map[string]string{
	"CommonGovernment": "a3553d0e452f64141728b50d528cff67a9aaa555964386d6366afdd7d70accea",
	"Generico":         "a8e8e7f5cfe8a7d932c030f6b25d9fd0b77518d72d91ffa4d0fd6dfe1fbb20d4",
	"Medicare1":        "0947fc88e223eeb048e088800188d8bd87bf376719a05e53644aa53fe676e7c4",
	"Physicians":       "f162abf86bacc9eb2bf3ec06360d23fda0deedc7b53eabfe778f1cdc71364a59",
	"CMSProvider":      "dcc2ab065d375e74bf5bb7f2e336c2f25218f9379a810756c75e1e66a1611667",
	"lineitem":         "a268544e2ff670e88f502d8196ea71ed1ec15c49f11319ab02e6a4a6b5b98731",
}

func TestLakeCorpusPinned(t *testing.T) {
	const rows, seed = 64000, 42
	tables := pbi.Largest5(rows, seed)
	tables = append(tables, pbi.Dataset{Name: "lineitem", Chunk: tpch.Lineitem(rows, seed)})
	for _, ds := range tables {
		h := sha256.New()
		for _, col := range ds.Chunk.Columns {
			data, err := btrblocks.CompressColumn(col, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, col.Name, err)
			}
			h.Write([]byte(col.Name))
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != lakePinSHA256[ds.Name] {
			t.Errorf("%s: compressed bytes drifted:\n got  %s\n want %s", ds.Name, got, lakePinSHA256[ds.Name])
		}
	}
}
