package query

// Fuzz the plan decoder end to end: any byte string either fails with
// ErrPlan (the HTTP layer's 400) or parses into a plan that executes
// against a real compressed source without panicking, and parsing and
// running it allocate within a fixed multiple of the source's rows × 8
// plus the plan's length. The seed corpus under
// testdata/fuzz/FuzzQueryPlan covers the interesting rejects —
// malformed JSON, unknown ops, type-mismatched literals, empty IN lists
// — plus valid plans so mutation explores both sides of the boundary.

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"btrblocks"
)

var fuzzSrcOnce = sync.OnceValues(func() (MemSource, error) {
	ints := make([]int32, 1500)
	strs := make([]string, 1500)
	for i := range ints {
		ints[i] = int32(i % 97)
		strs[i] = "k-" + string(rune('a'+i%26))
	}
	colI := btrblocks.IntColumn("a", ints)
	colI.Nulls = btrblocks.NewNullMask()
	colI.Nulls.SetNull(13)
	colS := btrblocks.StringColumn("s", strs)
	copt := &btrblocks.Options{BlockSize: 500}
	src := MemSource{}
	for _, col := range []btrblocks.Column{colI, colS} {
		data, err := btrblocks.CompressColumn(col, copt)
		if err != nil {
			return nil, err
		}
		ix, err := btrblocks.ParseColumnIndex(data)
		if err != nil {
			return nil, err
		}
		src[col.Name] = &Col{Index: ix, Data: data}
	}
	return src, nil
})

func FuzzQueryPlan(f *testing.F) {
	seeds := []string{
		// Valid plans.
		`{"filter":{"op":"eq","column":"a","value":7},"rows":true}`,
		`{"filter":{"op":"range","column":"a","lo":5,"hi":50},"return":"bitmap"}`,
		`{"filter":{"op":"in","column":"a","values":[1,2,3]},"aggregates":[{"op":"sum","column":"a"}]}`,
		`{"filter":{"op":"and","children":[{"op":"notnull","column":"a"},{"op":"eq","column":"s","value":"k-c"}]}}`,
		`{"filter":{"op":"or","children":[{"op":"eq","column":"a","value":1},{"op":"eq","column":"a","value":2}]},"row_limit":5,"rows":true}`,
		`{"aggregates":[{"op":"count","column":"a"},{"op":"min","column":"s"},{"op":"max","column":"s"}]}`,
		// Malformed JSON.
		`{`,
		`{"filter":`,
		`not json at all`,
		`{"filter":{"op":"eq","column":"a","value":7}}trailing`,
		// Unknown ops and fields.
		`{"filter":{"op":"xor","children":[]}}`,
		`{"filter":{"op":"eq","column":"a","value":1},"surprise":true}`,
		`{"filter":{"op":""}}`,
		// Type-mismatched literals.
		`{"filter":{"op":"eq","column":"a","value":"not-an-int"}}`,
		`{"filter":{"op":"eq","column":"a","value":3.5}}`,
		`{"filter":{"op":"eq","column":"a","value":99999999999999999999}}`,
		`{"filter":{"op":"eq","column":"s","value":12}}`,
		`{"filter":{"op":"range","column":"s","lo":"a"}}`,
		// Empty IN list, missing pieces, unknown columns.
		`{"filter":{"op":"in","column":"a","values":[]}}`,
		`{"filter":{"op":"range","column":"a"}}`,
		`{"filter":{"op":"eq","column":"nope","value":1}}`,
		`{"filter":{"op":"and","children":[]}}`,
		`{"rows":true}`,
		`{"filter":{"op":"eq","column":"a","value":1},"return":"csv"}`,
		`{"filter":{"op":"eq","column":"a","value":1},"row_limit":-4}`,
		`{"filter":{"op":"eq","column":"a","value":1},"selection":"bm9 invalid"}`,
		// Sum over a string column binds at execution, not validation.
		`{"aggregates":[{"op":"sum","column":"s"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// A plan is the only way a literal reaches a count: every literal of
	// the cluster's count probe table, as an eq on each column type of
	// the source.
	for _, lit := range probeLiterals {
		for _, col := range []string{"a", "s"} {
			f.Add([]byte(`{"filter":{"op":"eq","column":"` + col + `","value":` + lit + `}}`))
		}
	}
	src, err := fuzzSrcOnce()
	if err != nil {
		f.Fatalf("build fuzz source: %v", err)
	}
	rows := src["a"].Index.Rows
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res *Result
		p, err := ParsePlan(data)
		if err == nil {
			e := &Executor{Source: src, Options: &btrblocks.Options{BlockSize: 500}}
			res, err = e.Run(t.Context(), p)
		}
		runtime.ReadMemStats(&after)
		bound := planAllocMultiple * (rows*8 + len(data))
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(bound) {
			t.Fatalf("plan of %d bytes over %d rows allocated %d bytes, bound %d", len(data), rows, got, bound)
		}
		if err != nil {
			if !IsPlanError(err) {
				t.Fatalf("plan error is not ErrPlan: %v (plan %s)", err, data)
			}
			return
		}
		// A successful result must serialize — it becomes the 200 body.
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("result does not marshal: %v", err)
		}
	})
}

// probeLiterals are the literals of the count probe table
// (internal/cluster's TestCountEqProbeTable), as the JSON they travel
// as.
var probeLiterals = []string{
	`5`, `42`, `2147483648`, `"abc"`, `"NaN"`, `-0`, `1e3`, `"+5"`, `"0x10"`, `" 5"`, `""`,
	`"5"`, `"42"`, `"2147483648"`, `"-0"`, `"1e3"`,
}

// planAllocMultiple bounds what parsing and running one plan may
// allocate: planAllocMultiple × (source rows × 8 + plan bytes), the
// multiple the decode fuzz targets allow (the root package's
// fuzzAllocMultiple). The seeds use at most 3.3 of it.
const planAllocMultiple = 64
