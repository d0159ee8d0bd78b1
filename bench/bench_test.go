package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"btrblocks/internal/obs"
)

// The tests run every workload at the smoke scale: same code paths,
// same verification, a quarter of the rows and a tenth of the traced
// ops. smokeSeconds is the measured phase; it is a constant, not a knob.
const (
	smokeSeconds = 1
	smokeSeed    = 7
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-*")
	if err != nil {
		panic(err)
	}
	scratchRoot = filepath.Join(dir, "tmp")
	traceDir = filepath.Join(dir, "out")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile pins the program's metric and
// workload tables to BENCHMARK.json, in both directions and in order.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v: bad or repeated name or unit", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %s: bad name or a why of %d characters", w.name, len(w.why))
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if len(bf.Command) != 2 || bf.Command[0] != "bash" || bf.Command[1] != "bench/run.sh" {
		t.Errorf("command %v, want [bash bench/run.sh]", bf.Command)
	}
}

// TestSmoke runs all workloads both ways. Set-up already fails when a
// q_* plan's answer is wrong or its compressed path does not fire, and
// runWorkload when a server hides an error or a goroutine outlives the
// teardown, so a passing run here covers those too.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(ctx, w, smokeSeed, smokeSeconds, false, smoke, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			tr, err := runWorkload(ctx, w, smokeSeed, smokeSeconds, true, smoke, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, tr, perLayer)
			// The race detector slows decoding far more than I/O, so a
			// replayed miss can outlast the handler it is nested under.
			if u := tr.Metrics["bench.unattributed_share"].Value; u > maxUnattributed && !raceBuild {
				t.Errorf("unattributed share %v", u)
			}
			checkTraceFile(t, w.name)

			val := func(name string) float64 { return tr.Metrics[name].Value }
			nonZero := func(prefix string) bool {
				for _, d := range perLayer {
					if len(d.Name) > len(prefix) && d.Name[:len(prefix)] == prefix && val(d.Name) != 0 {
						return true
					}
				}
				return false
			}
			if got, want := nonZero("cluster."), w.name == "routed"; got != want {
				t.Errorf("cluster.* non-zero = %v on %s", got, w.name)
			}
			if got, want := nonZero("ingest."), w.name == "ingest"; got != want {
				t.Errorf("ingest.* non-zero = %v on %s", got, w.name)
			}
			switch w.name {
			case "serve_warm":
				if val("blockstore.cache_hit_ratio") < 0.99 {
					t.Errorf("serve_warm cache hit ratio %v < 0.99", val("blockstore.cache_hit_ratio"))
				}
				if val("btrblocks.decode_block_us") != 0 || val("blockstore.store_miss_us") != 0 {
					t.Error("serve_warm fetches reached the decoder")
				}
				for _, p := range planNames {
					if val("query."+p+"_ms") <= 0 {
						t.Errorf("plan %s never ran", p)
					}
				}
			case "serve_cold":
				if val("blockstore.cache_hit_ratio") > 0.25 {
					t.Errorf("serve_cold cache hit ratio %v > 0.25", val("blockstore.cache_hit_ratio"))
				}
				if val("btrblocks.decode_block_us") <= 0 {
					t.Error("serve_cold never decoded")
				}
			case "routed":
				if val("cluster.failovers") != 0 {
					t.Errorf("failovers on a healthy cluster: %v", val("cluster.failovers"))
				}
				if val("cluster.legs_per_query") < 1 {
					t.Errorf("legs per query %v", val("cluster.legs_per_query"))
				}
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s missing or with unit %q", d.Name, m.Unit)
		}
	}
}

func checkTraceFile(t *testing.T, workload string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(traceDir, workload+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var set obs.SpanSet
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(set.Spans) == 0 {
		t.Fatal("empty trace")
	}
}

// TestSeedDiscipline: the seed is the only source of randomness. Equal
// seeds give the same op sequence, stored ratio and every count that
// does not depend on background timing; another seed gives another
// sequence.
func TestSeedDiscipline(t *testing.T) {
	ctx := context.Background()
	w, _ := findWorkload("serve_warm")
	run := func(seed int64, trace bool) *result {
		res, err := runWorkload(ctx, w, seed, smokeSeconds, trace, smoke, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(smokeSeed, true), run(smokeSeed, true), run(smokeSeed+1, true)
	if a.digest != b.digest {
		t.Errorf("same seed, digests %x and %x", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds %d and %d give the same op sequence", smokeSeed, smokeSeed+1)
	}
	for _, name := range []string{
		"query.blocks_scanned_per_query", "query.decoded_fallback_share", "metadata.blocks_pruned_share",
		"blockstore.cache_hit_ratio", "blockstore.wire_bytes_per_value_byte", "obs.spans_per_request",
		"blockstore.cache_evictions", "blockstore.decoded_blocks",
	} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	x, y := run(smokeSeed, false), run(smokeSeed, false)
	if x.Metrics["stored_ratio"] != y.Metrics["stored_ratio"] || x.digest != a.digest {
		t.Errorf("same seed: stored_ratio %v and %v, digests %x and %x",
			x.Metrics["stored_ratio"].Value, y.Metrics["stored_ratio"].Value, x.digest, a.digest)
	}
}

func TestCompare(t *testing.T) {
	set := func(p50 float64, failed int64) map[string]*result {
		v := values{}
		for _, d := range endToEnd {
			v[d.Name] = 10
		}
		v["op_p50_ms"] = p50
		return map[string]*result{"w": {Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: report(endToEnd, v)}}
	}
	bound := endToEnd[0].Bound // of op_p50_ms, lower is better
	for _, tc := range []struct {
		name string
		b    map[string]*result
		want int
	}{
		{"same", set(10, 0), 0},
		{"inside the bound", set(10*(1+bound)-0.1, 0), 0},
		{"outside the bound", set(10*(1+bound)+0.1, 0), 1},
		{"better", set(5, 0), 0},
		{"more failed ops", set(10, 1), 1},
		{"workload missing", map[string]*result{}, 1},
	} {
		if got := diffRunSets(set(10, 0), tc.b, io.Discard); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestFoldWindows(t *testing.T) {
	// Ten one-second windows of 100 ops of 1 ms and 1000 bytes each; one
	// window stalls (a tenth of the ops, ten times as slow, an RSS spike).
	// The stalled window is among those the trimmed mean drops; the p99,
	// read off the whole phase, is where the stall shows.
	res := loopResult{wall: statWindows * 1e9}
	for w := 0; w < statWindows; w++ {
		n, ns := 100, int64(1e6)
		if w == 3 {
			n, ns = 10, 1e7
		}
		for i := 0; i < n; i++ {
			res.samples = append(res.samples, sample{ns, int64(w)*1e9 + int64(i)*1e6, 1000})
		}
		res.rssMB = append(res.rssMB, rssSample{int64(w) * 1e9, 100})
	}
	res.rssMB = append(res.rssMB, rssSample{3.5e9, 900})
	got := foldWindows(res)
	got.mbPerS = math.Round(got.mbPerS*1e9) / 1e9
	want := windowStats{p50ms: 1, p99ms: 10, opsPerS: 100, mbPerS: 0.1, peakRSSMB: 100}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if m := trimmedMean([]float64{9, 1, 2, 3, 100}); m != 14.0/3 {
		t.Errorf("trimmed mean %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, layer: "client", start: 0, end: 100},
		{id: 2, parent: 1, layer: "blockstore", start: 10, end: 70},
		{id: 3, parent: 2, layer: "blockstore", start: 200, end: 290, replay: true}, // claims 90 of a 60 parent
	}
	self, over := selfTimes(spans)
	if self[1] != 40 || self[2] != 0 || self[3] != 90 || over != 30 {
		t.Errorf("self=%v over=%d", self, over)
	}
}
