// Command benchtraj records and compares single-core throughput
// baselines, one trajectory file per suite: "decode" (BENCH_decode.json),
// "compress" (BENCH_compress.json), "serve" (BENCH_serve.json) and
// "query" (BENCH_query.json).
//
// `benchtraj record -suite decode` runs that suite's benchmarks (for
// decode: the per-scheme BenchmarkDecodeBaseline grid, whole-column and
// one- and two-worker whole-chunk decodes, plus the bitpack and FSST
// kernel microbenchmarks; for compress: the
// BenchmarkCompressBaseline grid plus FSST training/encoding and the
// block-profile pass; for serve: BenchmarkBlockWire — BTBK frame encode,
// decode and loopback fetch per type; for query: the BenchmarkSelect grid
// of selection kernels per stream × predicate × mode and the
// BenchmarkAggregate grid of folds per stream × selection), parses their
// output, and writes a schema'd JSON snapshot to the suite's file: MB/s,
// ns/op and B/op per benchmark, host metadata, and the git SHA the
// numbers were measured at.
//
// `benchtraj compare -suite decode` re-runs the same benchmarks and fails
// (exit 1) if any regressed against the suite's committed file by more
// than the tolerance — the CI tier-2 gate. The tolerance defaults to 10% and can
// be overridden with -tolerance or the BTR_BENCH_TOLERANCE environment
// variable (a fraction, e.g. 0.15). See PERFORMANCE.md for the schema
// and the baseline-refresh workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is the schema of a trajectory file (see PERFORMANCE.md).
type Snapshot struct {
	// Schema identifies the file format; bump on incompatible change.
	Schema string `json:"schema"`
	// RecordedAt is the UTC wall-clock time of the run (RFC 3339).
	RecordedAt string `json:"recorded_at"`
	// GitSHA is the commit the numbers were measured at ("unknown"
	// outside a git checkout).
	GitSHA string `json:"git_sha"`
	// GoVersion, GOOS, GOARCH, CPU, GOMAXPROCS describe the host; a
	// baseline is only comparable on a matching host.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Benchtime and Count are the `go test` knobs used. Stat is how the
	// Count repetitions were reduced: "median" for committed baselines
	// (the typical speed) and "best" for gate runs (optimistic), so the
	// regression gate only fails when even the best current run is slower
	// than the baseline's typical run by more than the tolerance.
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
	Stat      string `json:"stat"`
	// Results maps "<package>:<benchmark>" (minus the Benchmark prefix
	// and -GOMAXPROCS suffix) to its measurement.
	Results map[string]Result `json:"results"`
}

// Result is one benchmark's measurement.
type Result struct {
	// NsPerOp is time per iteration; MBps is throughput when the
	// benchmark reports bytes (0 otherwise). Regressions are judged on
	// MBps when present, NsPerOp otherwise.
	NsPerOp float64 `json:"ns_per_op"`
	MBps    float64 `json:"mbps,omitempty"`
	// BytesPerOp is the heap allocated per iteration (-benchmem's B/op):
	// recorded, not gated. Next to a decode benchmark's bytes per
	// iteration it says how many times the output was allocated.
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
}

// benchSet is one `go test -bench` invocation.
type benchSet struct {
	pkg     string // go package path
	pattern string // -bench regexp
}

// suiteDef is one trajectory: its committed file and the benchmark sets a
// snapshot of it covers.
type suiteDef struct {
	file string
	sets []benchSet
}

// suites are the trajectories by -suite name: each covers an end-to-end
// per-scheme grid plus the kernel microbenchmarks that grid is built from.
var suites = map[string]suiteDef{
	"decode": {"BENCH_decode.json", []benchSet{
		{".", "^(BenchmarkDecodeBaseline|BenchmarkDecompressColumn)$"},
		// Whole-chunk decode and compressed scans at one and two workers:
		// the second row over the first is the §6.4 scaling this host has.
		{".", "^(BenchmarkDecompressParallel|BenchmarkScanParallel)$/^workers=[12]$"},
		{"./internal/bitpack/", "^(BenchmarkUnpack|BenchmarkUnpack64|BenchmarkDecodeFOR)$"},
		{"./internal/fsst/", "^BenchmarkDecodeJumpTable$"},
	}},
	"compress": {"BENCH_compress.json", []benchSet{
		{".", "^BenchmarkCompressBaseline$"},
		{"./internal/fsst/", "^(BenchmarkTrain|BenchmarkEncode)$"},
		{"./internal/stats/", "^BenchmarkProfile$"},
	}},
	"serve": {"BENCH_serve.json", []benchSet{
		{"./internal/blockstore/", "^BenchmarkBlockWire$"},
	}},
	"query": {"BENCH_query.json", []benchSet{
		{".", "^(BenchmarkSelect|BenchmarkAggregate)$"},
	}},
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) MB/s)?(?:.*?\s(\d+) B/op)?`)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		fs := flag.NewFlagSet("record", flag.ExitOnError)
		suite := fs.String("suite", "decode", "trajectory to record: decode, compress, serve or query")
		out := fs.String("o", "", "output file (default: the suite's committed file)")
		benchtime := fs.String("benchtime", "0.25s", "per-benchmark time")
		count := fs.Int("count", 5, "runs per benchmark")
		stat := fs.String("stat", "median", "reduction over runs: median or best")
		fs.Parse(os.Args[2:])
		tr := trajectory(*suite)
		if *out == "" {
			*out = tr.file
		}
		snap, err := record(tr.sets, *benchtime, *count, *stat)
		if err != nil {
			fatal(err)
		}
		if err := writeSnapshot(*out, snap); err != nil {
			fatal(err)
		}
		fmt.Printf("benchtraj: recorded %d benchmarks to %s\n", len(snap.Results), *out)
	case "compare":
		fs := flag.NewFlagSet("compare", flag.ExitOnError)
		suite := fs.String("suite", "decode", "trajectory to compare: decode, compress, serve or query")
		baselinePath := fs.String("baseline", "", "committed baseline (default: the suite's file)")
		currentPath := fs.String("current", "", "snapshot to compare (empty = re-run the suites now)")
		tolerance := fs.Float64("tolerance", defaultTolerance(), "max allowed fractional regression")
		benchtime := fs.String("benchtime", "0.25s", "per-benchmark time (when re-running)")
		count := fs.Int("count", 5, "runs per benchmark (when re-running)")
		retries := fs.Int("retries", 3, "re-measure rounds to confirm an apparent regression")
		fs.Parse(os.Args[2:])
		tr := trajectory(*suite)
		if *baselinePath == "" {
			*baselinePath = tr.file
		}
		baseline, err := readSnapshot(*baselinePath)
		if err != nil {
			fatal(err)
		}
		var current *Snapshot
		if *currentPath != "" {
			if current, err = readSnapshot(*currentPath); err != nil {
				fatal(err)
			}
		} else if current, err = record(tr.sets, *benchtime, *count, "best"); err != nil {
			fatal(err)
		}
		// Confirm-on-regression: a genuinely slow benchmark fails every
		// re-measurement, while scheduler noise on a busy host usually
		// recovers. Only re-measure when we ran the suites ourselves.
		for i := 0; i < *retries && *currentPath == "" && hasRegression(baseline, current, *tolerance); i++ {
			fmt.Printf("benchtraj: apparent regression — re-measuring to confirm (%d/%d)\n", i+1, *retries)
			// Let a transient noise window (scheduler steal, thermal
			// throttle) pass before re-measuring.
			time.Sleep(10 * time.Second)
			again, err := record(tr.sets, *benchtime, *count, "best")
			if err != nil {
				fatal(err)
			}
			mergeBest(current, again)
		}
		if !compare(baseline, current, *tolerance) {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchtraj record [-suite decode|compress|serve|query] [-o FILE] [-benchtime T] [-count N]")
	fmt.Fprintln(os.Stderr, "       benchtraj compare [-suite decode|compress|serve|query] [-baseline FILE] [-current FILE] [-tolerance F]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtraj:", err)
	os.Exit(1)
}

// defaultTolerance is 0.10 unless BTR_BENCH_TOLERANCE overrides it.
func defaultTolerance() float64 {
	if v := os.Getenv("BTR_BENCH_TOLERANCE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
		fmt.Fprintf(os.Stderr, "benchtraj: ignoring invalid BTR_BENCH_TOLERANCE=%q\n", v)
	}
	return 0.10
}

// trajectory resolves a -suite flag.
func trajectory(suite string) suiteDef {
	tr, ok := suites[suite]
	if !ok {
		fatal(fmt.Errorf("unknown suite %q (want decode, compress, serve or query)", suite))
	}
	return tr
}

func record(sets []benchSet, benchtime string, count int, stat string) (*Snapshot, error) {
	if stat != "median" && stat != "best" {
		return nil, fmt.Errorf("unknown stat %q (want median or best)", stat)
	}
	snap := &Snapshot{
		Schema:     "btrblocks-bench/v1",
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime,
		Count:      count,
		Stat:       stat,
		Results:    map[string]Result{},
	}
	samples := map[string][]Result{}
	for _, s := range sets {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", s.pattern, "-benchmem", "-benchtime", benchtime,
			"-count", strconv.Itoa(count), s.pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("bench %s %s: %v\n%s", s.pkg, s.pattern, err, out)
		}
		parseInto(snap, samples, string(out))
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed")
	}
	for key, runs := range samples {
		snap.Results[key] = reduce(runs, stat)
	}
	return snap, nil
}

// parseInto collects every benchmark sample of one `go test -bench`
// output (repeated -count runs give repeated samples per name).
func parseInto(snap *Snapshot, samples map[string][]Result, out string) {
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			// key results by the last path element: "btrblocks/internal/bitpack" -> "bitpack"
			parts := strings.Split(strings.TrimSpace(rest), "/")
			pkg = parts[len(parts)-1]
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			snap.CPU = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		key := pkg + ":" + name
		ns, _ := strconv.ParseFloat(m[2], 64)
		var mbps float64
		if m[3] != "" {
			mbps, _ = strconv.ParseFloat(m[3], 64)
		}
		bytesPerOp, _ := strconv.ParseFloat(m[4], 64) // "" without B/op: 0, omitted
		samples[key] = append(samples[key], Result{NsPerOp: ns, MBps: mbps, BytesPerOp: bytesPerOp})
	}
}

// reduce folds repeated samples into one Result: the median run (typical
// speed, for baselines) or the best run (for gate comparisons).
func reduce(runs []Result, stat string) Result {
	sort.Slice(runs, func(i, j int) bool { return better(runs[j], runs[i]) }) // slowest first
	if stat == "best" {
		return runs[len(runs)-1]
	}
	return runs[len(runs)/2]
}

// regressed reports whether current c fell more than tolerance below
// baseline b on the gating metric (MB/s when present, else ns/op).
func regressed(b, c Result, tolerance float64) bool {
	if b.MBps > 0 && c.MBps > 0 {
		return c.MBps < b.MBps*(1-tolerance)
	}
	if b.NsPerOp > 0 && c.NsPerOp > 0 {
		return c.NsPerOp > b.NsPerOp*(1+tolerance)
	}
	return false
}

func hasRegression(baseline, current *Snapshot, tolerance float64) bool {
	for k, b := range baseline.Results {
		c, present := current.Results[k]
		if !present || regressed(b, c, tolerance) {
			return true
		}
	}
	return false
}

// mergeBest folds a re-measurement into current, keeping the better
// result per benchmark.
func mergeBest(current, again *Snapshot) {
	for k, r := range again.Results {
		if prev, seen := current.Results[k]; !seen || better(r, prev) {
			current.Results[k] = r
		}
	}
}

func better(a, b Result) bool {
	if a.MBps > 0 || b.MBps > 0 {
		return a.MBps > b.MBps
	}
	return a.NsPerOp < b.NsPerOp
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if s.Schema != "btrblocks-bench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, s.Schema)
	}
	return &s, nil
}

func writeSnapshot(path string, s *Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints a per-benchmark delta table and reports whether every
// baseline benchmark stayed within tolerance. New benchmarks (in current
// but not baseline) are listed informationally; benchmarks missing from
// the current run fail, so a baseline entry cannot silently disappear.
func compare(baseline, current *Snapshot, tolerance float64) bool {
	keys := make([]string, 0, len(baseline.Results))
	for k := range baseline.Results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if baseline.CPU != current.CPU || baseline.GOARCH != current.GOARCH {
		fmt.Printf("note: host differs from baseline (%q/%s vs %q/%s) — deltas may reflect hardware, not code\n",
			current.CPU, current.GOARCH, baseline.CPU, baseline.GOARCH)
	}
	fmt.Printf("%-44s %12s %12s %8s\n", "benchmark", "baseline", "current", "delta")
	ok := true
	for _, k := range keys {
		b := baseline.Results[k]
		c, present := current.Results[k]
		if !present {
			fmt.Printf("%-44s %12s %12s %8s  MISSING\n", k, fmtResult(b), "-", "-")
			ok = false
			continue
		}
		var delta float64 // positive = improvement
		if b.MBps > 0 && c.MBps > 0 {
			delta = c.MBps/b.MBps - 1
		} else if b.NsPerOp > 0 {
			delta = b.NsPerOp/c.NsPerOp - 1
		}
		flag := ""
		if delta < -tolerance {
			flag = "  REGRESSION"
			ok = false
		}
		fmt.Printf("%-44s %12s %12s %+7.1f%%%s\n", k, fmtResult(b), fmtResult(c), delta*100, flag)
	}
	for k := range current.Results {
		if _, present := baseline.Results[k]; !present {
			fmt.Printf("%-44s %12s %12s %8s  (new, not in baseline)\n", k, "-", fmtResult(current.Results[k]), "-")
		}
	}
	if !ok {
		fmt.Printf("benchtraj: regression beyond %.0f%% tolerance (override with BTR_BENCH_TOLERANCE, skip with BTR_BENCH_SKIP=1)\n", tolerance*100)
	} else {
		fmt.Printf("benchtraj: %d benchmarks within %.0f%% of baseline\n", len(keys), tolerance*100)
	}
	return ok
}

func fmtResult(r Result) string {
	if r.MBps > 0 {
		return fmt.Sprintf("%.0f MB/s", r.MBps)
	}
	return fmt.Sprintf("%.0f ns/op", r.NsPerOp)
}
