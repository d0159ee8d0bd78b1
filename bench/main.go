// Command bench is the repository's benchmark: six workloads from bulk
// compression to a routed query, each run end to end (tracing off, the
// numbers BENCHMARK.json gates) or traced (one caller, spans and
// boundary replays, the per-layer numbers). See README.md.
//
//	bash bench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all > A.txt     # a run set, for -compare
//	bash bench/run.sh --compare A.txt B.txt
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeed is the seed of the recorded baselines. A claim made with
// it must also hold on a seed that was not used while the change was
// written.
const defaultSeed = 1

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 10

// maxUnattributed is the share of client-span time the per-layer table
// may fail to attribute consistently before a traced run fails.
const maxUnattributed = 0.10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", defaultSeed, "the only source of randomness: corpus, literals and op order derive from it")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured phase (the traced run has a fixed op count instead)")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two run sets: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A B (outputs of -workload all)")
			return 2
		}
		return compareRunSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	var todo []workloadDef
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have all", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, ", %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}

	printHeader(stdout, *seed, *seconds, *trace == 1)
	set := map[string]*result{}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(context.Background(), w, *seed, *seconds, *trace == 1, full, stdout)
		if err != nil {
			// A background error, a wrong warm-up answer or a leak: the
			// numbers would describe a broken system, so there are none.
			fmt.Fprintln(stderr, "bench: FAILED:", err)
			return 1
		}
		printResult(stdout, w, res, *trace == 1)
		// More than a tenth of the client time claimed beyond what the
		// parents had means a replay does not stand for what ran inside
		// its parent — a boundary is missing and the table is wrong.
		if u := res.Metrics["bench.unattributed_share"].Value; u > maxUnattributed {
			fmt.Fprintf(stderr, "bench: FAILED: %s: bench.unattributed_share %.3f > %.2f: the per-layer table does not add up\n", w.name, u, maxUnattributed)
			code = 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: FAILED: %s: %d of %d ops failed\n", w.name, res.Failed, res.Attempted)
			code = 1
		}
		set[w.name] = res
		debug.FreeOSMemory() // "all" shares one process: the next workload should not inherit this one's heap
	}
	// The last line is the machine-readable one: the result itself for a
	// single workload, a run set keyed by workload for "all".
	var last any = set
	if len(todo) == 1 {
		last = set[todo[0].name]
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

func printHeader(w io.Writer, seed int64, seconds int, trace bool) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# bench: nproc=%d GOMAXPROCS=%d %s cpu=%q git=%s seed=%d seconds=%d trace=%v callers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), rev, seed, seconds, trace, callers())
	fmt.Fprintf(w, "# sizes: %d rows x 6 lake tables, %d query rows, %d set-ups per run, %d-row append batches; traced ops:",
		full.tableRows, full.queryRows, full.setups, batchRows)
	for _, wd := range workloads {
		fmt.Fprintf(w, " %s=%d", wd.name, wd.traceOps)
	}
	fmt.Fprintln(w)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printResult(w io.Writer, wd workloadDef, res *result, trace bool) {
	fmt.Fprintf(w, "## %s: attempted=%d failed=%d digest=%016x\n", wd.name, res.Attempted, res.Failed, res.digest)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// compareRunSets prints, per workload and end-to-end metric, both
// values, the relative difference and the bound, and fails when a pair
// is outside its bound or B failed a larger share of its ops.
func compareRunSets(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]map[string]*result
	for i, path := range []string{pathA, pathB} {
		set, err := readRunSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	return diffRunSets(sets[0], sets[1], stdout)
}

// readRunSet reads the last line of a saved `-workload all` output.
func readRunSet(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var set map[string]*result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &set); err != nil {
		return nil, fmt.Errorf("%s: last line is not a run set: %w", path, err)
	}
	return set, nil
}

func diffRunSets(a, b map[string]*result, w io.Writer) int {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	bad := 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	for _, n := range names {
		ra, rb := a[n], b[n]
		if rb == nil {
			fmt.Fprintf(w, "%-16s missing from B\n", n)
			bad++
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			rel := (vb - va) / va
			worse := rel
			if d.Better == "higher" {
				worse = -rel
			}
			mark := ""
			if worse > d.Bound {
				mark = "  OUTSIDE"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", n, d.Name, va, vb, 100*rel, 100*d.Bound, mark)
		}
		if fa, fb := float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted); fb > fa {
			fmt.Fprintf(w, "%-16s failed-op share rose: %.6f -> %.6f\n", n, fa, fb)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d pair(s) outside their bound\n", bad)
		return 1
	}
	fmt.Fprintln(w, "every pair within its bound")
	return 0
}
