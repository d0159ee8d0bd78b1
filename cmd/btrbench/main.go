// Command btrbench regenerates the tables and figures of the BtrBlocks
// paper's evaluation section (§6) on the synthetic Public BI and TPC-H
// corpora. Each subcommand maps to one experiment; `all` runs everything.
//
// Usage:
//
//	btrbench [-rows N] [-seed S] [-threads T] [-reps R] <experiment>...
//
// Experiments: fig1 table2 schemes fig4 fig5 fig6 fig7 compspeed table3
// pde-pool fig8 table4 table5 colscan scalar selection threads all
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"btrblocks/internal/experiments"
)

var registry = map[string]func(*experiments.Config) error{
	"fig1":      experiments.Fig1,
	"table2":    experiments.Table2,
	"fig4":      experiments.Fig4,
	"fig5":      experiments.Fig5,
	"fig6":      experiments.Fig6,
	"fig7":      experiments.Fig7,
	"compspeed": experiments.CompressionSpeed,
	"table3":    experiments.Table3,
	"pde-pool":  experiments.PDEPool,
	"fig8":      experiments.Fig8,
	"table4":    experiments.Table4,
	"table5":    experiments.Table5,
	"colscan":   experiments.ColumnScan,
	"scalar":    experiments.Scalar,
	"selection": experiments.SelectionOverhead,
	"schemes":   experiments.Schemes,
	"threads":   experiments.Threads,
}

// order keeps `all` output in the paper's presentation order.
var order = []string{
	"fig1", "table2", "schemes", "fig4", "fig5", "fig6", "selection", "fig7",
	"compspeed", "table3", "pde-pool", "fig8", "table4", "table5",
	"colscan", "scalar", "threads",
}

func main() {
	rows := flag.Int("rows", 64000, "rows per generated table (scales the workload)")
	seed := flag.Int64("seed", 42, "generator seed")
	threads := flag.Int("threads", 0, "decompression parallelism (0 = GOMAXPROCS)")
	reps := flag.Int("reps", 3, "repetitions for timed sections")
	net := flag.Float64("netgbps", 0, "simulated network Gbps for S3 experiments (0 = calibrated default)")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cfg := &experiments.Config{Rows: *rows, Seed: *seed, Threads: *threads, Reps: *reps, NetworkGbps: *net}

	var names []string
	for _, a := range args {
		if a == "all" {
			names = append(names, order...)
			continue
		}
		if _, ok := registry[a]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", a)
			usage()
			os.Exit(2)
		}
		names = append(names, a)
	}
	for _, name := range names {
		if err := registry[name](cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: btrbench [flags] <experiment>...\n\nexperiments:\n")
	var names []string
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %s\n", name)
	}
	fmt.Fprintf(os.Stderr, "  all\n\nflags:\n")
	flag.PrintDefaults()
}
