// Command btrblocks is the CLI for the BtrBlocks columnar format:
// compress CSV files into .btr files, decompress them back to CSV, and
// inspect compressed files without decompressing them.
//
// Usage:
//
//	btrblocks compress  -schema int,int64,double,string [-block N] [-stats] <in.csv> <out.btr>
//	btrblocks decompress <in.btr> <out.csv>
//	btrblocks inspect    <in.btr>
//	btrblocks stats      <in.btr>
//	btrblocks trace      -schema int,int64,double,string [-block N] [-format json|tree] [-validate] <in.csv>
//	btrblocks spans      [-format json|tree] [-trace ID] [-min-dur D] [-validate] <spans.json|->
//	btrblocks verify     [-json] [-deep] [-parallel N] [-q] <path>...
//
// inspect prints the full layout tree of a column, chunk, or stream file
// (see FORMAT.md): container framing, per-block NULL bitmap and data
// sizes, and the cascade of schemes with exact byte accounting. stats
// prints aggregate counters over the same layout: where the bytes went
// and which schemes were chosen how often. Both read only headers —
// payloads are never decompressed.
//
// trace compresses a CSV with a telemetry recorder attached and prints
// its decision trace: per block, every candidate scheme the picker
// scored with its sample-estimated ratio, the winner, and the cascade
// tree — as JSON (schema in OBSERVABILITY.md) or a human-readable tree.
// -validate checks the trace against the schema and fails on any
// violation.
//
// spans renders a span snapshot fetched from a server's /v1/spans
// endpoint (btrserved or btringest; "-" reads stdin, pairing with curl)
// as per-trace indented duration trees, so a cross-process trace reads
// as one story. Filters: -trace keeps one trace ID, -min-dur drops
// fast spans; -validate checks the set against the schema in
// OBSERVABILITY.md.
//
// verify is the fsck of the format: it walks files (or directories of
// files), checks every per-block and container CRC32C of v2 files, and
// prints per-block verdicts as text or JSON, exiting nonzero when any
// file is damaged. -deep additionally decodes every block, which is the
// only corruption check available for legacy v1 files; -q prints only
// damaged files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"btrblocks"
	"btrblocks/internal/csvconv"
	"btrblocks/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = compress(os.Args[2:])
	case "decompress":
		err = decompress(os.Args[2:])
	case "inspect":
		err = inspect(os.Args[2:])
	case "stats":
		err = stats(os.Args[2:])
	case "trace":
		err = trace(os.Args[2:])
	case "spans":
		err = spans(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "btrblocks:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  btrblocks compress  -schema int,int64,double,string [-block N] [-stats] <in.csv> <out.btr>
  btrblocks decompress <in.btr> <out.csv>
  btrblocks inspect    <in.btr>
  btrblocks stats      <in.btr>
  btrblocks trace      -schema int,int64,double,string [-block N] [-format json|tree] [-validate] <in.csv>
  btrblocks spans      [-format json|tree] [-trace ID] [-min-dur D] [-validate] <spans.json|->
  btrblocks verify     [-json] [-deep] [-parallel N] [-q] <path>...
`)
}

func compress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	schema := fs.String("schema", "", "comma-separated column types (int|int64|double|string)")
	block := fs.Int("block", btrblocks.DefaultBlockSize, "values per block")
	telemetryReport := fs.Bool("stats", false, "print a compression telemetry report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 || *schema == "" {
		return fmt.Errorf("compress needs -schema and <in.csv> <out.btr>")
	}
	types, err := parseSchema(*schema)
	if err != nil {
		return err
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	chunk, err := csvconv.ReadChunk(in, types)
	if err != nil {
		return err
	}
	opt := &btrblocks.Options{BlockSize: *block}
	if *telemetryReport {
		opt.Telemetry = btrblocks.NewTelemetry()
	}
	cc, err := btrblocks.CompressChunk(chunk, opt)
	if err != nil {
		return err
	}
	if err := os.WriteFile(fs.Arg(1), cc.EncodeFile(), 0o644); err != nil {
		return err
	}
	unc := chunk.UncompressedBytes()
	comp := cc.CompressedBytes()
	fmt.Printf("%d rows, %d columns: %d -> %d bytes (%.2fx)\n",
		chunk.NumRows(), len(chunk.Columns), unc, comp, float64(unc)/float64(comp))
	for _, st := range cc.Stats {
		fmt.Printf("  %-30s %-8s %8.2fx  %v\n", st.Name, st.Type, st.Ratio(), st.BlockSchemes)
	}
	if *telemetryReport {
		snap := opt.Telemetry.Snapshot()
		fmt.Println()
		fmt.Print(snap.Report())
	}
	return nil
}

// parseSchema parses the -schema flag into column types.
func parseSchema(schema string) ([]btrblocks.Type, error) {
	var types []btrblocks.Type
	for _, s := range strings.Split(schema, ",") {
		t, err := csvconv.ParseType(s)
		if err != nil {
			return nil, err
		}
		types = append(types, t)
	}
	return types, nil
}

func trace(args []string) error { return runTrace(args, os.Stdout) }

func runTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	schema := fs.String("schema", "", "comma-separated column types (int|int64|double|string)")
	block := fs.Int("block", btrblocks.DefaultBlockSize, "values per block")
	format := fs.String("format", "json", "output format: json or tree")
	validate := fs.Bool("validate", false, "validate the trace against the documented schema")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *schema == "" {
		return fmt.Errorf("trace needs -schema and <in.csv>")
	}
	types, err := parseSchema(*schema)
	if err != nil {
		return err
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	chunk, err := csvconv.ReadChunk(in, types)
	if err != nil {
		return err
	}
	opt := &btrblocks.Options{BlockSize: *block, Telemetry: btrblocks.NewTelemetry()}
	if _, err := btrblocks.CompressChunk(chunk, opt); err != nil {
		return err
	}
	tr := opt.Telemetry.Snapshot().Trace()
	if *validate {
		if err := tr.Validate(); err != nil {
			return err
		}
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tr)
	case "tree":
		tr.RenderTree(w)
		return nil
	default:
		return fmt.Errorf("format must be json or tree")
	}
}

func spans(args []string) error { return runSpans(args, os.Stdout) }

// runSpans renders a /v1/spans snapshot (a file, or "-" for stdin — the
// natural partner of `curl .../v1/spans | btrblocks spans -`) as
// indented per-trace duration trees or re-emitted JSON, optionally
// filtered to one trace ID or a minimum duration.
func runSpans(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	format := fs.String("format", "tree", "output format: json or tree")
	traceID := fs.String("trace", "", "keep only spans of this trace ID")
	minDur := fs.Duration("min-dur", 0, "keep only spans at least this long")
	validate := fs.Bool("validate", false, "validate the span set against the documented schema")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("spans needs <spans.json> (or - for stdin)")
	}
	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	var ss obs.SpanSet
	if err := json.Unmarshal(data, &ss); err != nil {
		return fmt.Errorf("bad span set: %v", err)
	}
	if *validate {
		if err := ss.Validate(); err != nil {
			return err
		}
	}
	if *traceID != "" || *minDur > 0 {
		kept := ss.Spans[:0]
		for _, s := range ss.Spans {
			if *traceID != "" && s.TraceID != *traceID {
				continue
			}
			if s.DurationNanos < int64(*minDur) {
				continue
			}
			kept = append(kept, s)
		}
		ss.Spans = kept
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(ss)
	case "tree":
		ss.RenderTree(w)
		return nil
	default:
		return fmt.Errorf("format must be json or tree")
	}
}

func decompress(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("decompress needs <in.btr> <out.csv>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	cc, err := btrblocks.DecodeFile(data)
	if err != nil {
		return err
	}
	chunk, err := btrblocks.DecompressChunk(cc, btrblocks.DefaultOptions())
	if err != nil {
		return err
	}
	out, err := os.Create(args[1])
	if err != nil {
		return err
	}
	defer out.Close()
	if err := csvconv.WriteChunk(out, chunk); err != nil {
		return err
	}
	fmt.Printf("%d rows, %d columns\n", chunk.NumRows(), len(chunk.Columns))
	return nil
}

func inspect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("inspect needs <in.btr>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	info, err := btrblocks.Inspect(data)
	if err != nil {
		return err
	}
	info.RenderTree(os.Stdout)
	return nil
}

func stats(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stats needs <in.btr>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	info, err := btrblocks.Inspect(data)
	if err != nil {
		return err
	}
	info.Stats().Render(os.Stdout)
	return nil
}
