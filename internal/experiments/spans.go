package experiments

import (
	"context"
	"fmt"

	"btrblocks"
	"btrblocks/internal/obs"
	"btrblocks/internal/pbi"
	"btrblocks/internal/smoke"
)

// Spans measures what span tracing costs on the decode hot path: the
// largest five Public BI workbooks are compressed once, then scanned
// repeatedly under three tracing regimes — off (no span in the context,
// the production default when no request is traced), head-sampled
// (1 in 64 scans carries a root span), and always (every scan traced,
// every per-block task a child span). The off row is the baseline the
// nil-recorder fast path must defend; the zero-allocation property it
// relies on is pinned by TestDecodeDisabledTracingZeroAlloc.
func Spans(cfg *Config) error {
	cols, err := smoke.Compress(pbi.Largest5(cfg.rows(), cfg.seed()), btrblocks.DefaultOptions())
	if err != nil {
		return err
	}
	var rawBytes int
	for _, c := range cols {
		rawBytes += c.Col.UncompressedBytes()
	}
	dopt := &btrblocks.Options{Parallelism: cfg.threads()}

	scanAll := func(rec *obs.SpanRecorder, sampleLabel string) error {
		for _, c := range cols {
			ctx, root := rec.StartRoot(context.Background(), "bench.scan")
			root.SetAttr("column", c.Name)
			root.SetAttr("mode", sampleLabel)
			if _, err := btrblocks.DecompressColumnContext(ctx, c.Data, dopt); err != nil {
				return fmt.Errorf("scan %s: %w", c.Name, err)
			}
			root.End()
		}
		return nil
	}

	type mode struct {
		name string
		rec  *obs.SpanRecorder
	}
	modes := []mode{
		{"off", nil},
		{"sampled-1/64", obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrbench", SampleEvery: 64})},
		{"always", obs.NewSpanRecorder(obs.SpanRecorderConfig{Process: "btrbench", SampleEvery: 1})},
	}

	cfg.printf("span tracing overhead on the decode path (%d columns, %d threads, best of %d)\n",
		len(cols), cfg.threads(), cfg.reps())
	cfg.printf("%-14s %12s %12s %14s\n", "tracing", "scan [GB/s]", "time [s]", "spans recorded")
	baseline := 0.0
	for _, m := range modes {
		best := 0.0
		for r := 0; r < cfg.reps(); r++ {
			var err error
			sec := timeSeconds(func() {
				err = scanAll(m.rec, m.name)
			})
			if err != nil {
				return err
			}
			if r == 0 || sec < best {
				best = sec
			}
		}
		recorded := uint64(0)
		if m.rec.Enabled() {
			recorded = m.rec.Stats().Recorded
		}
		suffix := ""
		if m.name == "off" {
			baseline = best
		} else if baseline > 0 {
			suffix = fmt.Sprintf("   (%+.1f%% vs off)", (best/baseline-1)*100)
		}
		cfg.printf("%-14s %12.2f %12.3f %14d%s\n", m.name, gbps(rawBytes, best), best, recorded, suffix)
	}
	return nil
}
