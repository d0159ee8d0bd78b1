package experiments

import (
	"fmt"

	"btrblocks"
	"btrblocks/internal/core"
	"btrblocks/internal/pbi"
)

// exhaustiveBestSize compresses a column's first block with every
// applicable root scheme (cascades included) and returns the per-scheme
// sizes and the minimum — the "optimal scheme" ground truth of §6.3.
func exhaustiveBestSize(col btrblocks.Column, cfg *core.Config) (sizes map[core.Code]int, best int) {
	sizes = make(map[core.Code]int)
	best = -1
	record := func(code core.Code, enc []byte) {
		if enc == nil {
			return
		}
		sizes[code] = len(enc)
		if best < 0 || len(enc) < best {
			best = len(enc)
		}
	}
	switch col.Type {
	case btrblocks.TypeInt:
		for _, code := range core.Int.Schemes() {
			record(code, core.Int.CompressAs(nil, col.Ints, code, cfg))
		}
	case btrblocks.TypeDouble:
		for _, code := range core.Double.Schemes() {
			record(code, core.Double.CompressAs(nil, col.Doubles, code, cfg))
		}
	case btrblocks.TypeString:
		for _, code := range core.StringSchemes() {
			record(code, core.CompressStringAs(nil, col.Strings, code, cfg))
		}
	}
	return sizes, best
}

// chooseWith runs scheme selection for a column under a specific sampling
// strategy and returns the chosen scheme.
func chooseWith(col btrblocks.Column, runs, runLen int, seed int64) btrblocks.Scheme {
	opt := &btrblocks.Options{SampleRuns: runs, SampleRunLen: runLen, Seed: seed}
	scheme, _ := btrblocks.Choose(col, opt)
	return scheme
}

// firstBlock truncates a column to its first 64k block.
func firstBlock(col btrblocks.Column) btrblocks.Column {
	const bs = 64000
	switch col.Type {
	case btrblocks.TypeInt:
		if len(col.Ints) > bs {
			col.Ints = col.Ints[:bs]
		}
	case btrblocks.TypeDouble:
		if len(col.Doubles) > bs {
			col.Doubles = col.Doubles[:bs]
		}
	case btrblocks.TypeString:
		if col.Strings.Len() > bs {
			col.Strings = col.Strings.Slice(0, bs)
		}
	}
	col.Nulls = nil
	return col
}

// samplingGroundTruth precomputes, for every corpus column, the
// per-scheme full-block sizes and the optimum.
type groundTruth struct {
	col   btrblocks.Column
	sizes map[core.Code]int
	best  int
}

func buildGroundTruth(corpus []pbi.Dataset) []groundTruth {
	cfg := core.DefaultConfig()
	var out []groundTruth
	for _, nc := range allColumns(corpus) {
		col := firstBlock(nc.Col)
		if col.Len() == 0 {
			continue
		}
		sizes, best := exhaustiveBestSize(col, cfg)
		if best <= 0 {
			continue
		}
		out = append(out, groundTruth{col: col, sizes: sizes, best: best})
	}
	return out
}

// Fig5 regenerates Figure 5: the percentage of correct scheme choices for
// different sampling strategies with a fixed sample size of 640 tuples.
// A choice is correct when its full-block compressed size is within 2% of
// the exhaustive optimum (footnote 2 of the paper).
func Fig5(cfg *Config) error {
	corpus := cfg.pbiCorpus()
	truth := buildGroundTruth(corpus)

	strategies := []struct {
		label        string
		runs, runLen int
	}{
		{"single (640x1)", 640, 1},
		{"320x2", 320, 2},
		{"80x8", 80, 8},
		{"40x16", 40, 16},
		{"10x64", 10, 64},
		{"5x128", 5, 128},
		{"range (1x640)", 1, 640},
	}

	const seeds = 5 // average out sample placement, like the paper's repeats
	cfg.printf("Figure 5: correct scheme choices per sampling strategy (N=640, %d columns)\n", len(truth))
	cfg.printf("%-16s %10s\n", "strategy", "correct %")
	for _, st := range strategies {
		correct, trials := 0, 0
		for _, gt := range truth {
			for sd := int64(0); sd < seeds; sd++ {
				choice := chooseWith(gt.col, st.runs, st.runLen, cfg.seed()+sd)
				size, ok := gt.sizes[choice]
				if ok && float64(size) <= 1.02*float64(gt.best) {
					correct++
				}
				trials++
			}
		}
		cfg.printf("%-16s %9.1f%%\n", st.label, 100*float64(correct)/float64(trials))
	}
	return nil
}

// Fig6 regenerates Figure 6: total compressed size loss vs the optimum
// for growing sample sizes (10 runs of 8..4096 tuples, plus the entire
// block).
func Fig6(cfg *Config) error {
	corpus := cfg.pbiCorpus()
	truth := buildGroundTruth(corpus)
	optimal := 0
	for _, gt := range truth {
		optimal += gt.best
	}

	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	cfg.printf("Figure 6: compressed size vs sample size (%d columns)\n", len(truth))
	cfg.printf("%-14s %14s %12s\n", "strategy", "sampled %", "vs optimum")
	const seeds = 5
	run := func(label string, runs, runLen int, sampledFrac float64) {
		total := 0.0
		for _, gt := range truth {
			for sd := int64(0); sd < seeds; sd++ {
				choice := chooseWith(gt.col, runs, runLen, cfg.seed()+sd)
				if sz, ok := gt.sizes[choice]; ok {
					total += float64(sz) / seeds
				} else {
					// scheme not applicable at full block: fall back to
					// the worst recorded size (a mischoice)
					worst := 0
					for _, sz := range gt.sizes {
						if sz > worst {
							worst = sz
						}
					}
					total += float64(worst) / seeds
				}
			}
		}
		cfg.printf("%-14s %13.2f%% %+11.2f%%\n", label, sampledFrac*100,
			100*(total/float64(optimal)-1))
	}
	for _, rl := range sizes {
		run(fmt.Sprintf("10x%d", rl), 10, rl, float64(10*rl)/64000)
	}
	run("entire block", 1, 64000, 1)
	return nil
}

// SelectionOverhead reports the §3.1 measurement: the share of total
// compression time spent in scheme selection (statistics + sampling +
// estimation). Both sides are measured: the full compression pipeline and
// the selection machinery alone (statistics, sample gathering, per-scheme
// sample compression) via the EstimateOnly hooks.
func SelectionOverhead(cfg *Config) error {
	corpus := cfg.pbiCorpus()
	cols := allColumns(corpus)
	opt := btrblocks.DefaultOptions()
	coreCfg := core.DefaultConfig()

	var totalSecs float64
	for _, nc := range cols {
		col := nc.Col
		var err error
		totalSecs += timeSeconds(func() {
			_, err = btrblocks.CompressColumn(col, opt)
		})
		if err != nil {
			return err
		}
	}
	var selectSecs float64
	for _, nc := range cols {
		col := nc.Col
		selectSecs += timeSeconds(func() {
			switch col.Type {
			case btrblocks.TypeInt:
				core.Int.Choose(col.Ints, coreCfg)
			case btrblocks.TypeDouble:
				core.Double.Choose(col.Doubles, coreCfg)
			case btrblocks.TypeString:
				core.ChooseString(col.Strings, coreCfg)
			}
		})
	}
	cfg.printf("§3.1 scheme selection overhead: selection %.3fs of %.3fs total (%.1f%%)\n",
		selectSecs, totalSecs, 100*selectSecs/totalSecs)
	cfg.printf("  (paper: 1.2%% — the gap is the fixed cost of the trial cascade on the\n")
	cfg.printf("   sample next to a cheap full-block encode; see EXPERIMENTS.md §3.1)\n")
	return nil
}
