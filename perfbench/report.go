package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vmdg/internal/core"
	"vmdg/internal/engine"
)

// report-cold: `dgrid report` at its defaults (3 reps, full sizes) on a
// fresh cache — the paper's own path. Three layers dominate it and
// appear in no other workload: the naive 1024² matrix multiply of
// Figure 2, boinc replication in Fleet F2, and the pool's tail.

// reportSummary is the line every report must carry: all 48 paper
// targets inside their bands, at any seed.
const reportSummary = "**Summary: 48 of 48 paper targets reproduced within their acceptance bands.**"

// checkReport applies the report checks: the summary line, and at seed
// 1 byte identity with the committed EXPERIMENTS.md.
func (b *bench) checkReport(what, md string) {
	b.check(strings.Contains(md, reportSummary), "%s: summary is not 48 of 48", what)
	if simSeed(b.seed) == 1 {
		want, err := os.ReadFile(filepath.Join(b.root, "EXPERIMENTS.md"))
		b.check(err == nil && string(want) == md, "%s: output differs from EXPERIMENTS.md", what)
	}
}

// reportsPer10s sizes the measured phase: one report takes about 15 s
// on a 2-core machine at HEAD, and at least minReports run so a single
// slow report does not decide the run.
const (
	reportsPer10s = 1.4
	minReports    = 2
)

func runReportCold(b *bench) (map[string]float64, error) {
	n := max(minReports, int(float64(b.seconds)*reportsPer10s/10))
	dirs, setup, err := b.coldSetup("report", max(n, coldSetups))
	if err != nil {
		return nil, err
	}
	var walls, cpus, rss []float64
	for i := 0; i < n; i++ {
		out := filepath.Join(b.work, "report-"+strconv.Itoa(i)+".md")
		b.attempted++
		res, err := runCLI(b.ctx, b.bin, "report", "-o", out, "-seed", strconv.FormatUint(simSeed(b.seed), 10),
			"-workers", strconv.Itoa(b.workers), "-cache", dirs[i], "-quiet")
		if err != nil {
			b.fail("%v", err)
			continue
		}
		md, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		b.checkReport("report "+strconv.Itoa(i), string(md))
		walls, cpus, rss = append(walls, res.Wall.Seconds()), append(cpus, res.CPU.Seconds()), append(rss, res.RSSMB)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("report-cold: every report failed: %v", b.failures)
	}
	cfg := core.Config{Seed: simSeed(b.seed)}
	shards := engine.TotalShards(cfg, engine.Default.Experiments())
	b.latency["report"] = summarize(scale(walls, 1e3))
	b.notes["shards_per_report"] = float64(shards)
	b.notes["peak_rss_mb"] = maxOf(rss)
	wall := sum(walls)
	return map[string]float64{
		"setup_s":   setup,
		"wall_s":    wall,
		"ops_per_s": float64(shards*len(walls)) / wall,
		"cpu_s":     sum(cpus),
	}, nil
}

func traceReportCold(b *bench) (map[string]float64, error) {
	tr := NewTracer()
	cfg := core.Config{Seed: simSeed(b.seed)}
	cal, err := calibrationProbe(tr, cfg.Seed, cfg.Quick)
	if err != nil {
		return nil, err
	}
	p := inProc{
		cfg:        cfg,
		exps:       engine.Default.Experiments(),
		render:     engine.ExperimentsMarkdown,
		renderSpan: "report.render",
	}
	traced, over, err := b.tracedPasses(p, tr, "report")
	if err != nil {
		return nil, err
	}
	b.checkReport("traced report", traced.out)
	spans := tr.Spans()
	getUS, err := cacheGetProbe(tr, filepath.Join(b.work, "report-pass1"), traced.keys)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return b.finishTrace(tr, "report-cold", layerInput{
		spans: spans, ops: 1, workers: b.workers, stats: []engine.Stats{traced.stats},
		calibrateMS: cal, getUS: getUS, overheadMS: ms(over),
	})
}
