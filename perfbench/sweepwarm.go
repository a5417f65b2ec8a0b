package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// sweep-warm: set-up fills a fresh cache with a 288-shard quick sweep;
// the measured phase replays it as separate `dgrid sweep -quiet`
// processes. It is the only workload that reads the disk tier and
// verifies a fold manifest on every run.

const (
	// warmFills is how many times set-up fills a fresh cache; setup_s
	// is their median.
	warmFills = 5
	// warmReplaysPer10s sizes the measured phase (one replay takes
	// 40-55 ms on a 2-core machine at HEAD); at least minReplays run so
	// p90 has ten samples beyond it.
	warmReplaysPer10s = 150
	minReplays        = 100
)

func warmSpec(seed uint64) (grid.Spec, error) {
	return buildSpec(seed, true, "machines=16..512*2", "minutes=10,20,30",
		"churn=false,true", "policy=fifo,deadline")
}

func warmReplays(seconds int) int { return max(minReplays, seconds*warmReplaysPer10s/10) }

// payloadFiles snapshots the cache's payload files by inode: a shard
// computed again is written through a temp file and renamed into
// place, which changes its inode.
func payloadFiles(dir string) (map[string]uint64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		st, ok := fi.Sys().(*syscall.Stat_t)
		if !ok {
			return nil, fmt.Errorf("no inode for %s", p)
		}
		m[filepath.Base(p)] = st.Ino
	}
	return m, nil
}

func sameFiles(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runSweepWarm(b *bench) (map[string]float64, error) {
	sp, err := warmSpec(b.seed)
	if err != nil {
		return nil, err
	}
	specPath, err := b.writeSpec("warm.json", sp)
	if err != nil {
		return nil, err
	}
	args := func(dir string) []string {
		return []string{"sweep", "-spec", specPath, "-workers", strconv.Itoa(b.workers), "-cache", dir, "-quiet"}
	}
	var (
		fills []float64
		dir   string
		ref   string
	)
	for i := 0; i < warmFills; i++ {
		dir = filepath.Join(b.work, "warm-"+strconv.Itoa(i))
		start := time.Now()
		res, err := runCLI(b.ctx, b.bin, args(dir)...)
		if err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		fills = append(fills, time.Since(start).Seconds())
		if i == 0 {
			ref = string(res.Stdout)
		} else if string(res.Stdout) != ref {
			return nil, fmt.Errorf("fill %d printed different output", i)
		}
	}
	before, err := payloadFiles(dir)
	if err != nil {
		return nil, err
	}
	n := warmReplays(b.seconds)
	var walls, cpus, rss []float64
	for i := 0; i < n; i++ {
		b.attempted++
		res, err := runCLI(b.ctx, b.bin, args(dir)...)
		if err != nil {
			b.fail("replay %d: %v", i, err)
			continue
		}
		walls, cpus, rss = append(walls, res.Wall.Seconds()), append(cpus, res.CPU.Seconds()), append(rss, res.RSSMB)
		b.check(string(res.Stdout) == ref, "replay %d: output differs from the fill's", i)
	}
	after, err := payloadFiles(dir)
	if err != nil {
		return nil, err
	}
	// A computed shard is rewritten; the count check catches a replay
	// that computed anything at all.
	b.check(sameFiles(before, after), "replays rewrote cached shards (computed instead of replaying)")
	if len(walls) == 0 {
		return nil, fmt.Errorf("sweep-warm: every replay failed: %v", b.failures)
	}
	b.latency["replay"] = summarize(scale(walls, 1e3))
	b.notes["peak_rss_mb"] = maxOf(rss)
	wall := sum(walls)
	return map[string]float64{
		"setup_s":   median(fills),
		"wall_s":    wall,
		"ops_per_s": float64(len(walls)) / wall,
		"cpu_s":     sum(cpus),
	}, nil
}

func traceSweepWarm(b *bench) (map[string]float64, error) {
	sp, err := warmSpec(b.seed)
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	cal, err := calibrationProbe(tr, sp.Seed, sp.Quick)
	if err != nil {
		return nil, err
	}
	specPath, err := b.writeSpec("warm.json", sp)
	if err != nil {
		return nil, err
	}
	b.attempted++
	cli, err := runCLI(b.ctx, b.bin, "sweep", "-spec", specPath, "-workers", strconv.Itoa(b.workers),
		"-cache", filepath.Join(b.work, "warm-cli"), "-quiet")
	if err != nil {
		return nil, err
	}
	kernel, err := sweepKernel(sp)
	if err != nil {
		return nil, err
	}
	exp, err := engine.NewSweep("sweep", "command-line scenario sweep", sp)
	if err != nil {
		return nil, err
	}
	// The CLI's cache keys carry its binary's fingerprint, so the
	// in-process replays read a cache this process filled.
	p := inProc{
		dir:        filepath.Join(b.work, "warm-inproc"),
		cfg:        core.Config{Seed: sp.Seed, Quick: sp.Quick},
		exps:       []engine.Experiment{exp},
		kernels:    [][]kernelShard{kernel},
		render:     func(_ core.Config, o []*engine.Outcome) string { return o[0].Render() + "\n" },
		renderSpan: "engine.render",
	}
	b.attempted++
	fill, err := p.run(b, nil, 0)
	if err != nil {
		return nil, err
	}
	b.check(fill.out == string(cli.Stdout), "in-process fill differs from the CLI's output")

	// Each pass replays the cache n times (see passTraced).
	n := warmReplays(b.seconds)
	var stats []engine.Stats
	var keys []string
	walls := make([]time.Duration, len(passTraced))
	for pass := range passTraced {
		t := passTracer(pass, tr)
		for i := 0; i < n; i++ {
			b.attempted++
			res, err := p.run(b, t, int64(i+1))
			if err != nil {
				b.fail("replay pass %d #%d: %v", pass, i, err)
				continue
			}
			walls[pass] += res.wall
			b.check(res.out == fill.out, "replay pass %d #%d: output differs from the fill's", pass, i)
			b.check(res.stats.Misses == 0, "replay pass %d #%d computed %d shards", pass, i, res.stats.Misses)
			if pass == 1 {
				stats = append(stats, res.stats)
				keys = res.keys
			}
		}
	}
	spans := tr.Spans()
	getUS, err := cacheGetProbe(tr, p.dir, keys)
	if err != nil {
		return nil, err
	}
	return b.finishTrace(tr, "sweep-warm", layerInput{
		spans: spans, ops: n, workers: b.workers, stats: stats,
		calibrateMS: cal, getUS: getUS, overheadMS: ms(overhead(walls)),
	})
}
