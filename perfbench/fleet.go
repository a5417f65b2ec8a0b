package main

import (
	"fmt"
	"path/filepath"
	"strconv"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// fleet-cold: cold `dgrid sweep` runs of a 30000-host fleet over a
// working day, steady and churning, on fresh caches. It is the most
// simulated path (steady and churn kernels, the sim heap, calibration,
// cache Put) and touches no replication policy, figure kernel, HTTP or
// cache hit.

const (
	fleetMachines = 30000
	// fleetSweepsPer10s sizes the measured phase: one cold sweep takes
	// 3-4 s on a 2-core machine at HEAD.
	fleetSweepsPer10s = 3.5
)

func fleetSpec(seed uint64) (grid.Spec, error) {
	return buildSpec(seed, false, "machines="+strconv.Itoa(fleetMachines), "minutes=480",
		"churn=false,true", "policy=fifo")
}

func runFleetCold(b *bench) (map[string]float64, error) {
	sp, err := fleetSpec(b.seed)
	if err != nil {
		return nil, err
	}
	specPath, err := b.writeSpec("fleet.json", sp)
	if err != nil {
		return nil, err
	}
	n := max(1, int(float64(b.seconds)*fleetSweepsPer10s/10))
	dirs, setup, err := b.coldSetup("fleet", max(n, coldSetups))
	if err != nil {
		return nil, err
	}
	var (
		walls, cpus, rss []float64
		ref              string
		refEvents        uint64
	)
	for i := 0; i < n; i++ {
		b.attempted++
		res, err := runCLI(b.ctx, b.bin, "sweep", "-spec", specPath, "-workers", strconv.Itoa(b.workers),
			"-cache", dirs[i], "-csv", "-quiet")
		if err != nil {
			b.fail("%v", err)
			continue
		}
		walls, cpus, rss = append(walls, res.Wall.Seconds()), append(cpus, res.CPU.Seconds()), append(rss, res.RSSMB)
		ev, err := fleetEvents(dirs[i])
		if err != nil {
			b.fail("reading shard payloads: %v", err)
			continue
		}
		if i == 0 {
			ref, refEvents = string(res.Stdout), ev
			continue
		}
		b.check(string(res.Stdout) == ref, "sweep %d: CSV differs from sweep 0", i)
		b.check(ev == refEvents, "sweep %d: %d simulator events, sweep 0 had %d", i, ev, refEvents)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("fleet-cold: every sweep failed: %v", b.failures)
	}
	b.latency["sweep"] = summarize(scale(walls, 1e3))
	b.notes["sim_events"] = float64(refEvents)
	b.notes["peak_rss_mb"] = maxOf(rss)
	wall := sum(walls)
	hostEnvPoints := float64(fleetMachines * len(sp.Normalize().Envs) * sp.NPoints() * len(walls))
	return map[string]float64{
		"setup_s":   setup,
		"wall_s":    wall,
		"ops_per_s": hostEnvPoints / wall,
		"cpu_s":     sum(cpus),
	}, nil
}

func traceFleetCold(b *bench) (map[string]float64, error) {
	sp, err := fleetSpec(b.seed)
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	cal, err := calibrationProbe(tr, sp.Seed, sp.Quick)
	if err != nil {
		return nil, err
	}
	specPath, err := b.writeSpec("fleet.json", sp)
	if err != nil {
		return nil, err
	}
	// The CLI's answer is the reference the in-process passes must
	// reproduce byte for byte.
	cliDir := filepath.Join(b.work, "fleet-cli")
	b.attempted++
	cli, err := runCLI(b.ctx, b.bin, "sweep", "-spec", specPath, "-workers", strconv.Itoa(b.workers),
		"-cache", cliDir, "-csv", "-quiet")
	if err != nil {
		return nil, err
	}
	cliEvents, err := fleetEvents(cliDir)
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
	p := inProc{
		cfg:        core.Config{Seed: sp.Seed, Quick: sp.Quick},
		exps:       []engine.Experiment{exp},
		kernels:    [][]kernelShard{kernel},
		render:     func(_ core.Config, o []*engine.Outcome) string { return o[0].CSV() },
		renderSpan: "engine.render",
	}
	traced, over, err := b.tracedPasses(p, tr, "fleet")
	if err != nil {
		return nil, err
	}
	b.check(traced.out == string(cli.Stdout), "traced CSV differs from the CLI's")
	spans := tr.Spans()
	var events uint64
	for _, s := range spans {
		if s.Name == "grid.run_shard" {
			events += uint64(s.Count)
		}
	}
	b.check(events == cliEvents, "traced run fired %d simulator events, the CLI %d", events, cliEvents)
	getUS, err := cacheGetProbe(tr, filepath.Join(b.work, "fleet-pass1"), traced.keys)
	if err != nil {
		return nil, err
	}
	return b.finishTrace(tr, "fleet-cold", layerInput{
		spans: spans, ops: 1, workers: b.workers, stats: []engine.Stats{traced.stats},
		calibrateMS: cal, getUS: getUS, overheadMS: ms(over),
	})
}

// finishTrace writes the spans and computes the per-layer metrics.
func (b *bench) finishTrace(tr *Tracer, name string, in layerInput) (map[string]float64, error) {
	path := filepath.Join(b.root, ".bench_build", "results",
		fmt.Sprintf("%s-seed%d.spans.jsonl", name, b.seed))
	if err := tr.WriteFile(path); err != nil {
		return nil, err
	}
	vals, unobserved := layerMetrics(in)
	b.unobserved = unobserved
	b.notes["spans"] = float64(len(in.spans))
	return vals, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
