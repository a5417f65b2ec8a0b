package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// simSeed is the program seed for a benchmark seed. The CLI reads seed
// 0 as "the default", so 0 maps to 1; every other seed passes through.
func simSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// buildSpec applies -set style assignments to a fresh spec, the way
// `dgrid sweep -set` does.
func buildSpec(seed uint64, quick bool, sets ...string) (grid.Spec, error) {
	sp := grid.Spec{Version: grid.SpecVersion}
	for _, a := range sets {
		if err := sp.Set(a); err != nil {
			return sp, err
		}
	}
	sp.Seed, sp.Quick = simSeed(seed), quick
	sp = sp.Normalize()
	return sp, sp.Validate()
}

// writeSpec stores the spec as the JSON file the CLI reads with -spec.
func (b *bench) writeSpec(name string, sp grid.Spec) (string, error) {
	data, err := sp.JSON()
	if err != nil {
		return "", err
	}
	p := filepath.Join(b.work, name)
	return p, os.WriteFile(p, data, 0o644)
}

// coldSetups is how often a cold workload prepares; setup_s is the
// median.
const coldSetups = 5

// coldSetup prepares k fresh cache directories. Each preparation is
// timed: creating the directory and a smoke run proving the freshly
// built CLI starts and completes a sweep (one host, one minute, quick
// calibration, no cache, a fixed seed so every run does the same
// work). The median is the workload's setup_s.
func (b *bench) coldSetup(prefix string, k int) ([]string, float64, error) {
	dirs := make([]string, k)
	times := make([]float64, k)
	for i := range dirs {
		start := time.Now()
		dirs[i] = filepath.Join(b.work, prefix+"-"+strconv.Itoa(i))
		if err := os.Mkdir(dirs[i], 0o755); err != nil {
			return nil, 0, err
		}
		if _, err := runCLI(b.ctx, b.bin, "sweep", "-set", "machines=1", "-set", "minutes=1",
			"-quick", "-seed", "1", "-cache", "off", "-quiet"); err != nil {
			return nil, 0, fmt.Errorf("smoke run: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	return dirs, median(times), nil
}

// fleetEvents sums the simulator events recorded in every fleet shard
// payload of a cache directory.
func fleetEvents(dir string) (uint64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		n, err := payloadEvents(data)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
		total += n
	}
	return total, nil
}

// payloadEvents reads the simulator event count from one fleet shard
// payload.
func payloadEvents(payload []byte) (uint64, error) {
	var sr grid.ShardResult
	if err := json.Unmarshal(payload, &sr); err != nil {
		return 0, err
	}
	var n uint64
	for _, st := range sr.Envs {
		n += st.Fired
	}
	return n, nil
}

// calibrationProbe times, in a process that has not simulated yet, the
// first grid.RunShard of a one-host, one-minute scenario in each
// environment: almost all of it is the calibration micro-simulation.
func calibrationProbe(tr *Tracer, seed uint64, quick bool) (float64, error) {
	var total time.Duration
	for _, env := range grid.EnvNames() {
		scn := grid.Scenario{Machines: 1, Minutes: 1, Seed: seed, Quick: quick, Envs: []string{env}}
		start := tr.Now()
		t0 := time.Now()
		if _, err := grid.RunShard(scn, 0); err != nil {
			return 0, fmt.Errorf("calibration probe %s: %w", env, err)
		}
		total += time.Since(t0)
		tr.Record(Span{ID: tr.NewID(), Name: "grid.calibrate", Start: start, End: tr.Now(), Tag: env})
	}
	return ms(total), nil
}

// cacheGetProbe reads every key back through a fresh FileCache without
// the memory tier, timing each Get: the disk tier's read cost on this
// workload's own entries.
func cacheGetProbe(tr *Tracer, dir string, keys []string) ([]float64, error) {
	fc, err := engine.NewFileCache(dir)
	if err != nil {
		return nil, err
	}
	us := make([]float64, 0, len(keys))
	for _, k := range keys {
		start := tr.Now()
		_, ok := fc.Get(k)
		end := tr.Now()
		if !ok {
			return nil, fmt.Errorf("cache probe: entry missing in %s", dir)
		}
		tr.Record(Span{ID: tr.NewID(), Name: "cache.get_probe", Start: start, End: end})
		us = append(us, float64(end-start)/1e3)
	}
	return us, nil
}

// cliRunner builds the runner the CLI builds for a cache directory
// (newRunner in cmd/dgrid): the file cache with its memory tier,
// pruned, with fold journaling.
func (b *bench) cliRunner(dir string) (*engine.Runner, error) {
	fc, err := engine.NewFileCache(dir)
	if err != nil {
		return nil, err
	}
	fc.EnableMemTier(engine.DefaultMemTierBytes)
	fc.Prune(engine.DefaultMaxAge, engine.DefaultMaxBytes)
	return &engine.Runner{Workers: b.workers, Cache: fc, Manifests: fc.Manifests()}, nil
}

// inProc is one in-process run: a fresh CLI-equivalent runner over
// dir, the experiments, and the rendering the CLI prints.
type inProc struct {
	dir     string
	cfg     core.Config
	exps    []engine.Experiment
	kernels [][]kernelShard
	render  func(core.Config, []*engine.Outcome) string
	// renderSpan names the rendering's span in a traced run.
	renderSpan string
}

// inProcResult is what one in-process run produced.
type inProcResult struct {
	out   string
	stats engine.Stats
	wall  time.Duration
	keys  []string // cache keys seen (traced runs only)
}

// run executes the in-process run, traced under request id req when tr
// is not nil. The wall time covers opening the cache through rendering,
// the part of a CLI invocation after process start-up.
func (p inProc) run(b *bench, tr *Tracer, req int64) (inProcResult, error) {
	start := time.Now()
	r, err := b.cliRunner(p.dir)
	if err != nil {
		return inProcResult{}, err
	}
	var res inProcResult
	var outs []*engine.Outcome
	if tr == nil {
		outs, res.stats, err = r.RunContext(b.ctx, p.cfg, p.exps)
		if err != nil {
			return res, err
		}
		res.out = p.render(p.cfg, outs)
	} else {
		var tc *tracedCache
		outs, res.stats, tc, err = tracedRun(b.ctx, tr, req, r, p.cfg, p.exps, p.kernels)
		if err != nil {
			return res, err
		}
		rs := tr.Now()
		res.out = p.render(p.cfg, outs)
		tr.Record(Span{ID: tr.NewID(), Req: req, Name: p.renderSpan, Start: rs, End: tr.Now()})
		res.keys = tc.Keys()
	}
	res.wall = time.Since(start)
	return res, nil
}

// passTraced is the traced run's sequence of passes over the same
// inputs: an untraced warm-up (which also finishes any lazy
// calibration, so no measured pass pays it), then traced and untraced
// passes in ABBA order, which cancels a steady drift in machine speed
// out of the overhead estimate. Spans are kept from pass 1 only.
var passTraced = []bool{false, true, false, false, true}

// passTracer returns the tracer for pass i: tr for pass 1, a throwaway
// one for the other traced pass, nil for untraced passes.
func passTracer(i int, tr *Tracer) *Tracer {
	switch {
	case i == 1:
		return tr
	case passTraced[i]:
		return NewTracer()
	}
	return nil
}

// overhead is the tracing overhead: the traced passes' wall time minus
// the measured untraced passes', per pass.
func overhead(walls []time.Duration) time.Duration {
	var d time.Duration
	for i := 1; i < len(walls); i++ {
		if passTraced[i] {
			d += walls[i]
		} else {
			d -= walls[i]
		}
	}
	return d / 2
}

// tracedPasses runs p once per pass on fresh directories, checks that
// every pass prints the same bytes, and returns the kept traced pass
// and the tracing overhead.
func (b *bench) tracedPasses(p inProc, tr *Tracer, name string) (inProcResult, time.Duration, error) {
	res := make([]inProcResult, len(passTraced))
	walls := make([]time.Duration, len(passTraced))
	for i := range res {
		q := p
		q.dir = filepath.Join(b.work, fmt.Sprintf("%s-pass%d", name, i))
		b.attempted++
		var err error
		if res[i], err = q.run(b, passTracer(i, tr), 1); err != nil {
			return inProcResult{}, 0, err
		}
		walls[i] = res[i].wall
		b.check(res[i].out == res[0].out, "%s: pass %d (traced: %t) printed different output", name, i, passTraced[i])
	}
	return res[1], overhead(walls), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
