// Command perfbench is the vmdg benchmark harness. It drives the dgrid
// CLI and the dgrid serve daemon as subprocesses, the way their users
// run them, checks every output, and prints one JSON result line.
// With -trace 1 it instead re-executes the workload's inputs in-process
// through the engine, grid and serve APIs, times every call into a
// layer from outside, and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload sweep-warm --seed 3 --seconds 10 --trace 0
//
// run.sh builds dgrid and this harness from the checkout first. See
// README.md for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd is what a user of dgrid sees. Every workload reports every
// one of them, so each is defined on all four (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_s", "s"},
}

// perLayer is what the traced run reports, timed around each call into
// a layer. A layer a workload does not reach reads 0 and is listed as
// unobserved in the result record.
var perLayer = []metricDef{
	{"grid.calibrate_ms", "ms"},
	{"grid.shard_ms.steady", "ms"},
	{"grid.shard_ms.churn", "ms"},
	{"grid.shard_ms.replication", "ms"},
	{"grid.shard_ms.eager", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event.steady", "ns"},
	{"sim.ns_per_event.churn", "ns"},
	{"engine.encode_ms", "ms"},
	{"engine.cache_put_ms", "ms"},
	{"engine.cache_get_us_p50", "us"},
	{"engine.fold_absorb_ms", "ms"},
	{"engine.replay_overhead_ms", "ms"},
	{"engine.render_ms", "ms"},
	{"engine.run_self_ms", "ms"},
	{"engine.pool_util", "ratio"},
	{"engine.critical_path_s", "s"},
	{"engine.hits", "count"},
	{"engine.misses", "count"},
	{"engine.resumed", "count"},
	{"engine.memtier_hit_ratio", "ratio"},
	{"core.shard_ms.fig2", "ms"},
	{"core.figures_busy_s", "s"},
	{"report.render_ms", "ms"},
	{"serve.handler_ms_p50.warm", "ms"},
	{"serve.handler_ms_p50.cold", "ms"},
	{"serve.transport_ms_p50", "ms"},
	{"serve.admitted", "count"},
	{"serve.rejected", "count"},
	{"trace.overhead_ms", "ms"},
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(*bench) (map[string]float64, error)
}{
	"fleet-cold":  {runFleetCold, traceFleetCold},
	"report-cold": {runReportCold, traceReportCold},
	"sweep-warm":  {runSweepWarm, traceSweepWarm},
	"serve-mixed": {runServeMixed, traceServeMixed},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is recorded with every result.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
	Dgrid      string `json:"dgrid_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

// record is the full result written under .bench_build/results: the
// printed line plus what it is measured on and the detail behind it.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Env        envInfo            `json:"env"`
	Result     result             `json:"result"`
	Latency    map[string]latency `json:"latency,omitempty"`
	Unobserved []string           `json:"unobserved,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
	Notes      map[string]float64 `json:"notes,omitempty"`
}

// bench is one harness invocation's state.
type bench struct {
	ctx     context.Context
	root    string // checkout root
	bin     string // dgrid binary
	work    string // scratch directory, removed at exit
	seed    uint64
	seconds int
	workers int

	attempted, failed int
	failures          []string
	latency           map[string]latency
	unobserved        []string
	notes             map[string]float64
}

// fail records a failed operation: a non-zero exit, a refused request,
// a wrong artifact or an accounting mismatch.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// check records a failed output check that is not an operation of its
// own (a cross-run comparison).
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.fail(format, args...)
	}
}

func main() {
	workload := flag.String("workload", "", "workload: fleet-cold, report-cold, sweep-warm or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; inputs are a function of it")
	seconds := flag.Int("seconds", 10, "target length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	bin := flag.String("dgrid", "", "dgrid binary built from the checkout")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, traced bool, root, bin string) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if bin == "" {
		return fmt.Errorf("-dgrid is required")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	// The traced run executes the engine in this process; match the
	// CLI's collector setting so traced and CLI runs are comparable.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	resDir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{ctx: ctx, root: root, bin: bin, work: work, seed: seed, seconds: seconds,
		workers: min(2, runtime.NumCPU()), latency: map[string]latency{}, notes: map[string]float64{}}
	env, err := b.environment()
	if err != nil {
		return err
	}
	defs, fn := endToEnd, w.run
	if traced {
		defs, fn = perLayer, w.trace
	}
	vals, err := fn(b)
	if err != nil {
		return err
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	sort.Strings(b.unobserved)
	rec := record{Workload: workload, Seed: seed, Seconds: seconds, Trace: traced, Env: env, Result: res,
		Latency: b.latency, Unobserved: b.unobserved, Failures: b.failures, Notes: b.notes}
	mode := 0
	if traced {
		mode = 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, mode)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(resDir, stem+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s\n", data)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// environment describes what the result was measured on and with.
func (b *bench) environment() (envInfo, error) {
	ver, err := runCLI(b.ctx, b.bin, "version")
	if err != nil {
		return envInfo{}, err
	}
	src, err := sourceDigest(b.root)
	if err != nil {
		return envInfo{}, err
	}
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", b.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gmp := runtime.GOMAXPROCS(0)
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gmp,
		Workers:    b.workers,
		Go:         runtime.Version(),
		Dgrid:      strings.TrimSpace(string(ver.Stdout)),
		Commit:     commit,
		Source:     src,
	}, nil
}

// sourceDigest hashes go.mod and every Go file under cmd/ and internal/,
// so a result names the code it measured even where no git metadata
// exists.
func sourceDigest(root string) (string, error) {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
