package grid

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vmdg/internal/boinc"
	"vmdg/internal/cost"
	"vmdg/internal/hostos"
	"vmdg/internal/hw"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
)

// interactiveBurst is one interactive task: 40 ms of mixed compute
// issued once per second — an editor keystroke storm, a page render.
// It matches the burst the original fleet command used, so the
// intrusiveness numbers stay comparable.
const interactiveBurst = 0.040 * 2.4e9

// Calibration is the detailed-stack measurement for one (class,
// environment) pair: the sandboxed worker's science rate with the
// owner active and away, and the empirical interactive-burst latency
// distribution while the VM runs.
type Calibration struct {
	// ActiveChunksPerSec / IdleChunksPerSec are the worker's chunk
	// rates with the owner hammering the machine vs away from it.
	ActiveChunksPerSec float64
	IdleChunksPerSec   float64
	// BurstMs holds the measured interactive-burst latencies (ms)
	// under the running VM; the fleet resamples from it.
	BurstMs []float64
	// bins is BurstMs collapsed onto the latency histogram's bin
	// layout — the categorical distribution aggregate burst sampling
	// draws its multinomials from. Derived once at calibration time and
	// shared read-only by every host of the (class, environment) pair.
	bins []burstBin
}

// burstDist returns the binned burst distribution, deriving it on the
// fly for hand-built calibrations (tests) that skip calibrate.
func (c *Calibration) burstDist() []burstBin {
	if c.bins != nil {
		return c.bins
	}
	return binBursts(c.BurstMs)
}

// calKey identifies one memoized calibration.
type calKey struct {
	class, env string
	seed       uint64
	ckptEvery  int
	quick      bool
}

// calEntry is one memoized calibration. The first goroutine to claim
// it runs the micro-simulation; every other one waits on done.
type calEntry struct {
	claimed atomic.Bool
	done    chan struct{}
	val     Calibration
	err     error
}

// calMemo memoizes calibrations by key, values and errors alike.
// compute is calibrate outside tests.
type calMemo struct {
	m       sync.Map // calKey -> *calEntry
	compute func(class *Class, prof vmm.Profile, seed uint64, ckptEvery int, quick bool) (Calibration, error)
}

// calCache shares calibrations across every shard in the process.
var calCache = &calMemo{compute: calibrate}

// resolve fills cals[ci] for every class index in order (the order a
// shard first meets its classes) and returns the first error in that
// order. It resolves claim-then-wait: first it runs every calibration
// no other goroutine has claimed, then it waits for the rest. Workers
// starting on the same environment thus compute its classes side by
// side instead of queueing on one another. A calibration is a pure
// function of its key, so which goroutine computes it never matters.
func (c *calMemo) resolve(classes []Class, order []int, prof vmm.Profile, seed uint64, ckptEvery int, quick bool, cals []*Calibration) error {
	entries := make([]*calEntry, len(order))
	for j, ci := range order {
		k := calKey{class: classes[ci].Name, env: prof.Name, seed: seed, ckptEvery: ckptEvery, quick: quick}
		v, _ := c.m.LoadOrStore(k, &calEntry{done: make(chan struct{})})
		e := v.(*calEntry)
		entries[j] = e
		if e.claimed.CompareAndSwap(false, true) {
			e.val, e.err = c.compute(&classes[ci], prof, seed, ckptEvery, quick)
			close(e.done)
		}
	}
	for j, e := range entries {
		<-e.done
		if e.err != nil {
			return e.err
		}
		cals[order[j]] = &e.val
	}
	return nil
}

// calibrate runs the full hw/hostos/vmm/boinc stack for one machine of
// the class under the environment: a warmup, a window with the owner
// issuing bursts once per second, then a window with the owner away.
func calibrate(class *Class, prof vmm.Profile, seed uint64, ckptEvery int, quick bool) (Calibration, error) {
	warmup, window := 5*sim.Second, 45*sim.Second
	if quick {
		window = 12 * sim.Second
	}

	s := sim.New()
	mseed := splitmix(hostSeed(seed, 0) ^ envSeed(seed, class.Name+"/"+prof.Name, 1))
	mc, err := hw.NewMachine(s, hw.Config{CPU: class.CPU, Seed: mseed})
	if err != nil {
		return Calibration{}, fmt.Errorf("grid: calibrating %s/%s: %w", class.Name, prof.Name, err)
	}
	host := hostos.Boot(mc)

	vm, err := vmm.New(host, vmm.Config{Prof: prof})
	if err != nil {
		return Calibration{}, fmt.Errorf("grid: calibrating %s/%s: %w", class.Name, prof.Name, err)
	}
	// A work unit far too large to finish, checkpointing at the
	// fleet's real interval so the disk overhead is represented.
	wu := boinc.WorkUnit{ID: "cal", Seed: mseed, Chunks: 1 << 30, CheckpointEvery: ckptEvery}
	worker := boinc.NewWorker(boinc.Progress{WorkUnit: wu})
	vm.SpawnGuest("einstein", worker)
	vm.PowerOn(hostos.PrioIdle)

	// The owner's interactive workload, switchable per phase.
	var bursts []float64
	bursting := true
	user := host.NewProcess("user")
	var issue func()
	issue = func() {
		if !bursting {
			return
		}
		start := s.Now()
		prog := &cost.Profile{Name: "burst", Steps: []cost.Step{
			{Kind: cost.StepCompute, Cycles: interactiveBurst, Mix: cost.Mix{Int: 0.5, Mem: 0.3, FP: 0.2}},
		}}
		th := host.Spawn(user, "burst", hostos.PrioNormal, prog.Iter())
		th.OnExit = func() {
			if s.Now() >= warmup {
				bursts = append(bursts, (s.Now()-start).Seconds()*1000)
			}
		}
		s.After(sim.Second, "user-think", issue)
	}
	s.After(100*sim.Millisecond, "user-start", issue)

	chunks := func() float64 {
		return float64(worker.UnitsDone())*float64(wu.Chunks) + float64(worker.State.ChunksDone)
	}

	host.RunFor(warmup)
	c0 := chunks()
	host.RunFor(window)
	c1 := chunks()
	bursting = false // owner leaves; pending think-time events fizzle
	host.RunFor(window)
	c2 := chunks()
	vm.PowerOff()

	cal := Calibration{
		ActiveChunksPerSec: (c1 - c0) / window.Seconds(),
		IdleChunksPerSec:   (c2 - c1) / window.Seconds(),
		BurstMs:            bursts,
		bins:               binBursts(bursts),
	}
	if len(cal.BurstMs) == 0 {
		return Calibration{}, fmt.Errorf("grid: calibration of %s/%s produced no burst samples", class.Name, prof.Name)
	}
	if cal.IdleChunksPerSec <= 0 || cal.ActiveChunksPerSec <= 0 {
		return Calibration{}, fmt.Errorf("grid: calibration of %s/%s produced a non-positive chunk rate", class.Name, prof.Name)
	}
	return cal, nil
}
