package grid

import (
	"fmt"

	"vmdg/internal/boinc"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
)

// EnvStats is the aggregate outcome of one environment over one (or,
// after merging, every) shard. All fields are plain sums or fixed-bin
// histograms, so merging shard stats in shard order is deterministic.
type EnvStats struct {
	Env   string
	Hosts int

	Policy PolicyStats

	// Evictions counts VMs powered off mid-unit; Restores counts
	// checkpoint restorations on return; LostChunks is science rolled
	// back to the last periodic checkpoint.
	Evictions  int
	Restores   int
	LostChunks int64

	// OnSeconds and ActiveSeconds accumulate host power-on time and
	// owner-active time across the population.
	OnSeconds     float64
	ActiveSeconds float64

	// Latency is the interactive-burst latency distribution while
	// owners were active (the paper's intrusiveness metric).
	Latency Histogram

	// Checkpoint migration over the modeled network (all zero when the
	// scenario's migration policy is "none", so plain payloads keep
	// their pre-migration JSON form): units re-placed onto a new host,
	// bytes moved through the server frontend in each direction —
	// including the transferred portion of transfers cancelled
	// mid-flight, which occupied the shared frontend all the same —
	// and the recompute the carried progress spared the receiving
	// hosts.
	Migrations     int     `json:",omitempty"`
	MigTxBytes     int64   `json:",omitempty"`
	MigRxBytes     int64   `json:",omitempty"`
	MigSavedChunks int64   `json:",omitempty"`
	MigSavedSec    float64 `json:",omitempty"`

	// Fired counts simulator events, a determinism probe.
	Fired uint64
}

// merge folds other (the same environment from another shard) into s.
func (s *EnvStats) merge(other *EnvStats) {
	s.Hosts += other.Hosts
	s.Policy.add(other.Policy)
	s.Evictions += other.Evictions
	s.Restores += other.Restores
	s.LostChunks += other.LostChunks
	s.OnSeconds += other.OnSeconds
	s.ActiveSeconds += other.ActiveSeconds
	s.Latency.Merge(&other.Latency)
	s.Migrations += other.Migrations
	s.MigTxBytes += other.MigTxBytes
	s.MigRxBytes += other.MigRxBytes
	s.MigSavedChunks += other.MigSavedChunks
	s.MigSavedSec += other.MigSavedSec
	s.Fired += other.Fired
}

// ShardResult is the JSON-serializable payload of one shard: one
// (environment, population slice) cell. Envs is a slice for merge
// symmetry with the fleet result; RunShard fills exactly one entry.
type ShardResult struct {
	Shard int
	Hosts int
	Envs  []*EnvStats
}

// envShard bundles the per-(shard, environment) loop state the host
// state machines mutate.
type envShard struct {
	scn    Scenario
	prof   vmm.Profile
	sim    *sim.Simulator
	policy Policy
	stats  *EnvStats
	// slice is the population-slice index, seeding the shard-level
	// grouped-settling stream.
	slice int
	// mig is the shard's checkpoint-migration plane (netsim network +
	// server-side placement queue); nil when the scenario's migration
	// policy is "none", which keeps that path byte-identical to the
	// pre-migration simulator.
	mig *migrator
	// batch is set when the policy is timeFree: hosts settle unit
	// completions arithmetically instead of firing completion events.
	// Migration makes work assignment time- and cross-host-dependent
	// (the server queue), so migrating shards always run event-driven.
	batch bool
}

// batchCompletions gates the timeFree settle fast path. Tests flip it
// off to check the settled and event-driven paths produce identical
// statistics.
var batchCompletions = true

// batchSettleBursts gates the grouped (per-class) burst settling at
// the horizon. Tests flip it off to pin the grouped path against the
// per-host reference (identical total counts, KS/percentile-equivalent
// latency distribution, byte-identical everything else).
var batchSettleBursts = true

// RunShard simulates shard i of the scenario: one environment over one
// slice of the population (shards enumerate environments in scenario
// order, population slices within each). It is a pure function of
// (scn, shard) — the contract the engine's content-keyed cache relies
// on.
func RunShard(scn Scenario, shard int) (*ShardResult, error) {
	scn = scn.Normalize()
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= scn.Shards() {
		return nil, fmt.Errorf("grid: shard %d outside [0, %d)", shard, scn.Shards())
	}
	n := scn.popShards()
	prof := scn.envProfiles()[shard/n]
	slice := shard % n
	lo, hi := scn.HostRange(slice)
	st, err := runEnvShard(scn, prof, slice, lo, hi)
	if err != nil {
		return nil, err
	}
	return &ShardResult{Shard: shard, Hosts: hi - lo, Envs: []*EnvStats{st}}, nil
}

// runEnvShard runs one environment's event loop over hosts [lo, hi).
// The hosts live in the worker's recycled arena slab (slab.go): a
// million-host fleet is a few thousand slab resets on a handful of
// arenas, not millions of individual allocations.
func runEnvShard(scn Scenario, prof vmm.Profile, shard, lo, hi int) (*EnvStats, error) {
	classes := Classes()
	arena := acquireArena()
	defer arena.release()
	s := arena.sim
	horizon := sim.Time(scn.Minutes) * 60 * sim.Second
	prefix := fmt.Sprintf("s%03d-%s", shard, prof.Name)
	env := &envShard{
		scn:    scn,
		prof:   prof,
		sim:    s,
		policy: newPolicy(scn, prefix, envSeed(scn.Seed, prof.Name, -1-shard)),
		stats:  &EnvStats{Env: prof.Name, Hosts: hi - lo},
		slice:  shard,
	}
	_, free := env.policy.(timeFree)
	env.batch = free && batchCompletions && scn.Migration == "none"
	migrates := scn.Migration != "none"
	if migrates {
		env.mig = newMigrator(env, s)
	}

	slab := &arena.slab
	slab.reset(env, lo, hi-lo, classes, migrates)

	// Calibrations are resolved once per class actually present in the
	// shard, in first-met order; every host of the class shares the
	// same read-only pointer.
	seen := make([]bool, len(classes))
	order := make([]int, 0, len(classes))
	for g := lo; g < hi; g++ {
		ci := classIndexFor(classes, scn.Seed, g)
		slab.classIdx[g-lo] = uint8(ci)
		if !seen[ci] {
			seen[ci] = true
			order = append(order, ci)
		}
	}
	every := boinc.CheckpointCadence(scn.ChunksPerUnit)
	if err := calCache.resolve(classes, order, prof, scn.Seed, every, scn.Quick, slab.cals); err != nil {
		return nil, err
	}

	for g := lo; g < hi; g++ {
		i := int32(g - lo)
		class := &classes[slab.classIdx[i]]
		slab.ownerRNG[i] = *sim.NewRNG(hostSeed(scn.Seed, g))
		slab.envRNG[i] = *sim.NewRNG(envSeed(scn.Seed, prof.Name, g))
		slab.faulty[i] = slab.ownerRNG[i].Float64() < scn.FaultyFrac
		if migrates {
			ms := &slab.mig[i]
			ms.upBps, ms.downBps = hostLinkBps(class, scn.Seed, g)
		}

		if !scn.Churn {
			slab.powerOn(i, 0, slab.stationaryActive(i))
			continue
		}
		// Stationary start: on with the class's long-run availability
		// (owner present per their long-run presence), otherwise
		// returning after a residual off-gap.
		pOn := class.MeanOnMin / (class.MeanOnMin + class.MeanOffMin)
		if slab.ownerRNG[i].Float64() < pOn {
			slab.powerOn(i, 0, slab.stationaryActive(i))
		} else {
			s.Schedule(slab.exp(i, class.MeanOffMin), "power-on", (*powerOnArm)(slab.arm(i)))
		}
	}

	s.RunUntil(horizon)
	for i := int32(0); int(i) < slab.n; i++ {
		slab.finalize(i, horizon)
	}
	if batchSettleBursts {
		slab.drainBurstsGrouped()
	} else {
		for i := int32(0); int(i) < slab.n; i++ {
			slab.drainBursts(i)
		}
	}
	env.stats.Policy = env.policy.Stats()
	env.stats.Fired = s.Fired()
	return env.stats, nil
}

// hostID formats a host's global identity ("h%06d", wider populations
// growing digits on the left) without fmt's reflection overhead —
// fleet setup builds millions of these.
func hostID(g int) string {
	b := make([]byte, 0, 12)
	b = append(b, 'h')
	return string(boinc.AppendPaddedIndex(b, g))
}
