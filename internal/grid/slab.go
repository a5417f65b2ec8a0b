package grid

import (
	"sync"

	"vmdg/internal/boinc"
	"vmdg/internal/netsim"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
)

// hostSlab holds one shard's population in struct-of-arrays form: every
// per-host field lives in its own contiguous array, indexed by the
// host's slice-local index. The event loop of a shard walks a handful
// of hot arrays (flags, progress, accrual clocks, RNG states) that pack
// tens of hosts per cache line, instead of striding over ~300-byte host
// records whose cold tail (migration state) evicts the hot fields. A
// host has no identity object at all anymore — its global index is
// s.lo + i, and the "h%06d" name is formatted only at the rare points
// that need a string (the quorum policy's project ledger).
//
// The slab also eliminates the last per-shard allocations: its arrays
// (and the simulator they feed) live in a per-worker arena (see
// shardArena) and are recycled across the shards a worker executes, so
// a million-host fleet steady-states at zero allocations per event and
// near-zero per shard.
type hostSlab struct {
	env *envShard
	lo  int // global index of local host 0
	n   int

	// Hot state, one array per field.
	on            []bool
	active        []bool
	hasWork       []bool
	faulty        []bool
	classIdx      []uint8
	progress      []float64
	accrued       []sim.Time
	phaseStart    []sim.Time
	onStart       []sim.Time
	pendingBursts []int64
	ownerRNG      []sim.RNG
	envRNG        []sim.RNG
	wu            []boinc.WorkUnit
	completion    []sim.Handle
	flip          []sim.Handle
	// held marks a powered-off host whose unit survives in wu/progress
	// as its worker's last checkpoint, to resume on the next power-on.
	held []bool

	// arms gives every host one stable address the closure-free event
	// arms alias (see armCell); scheduling any of a host's event kinds
	// allocates nothing.
	arms []armCell

	// Per-class tables shared by every host of the class.
	classes []Class
	cals    []*Calibration

	// mig is the cold per-host migration state, allocated only when the
	// scenario migrates checkpoints; the hot loop never touches it.
	mig []migHost
}

// migHost is one host's checkpoint-migration state (see migrate.go).
// It is cold by construction: scenarios with Migration "none" never
// allocate the slab, and migrating shards touch it only at transfer
// boundaries, never per simulation event.
type migHost struct {
	upBps, downBps float64
	xfer           *netsim.Transfer
	xferKind       uint8
	pendingMig     migUnit
	synced         syncState
	syncChunks     int
	syncTimer      sim.Handle
}

// armCell is the closure-free event target for one host: a (slab,
// index) pair at a stable address. The per-kind arm types below are
// named aliases of armCell, so converting &s.arms[i] to any of them is
// a free pointer conversion and storing the result in a sim.Caller or
// netsim.Sink interface does not allocate — the slab generalizes the
// pointer-alias trick the old per-host struct used.
type armCell struct {
	s *hostSlab
	i int32
}

type (
	completeArm armCell
	flipArm     armCell
	powerOnArm  armCell
	powerOffArm armCell
)

func (a *completeArm) Fire(now sim.Time) { a.s.complete(a.i, now) }
func (a *flipArm) Fire(now sim.Time)     { a.s.doFlip(a.i, now) }
func (a *powerOnArm) Fire(now sim.Time)  { a.s.powerOn(a.i, now, true) }
func (a *powerOffArm) Fire(now sim.Time) { a.s.powerOff(a.i, now) }

// arm returns host i's stable arm cell.
func (s *hostSlab) arm(i int32) *armCell { return &s.arms[i] }

// gid is host i's global population index.
func (s *hostSlab) gid(i int32) int { return s.lo + int(i) }

// class and cal resolve host i's shared per-class tables.
func (s *hostSlab) class(i int32) *Class     { return &s.classes[s.classIdx[i]] }
func (s *hostSlab) cal(i int32) *Calibration { return s.cals[s.classIdx[i]] }
func (s *hostSlab) prof() vmm.Profile        { return s.env.prof }

// reset sizes every array for n hosts and zeroes the per-host state,
// reusing the arrays' capacity from the arena's previous shard. The
// class tables are cleared too — calibrations are re-resolved per shard
// (they are memoized process-wide, so this costs a map hit per class).
func (s *hostSlab) reset(env *envShard, lo, n int, classes []Class, migrates bool) {
	s.env, s.lo, s.n = env, lo, n
	s.on = resize(s.on, n)
	s.active = resize(s.active, n)
	s.hasWork = resize(s.hasWork, n)
	s.faulty = resize(s.faulty, n)
	s.classIdx = resize(s.classIdx, n)
	s.progress = resize(s.progress, n)
	s.accrued = resize(s.accrued, n)
	s.phaseStart = resize(s.phaseStart, n)
	s.onStart = resize(s.onStart, n)
	s.pendingBursts = resize(s.pendingBursts, n)
	s.ownerRNG = resize(s.ownerRNG, n)
	s.envRNG = resize(s.envRNG, n)
	s.wu = resize(s.wu, n)
	s.completion = resize(s.completion, n)
	s.flip = resize(s.flip, n)
	s.held = resize(s.held, n)
	s.arms = resize(s.arms, n)
	for i := range s.arms {
		s.arms[i] = armCell{s: s, i: int32(i)}
	}
	s.classes = classes
	s.cals = resize(s.cals, len(classes))
	if migrates {
		s.mig = resize(s.mig, n)
	} else {
		s.mig = nil
	}
}

// scrub drops the pointer-bearing state a recycled slab must not
// retain: work-unit IDs, transfer pointers, calibrations and the shard
// environment. Scalar arrays keep their (stale) contents — reset zeroes
// them on the next acquire.
func (s *hostSlab) scrub() {
	s.env = nil
	clear(s.wu)
	clear(s.mig)
	clear(s.cals)
	s.classes = nil
}

// resize returns sl with length n and zeroed contents, growing the
// backing array only when the arena has never held a shard this large.
func resize[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	sl = sl[:n]
	clear(sl)
	return sl
}

// shardArena is the per-worker scratch space RunShard executes in: one
// SoA slab plus one simulator, recycled through a sync.Pool. Pools are
// per-P under the hood, so a pool worker keeps re-acquiring the arena
// it just warmed — the arrays it touches stay in its own cache (and, on
// multi-socket machines, its own NUMA node) instead of bouncing between
// cores. Steady state, a worker simulates shard after shard with zero
// allocations for hosts, events, or the event queue.
type shardArena struct {
	slab hostSlab
	sim  *sim.Simulator
}

var arenaPool = sync.Pool{
	New: func() any { return &shardArena{sim: sim.New()} },
}

// acquireArena returns a (possibly recycled) arena.
func acquireArena() *shardArena { return arenaPool.Get().(*shardArena) }

// release scrubs and returns the arena to the pool.
func (a *shardArena) release() {
	a.sim.Reset()
	a.slab.scrub()
	arenaPool.Put(a)
}
