package grid

import (
	"vmdg/internal/boinc"
	"vmdg/internal/netsim"
	"vmdg/internal/sim"
	"vmdg/internal/vmm"
)

// This file is the server-mediated checkpoint-migration layer: what a
// Scenario.Migration policy other than "none" adds on top of the plain
// churn model. Checkpoints move over an internal/netsim star network
// (per-host access links, capacity-limited server frontend), and a
// departed host's work unit can resume on another volunteer instead of
// waiting out the owner's off-gap. Everything here runs inside one
// shard's event loop, so the engine's shard purity — and with it the
// worker-count determinism contract — is untouched: a migration never
// crosses a population slice, just as a real sharded project server
// re-places work within the frontend that holds the checkpoint.
//
// Per-host migration state lives in the slab's cold migHost array
// (slab.go); like host.go, every method here is a hostSlab method on
// the host's slice-local index.

// migSyncPeriod is the eager policy's sync cadence: how often a
// running host pushes an incremental checkpoint to the server.
const migSyncPeriod = 5 * 60 * sim.Second

// migFullBytes models the on-the-wire size of one transportable VM
// checkpoint: the guest RAM image (compressed ~4:1 — checkpoint
// streams are highly redundant) plus the overlay metadata and progress
// file. A native host ships only the worker's own state.
func migFullBytes(prof vmm.Profile) int64 {
	return prof.RAMBytes/4 + 4096
}

// migSyncBytes models one eager incremental sync: the pages dirtied
// since the last push — a fixed fraction of the full image, floored at
// the progress file itself.
func migSyncBytes(prof vmm.Profile) int64 {
	if b := migFullBytes(prof) / 8; b > 4096 {
		return b
	}
	return 4096
}

// migUnit is one server-held checkpoint awaiting placement on a new
// host.
type migUnit struct {
	wu     boinc.WorkUnit
	chunks int   // progress the checkpoint carries
	bytes  int64 // modeled download size at placement
}

// migrator is one shard's migration plane: the netsim network plus the
// server's queue of checkpoints awaiting a volunteer. Placement is
// pull-based — the next host to ask for work (after a completion or a
// power-on) receives the oldest queued checkpoint instead of a fresh
// unit — which keeps the server call sequence exactly as deterministic
// as the plain Assign path.
type migrator struct {
	env     *envShard
	net     *netsim.Network
	pending []migUnit
	eager   bool
}

// newMigrator wires the shard's migration plane onto its simulator.
func newMigrator(env *envShard, s *sim.Simulator) *migrator {
	return &migrator{
		env:   env,
		net:   netsim.New(s, netsim.Config{AggregateBps: env.scn.BandwidthMbps * 1e6}),
		eager: env.scn.Migration == "eager",
	}
}

// enqueue appends a checkpoint to the placement queue.
func (m *migrator) enqueue(mu migUnit) { m.pending = append(m.pending, mu) }

// requeueFront returns a checkpoint whose download died with its
// target host; it keeps its place at the head of the queue.
func (m *migrator) requeueFront(mu migUnit) {
	m.pending = append([]migUnit{mu}, m.pending...)
}

// pop takes the oldest queued checkpoint still worth placing. Units
// the policy has meanwhile validated — a deadline reissue that came
// back, a quorum that completed — are dropped here rather than
// downloaded and recomputed: the server knows its own canon.
func (m *migrator) pop() (migUnit, bool) {
	for len(m.pending) > 0 {
		mu := m.pending[0]
		m.pending = m.pending[1:]
		if m.env.policy.Needed(mu.wu) {
			return mu, true
		}
	}
	return migUnit{}, false
}

// The hosts' transfer kinds: at most one transfer is in flight per
// host, tagged with what it is moving.
const (
	xferNone         = iota
	xferDepartUpload // departing checkpoint moving up to the server
	xferSyncUpload   // eager incremental sync moving up
	xferMigDownload  // migrated checkpoint moving down to a new host
)

// syncState records what the server holds for the host's current unit
// under the eager policy.
type syncState struct {
	seed   uint64
	chunks int
	ok     bool
}

// The migration arms extend the slab's closure-free event vocabulary
// (see armCell in slab.go) to netsim completion sinks.
type (
	departUpSink armCell
	syncUpSink   armCell
	migDownSink  armCell
	syncTimerArm armCell
)

func (a *departUpSink) TransferDone(now sim.Time, t *netsim.Transfer) {
	a.s.departUploadDone(a.i, now, t)
}
func (a *syncUpSink) TransferDone(now sim.Time, t *netsim.Transfer) {
	a.s.syncUploadDone(a.i, now, t)
}
func (a *migDownSink) TransferDone(now sim.Time, t *netsim.Transfer) {
	a.s.migDownloadDone(a.i, now, t)
}
func (a *syncTimerArm) Fire(now sim.Time) { a.s.syncTick(a.i, now) }

// cancelXfer abandons host i's in-flight transfer, crediting the
// bytes the fluid model already moved to the direction's counter —
// the partial traffic occupied the shared frontend all the same.
func (s *hostSlab) cancelXfer(i int32) {
	ms := &s.mig[i]
	t := ms.xfer
	if t == nil {
		return
	}
	s.env.mig.net.Cancel(t) // advances the fluid model to now first
	moved := t.Bytes() - t.Remaining()
	if ms.xferKind == xferMigDownload {
		s.env.stats.MigRxBytes += moved
	} else {
		s.env.stats.MigTxBytes += moved
	}
	ms.xfer, ms.xferKind = nil, xferNone
}

// migDepart runs at power-off, after the eviction rollback has settled
// progress and marked the unit held: whatever transfer the session
// had in flight dies with it, and the scenario's policy decides whether
// the checkpoint leaves the machine.
func (s *hostSlab) migDepart(i int32, now sim.Time, m *migrator) {
	ms := &s.mig[i]
	if ms.xfer != nil {
		wasDownload := ms.xferKind == xferMigDownload
		s.cancelXfer(i)
		if wasDownload {
			// The half-downloaded checkpoint goes back to the head of
			// the queue for the next volunteer.
			m.requeueFront(ms.pendingMig)
			ms.pendingMig = migUnit{}
		}
	}
	ms.syncTimer.Cancel()
	ms.syncTimer = sim.Handle{}
	if !s.hasWork[i] || !s.held[i] {
		return
	}
	kept := int(s.progress[i])
	switch {
	case m.eager:
		// The server migrates its own latest synced copy — available
		// the instant the host departs, but stale relative to the
		// local checkpoint; the staleness is recomputed by the
		// receiving host and accounted as lost chunks here. Without a
		// synced copy for this unit the checkpoint stays local, as
		// under "none".
		if ms.synced.ok && ms.synced.seed == s.wu[i].Seed && ms.synced.chunks > 0 {
			carry := ms.synced.chunks
			if carry > kept {
				carry = kept
			}
			s.env.stats.LostChunks += int64(kept - carry)
			m.enqueue(migUnit{wu: s.wu[i], chunks: carry, bytes: migFullBytes(s.prof())})
			s.clearWork(i)
		}
	case kept > 0:
		// on-departure: the checkpoint must first travel up the
		// host's own uplink; until the upload drains, the unit can
		// still resume locally if the owner returns early.
		ms.xfer = m.net.Start(migFullBytes(s.prof()), ms.upBps, (*departUpSink)(s.arm(i)))
		ms.xferKind = xferDepartUpload
	}
}

// migReturn runs at power-on, before the checkpoint-restore switch: a
// departure upload the owner outran is abandoned (the unit resumes
// locally, exactly as under "none"), and eager hosts restart their
// sync cadence.
func (s *hostSlab) migReturn(i int32, now sim.Time, m *migrator) {
	ms := &s.mig[i]
	if ms.xfer != nil && ms.xferKind == xferDepartUpload {
		s.cancelXfer(i)
	}
	if m.eager {
		s.armSyncTimer(i, now)
	}
}

// departUploadDone fires when a departed host's checkpoint finishes
// draining to the server: the unit now belongs to the server's queue,
// and the local copy is gone for good.
func (s *hostSlab) departUploadDone(i int32, now sim.Time, t *netsim.Transfer) {
	ms := &s.mig[i]
	ms.xfer, ms.xferKind = nil, xferNone
	s.env.stats.MigTxBytes += t.Bytes()
	s.env.mig.enqueue(migUnit{wu: s.wu[i], chunks: int(s.progress[i]), bytes: migFullBytes(s.prof())})
	s.clearWork(i)
}

// beginMigDownload starts pulling a queued checkpoint onto host i.
// Until the download drains the host computes nothing — the work-fetch
// gap a real client pays when it inherits a fat VM image.
func (s *hostSlab) beginMigDownload(i int32, now sim.Time, mu migUnit) {
	ms := &s.mig[i]
	s.hasWork[i] = false
	s.progress[i] = 0
	s.accrued[i] = now
	ms.pendingMig = mu
	ms.xfer = s.env.mig.net.Start(mu.bytes, ms.downBps, (*migDownSink)(s.arm(i)))
	ms.xferKind = xferMigDownload
}

// migDownloadDone resumes the migrated unit at its checkpointed
// progress. The carried chunks are science the grid did not have to
// recompute; they are credited at the receiving host's current rate.
func (s *hostSlab) migDownloadDone(i int32, now sim.Time, t *netsim.Transfer) {
	ms := &s.mig[i]
	mu := ms.pendingMig
	ms.pendingMig = migUnit{}
	ms.xfer, ms.xferKind = nil, xferNone
	st := s.env.stats
	st.Migrations++
	st.MigRxBytes += t.Bytes()
	st.MigSavedChunks += int64(mu.chunks)
	st.MigSavedSec += float64(mu.chunks) / s.rate(i)
	s.wu[i] = mu.wu
	s.progress[i] = float64(mu.chunks)
	s.hasWork[i] = true
	s.accrued[i] = now
	s.scheduleCompletion(i, now)
}

// armSyncTimer schedules host i's next eager sync tick.
func (s *hostSlab) armSyncTimer(i int32, now sim.Time) {
	s.mig[i].syncTimer = s.env.sim.Schedule(now+migSyncPeriod, "mig-sync", (*syncTimerArm)(s.arm(i)))
}

// syncTick pushes an incremental checkpoint to the server when the
// host has new periodic-checkpoint progress to report and no other
// transfer in flight.
func (s *hostSlab) syncTick(i int32, now sim.Time) {
	ms := &s.mig[i]
	ms.syncTimer = sim.Handle{}
	if !s.on[i] {
		return
	}
	s.armSyncTimer(i, now)
	if !s.hasWork[i] || ms.xfer != nil {
		return
	}
	s.accrue(i, now)
	every := s.wu[i].CheckpointEvery
	if every < 1 {
		every = 1
	}
	snap := int(s.progress[i]) / every * every
	if snap <= 0 {
		return
	}
	if ms.synced.ok && ms.synced.seed == s.wu[i].Seed && ms.synced.chunks >= snap {
		return // the server copy is already this fresh
	}
	ms.syncChunks = snap
	ms.xfer = s.env.mig.net.Start(migSyncBytes(s.prof()), ms.upBps, (*syncUpSink)(s.arm(i)))
	ms.xferKind = xferSyncUpload
}

// syncUploadDone records the server's refreshed copy.
func (s *hostSlab) syncUploadDone(i int32, now sim.Time, t *netsim.Transfer) {
	ms := &s.mig[i]
	ms.xfer, ms.xferKind = nil, xferNone
	s.env.stats.MigTxBytes += t.Bytes()
	ms.synced = syncState{seed: s.wu[i].Seed, chunks: ms.syncChunks, ok: true}
}

// migUnitDone runs when the host submits its current unit: a sync
// still in flight is for a dead unit, and the server copy is obsolete.
func (s *hostSlab) migUnitDone(i int32) {
	ms := &s.mig[i]
	if ms.xfer != nil && ms.xferKind == xferSyncUpload {
		s.cancelXfer(i)
	}
	ms.synced = syncState{}
}

// clearWork strips host i of its unit after the server took it over.
func (s *hostSlab) clearWork(i int32) {
	s.wu[i] = boinc.WorkUnit{}
	s.progress[i] = 0
	s.hasWork[i] = false
	s.held[i] = false
	s.mig[i].synced = syncState{}
}
