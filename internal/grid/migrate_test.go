package grid

import (
	"testing"

	"vmdg/internal/boinc"
	"vmdg/internal/sim"
)

// migTestEnv builds a hand-wired shard environment with the migration
// plane enabled, bypassing calibration (rates are pinned to 1 chunk/s
// in both owner states so flips cannot perturb progress arithmetic).
func migTestEnv(t *testing.T, migration string) (*envShard, *sim.Simulator) {
	t.Helper()
	// 800-chunk units checkpoint every 100 chunks — at the pinned
	// 1 chunk/s rate a sync period crosses three checkpoint boundaries
	// but no unit completes inside a test window.
	scn := Scenario{
		Machines: 4, Minutes: 120, Seed: 1,
		Policy: "fifo", ChunksPerUnit: 800,
		Migration: migration, Envs: []string{"vmplayer"},
	}.Normalize()
	s := sim.New()
	env := &envShard{
		scn:    scn,
		prof:   profByName(t, "vmplayer"),
		sim:    s,
		policy: newPolicy(scn, "t", 500),
		stats:  &EnvStats{Env: "vmplayer"},
	}
	env.mig = newMigrator(env, s)
	return env, s
}

// migTestSlab returns a hand-built slab of n hosts on env. The class is
// cloned with an essentially infinite off-gap so a test-driven powerOff
// never races a scheduled power-on against the transfer under test;
// every host gets a 1 MB/s link each way.
func migTestSlab(t *testing.T, env *envShard, n int) *hostSlab {
	t.Helper()
	class := Classes()[0]
	class.MeanOffMin = 1e6 // ≈ two years: the scheduled power-on never lands in a test window
	sl := testSlab(env, 0, n, class)
	for i := 0; i < n; i++ {
		sl.mig[i].upBps, sl.mig[i].downBps = 8e6, 8e6 // 1 MB/s each way
	}
	return sl
}

// TestMigrationOnDepartureRoundTrip walks the whole on-departure path:
// eviction rollback, checkpoint upload at the departing host's uplink,
// server-side queueing, pull-based placement on the next host to ask
// for work, download at the receiver's downlink, and resumption at the
// checkpointed progress.
func TestMigrationOnDepartureRoundTrip(t *testing.T) {
	env, s := migTestEnv(t, "on-departure")
	sl := migTestSlab(t, env, 2)
	const src, dst = 0, 1
	sl.on[src], sl.hasWork[src] = true, true
	sl.wu[src] = boinc.WorkUnit{Seed: 501, Chunks: 100_000, CheckpointEvery: 100}
	sl.progress[src], sl.accrued[src] = 351, 10*sim.Second

	sl.powerOff(src, 10*sim.Second)
	if sl.mig[src].xfer == nil || sl.mig[src].xferKind != xferDepartUpload {
		t.Fatal("departure did not start a checkpoint upload")
	}
	if len(env.mig.pending) != 0 {
		t.Fatal("checkpoint queued before its upload drained")
	}
	// ~78.6 MB at 1 MB/s: the upload drains well before 120 s… of margin.
	s.RunUntil(200 * sim.Second)
	if len(env.mig.pending) != 1 {
		t.Fatalf("queue holds %d checkpoints after the upload, want 1", len(env.mig.pending))
	}
	if sl.hasWork[src] || sl.held[src] {
		t.Fatal("departed host still owns the unit after the server took it")
	}
	if env.stats.MigTxBytes == 0 {
		t.Fatal("upload moved no accounted bytes")
	}
	if mu := env.mig.pending[0]; mu.chunks != 300 || mu.wu.Seed != 501 {
		t.Fatalf("queued checkpoint carries %d chunks of unit %d, want 300 of 501", mu.chunks, mu.wu.Seed)
	}

	sl.powerOn(dst, s.Now(), true)
	if sl.hasWork[dst] || sl.mig[dst].xferKind != xferMigDownload {
		t.Fatal("receiving host did not start the migration download")
	}
	s.RunUntil(400 * sim.Second)
	st := env.stats
	if st.Migrations != 1 || st.MigSavedChunks != 300 || st.MigRxBytes == 0 {
		t.Fatalf("migration accounting wrong: %+v", st)
	}
	if !sl.hasWork[dst] || sl.wu[dst].Seed != 501 || sl.progress[dst] != 300 {
		t.Fatalf("unit did not resume at its checkpoint: wu=%d progress=%v", sl.wu[dst].Seed, sl.progress[dst])
	}
	if st.MigSavedSec != 300 { // 300 chunks at the pinned 1 chunk/s
		t.Fatalf("saved recompute %v s, want 300", st.MigSavedSec)
	}
}

// TestMigrationReturnBeforeUploadResumesLocally: the owner coming back
// mid-upload outruns the migration — the transfer is abandoned and the
// unit resumes from the local checkpoint, exactly as under "none".
func TestMigrationReturnBeforeUploadResumesLocally(t *testing.T) {
	env, s := migTestEnv(t, "on-departure")
	sl := migTestSlab(t, env, 1)
	sl.on[0], sl.hasWork[0] = true, true
	sl.wu[0] = boinc.WorkUnit{Seed: 501, Chunks: 100_000, CheckpointEvery: 100}
	sl.progress[0], sl.accrued[0] = 351, 10*sim.Second

	sl.powerOff(0, 10*sim.Second)
	s.RunUntil(12 * sim.Second) // a sliver of the ~79 s upload
	sl.powerOn(0, s.Now(), true)
	if sl.mig[0].xfer != nil || len(env.mig.pending) != 0 {
		t.Fatal("abandoned upload still in flight or queued")
	}
	if !sl.hasWork[0] || sl.progress[0] != 300 || sl.wu[0].Seed != 501 {
		t.Fatalf("local resume failed: progress=%v wu=%d", sl.progress[0], sl.wu[0].Seed)
	}
	if env.stats.Restores != 1 || env.stats.Migrations != 0 {
		t.Fatalf("stats after local resume: %+v", env.stats)
	}
	// The upload's drained portion occupied the frontend and stays
	// accounted; the full checkpoint does not.
	if tx := env.stats.MigTxBytes; tx <= 0 || tx >= migFullBytes(env.prof) {
		t.Fatalf("partial upload accounted %d bytes, want a proper fraction of %d", tx, migFullBytes(env.prof))
	}
}

// TestMigrationEagerSyncThenInstantDeparture: eager hosts push
// incremental checkpoints on a timer; a departure then migrates the
// server's copy with no upload delay, charging the staleness (chunks
// past the last sync) to LostChunks.
func TestMigrationEagerSyncThenInstantDeparture(t *testing.T) {
	env, s := migTestEnv(t, "eager")
	sl := migTestSlab(t, env, 1)
	sl.powerOn(0, 0, true) // assigns a fresh fifo unit, arms the sync timer
	if !sl.hasWork[0] {
		t.Fatal("power-on assigned no work")
	}
	every := sl.wu[0].CheckpointEvery

	// One sync period at 1 chunk/s: progress 300, synced snapshot is
	// the last periodic checkpoint boundary below it.
	s.RunUntil(migSyncPeriod + 60*sim.Second) // sync tick + upload drain
	if !sl.mig[0].synced.ok || sl.mig[0].synced.seed != sl.wu[0].Seed {
		t.Fatalf("no server copy after a sync period: %+v", sl.mig[0].synced)
	}
	wantSnap := int(300) / every * every
	if sl.mig[0].synced.chunks != wantSnap {
		t.Fatalf("synced %d chunks, want %d", sl.mig[0].synced.chunks, wantSnap)
	}
	if env.stats.MigTxBytes == 0 {
		t.Fatal("sync moved no accounted bytes")
	}

	lostBefore := env.stats.LostChunks
	seed := sl.wu[0].Seed
	off := s.Now() + 10*sim.Second
	sl.accrue(0, off) // pin progress at the departure instant
	sl.powerOff(0, off)
	if len(env.mig.pending) != 1 {
		t.Fatal("eager departure did not queue the server copy instantly")
	}
	if mu := env.mig.pending[0]; mu.chunks != wantSnap || mu.wu.Seed != seed {
		t.Fatalf("queued copy carries %d chunks of %d, want %d of %d", mu.chunks, mu.wu.Seed, wantSnap, seed)
	}
	if sl.hasWork[0] || sl.held[0] {
		t.Fatal("departed eager host kept its unit")
	}
	// Rollback loss plus staleness: everything past the synced snapshot.
	if lost := env.stats.LostChunks - lostBefore; lost <= 0 {
		t.Fatalf("staleness charged %d lost chunks, want > 0", lost)
	}
}

// TestMigrationDownloadInterruptedRequeues: a receiving host departing
// mid-download returns the checkpoint to the head of the queue for the
// next volunteer.
func TestMigrationDownloadInterruptedRequeues(t *testing.T) {
	env, s := migTestEnv(t, "on-departure")
	env.mig.enqueue(migUnit{wu: boinc.WorkUnit{Seed: 901, Chunks: 100_000, CheckpointEvery: 100}, chunks: 400, bytes: 50_000_000})

	sl := migTestSlab(t, env, 1)
	sl.powerOn(0, 0, true)
	if sl.mig[0].xferKind != xferMigDownload {
		t.Fatal("queued checkpoint not pulled")
	}
	s.RunUntil(5 * sim.Second) // 50 MB at 1 MB/s: nowhere near done
	sl.powerOff(0, s.Now())
	if len(env.mig.pending) != 1 || env.mig.pending[0].wu.Seed != 901 {
		t.Fatalf("interrupted download not requeued: %+v", env.mig.pending)
	}
	if env.stats.Migrations != 0 {
		t.Fatalf("aborted download counted as a migration: %+v", env.stats)
	}
	// The ~5 MB that drained before the abort occupied the frontend and
	// stays accounted; the full 50 MB does not.
	if rx := env.stats.MigRxBytes; rx < 4_000_000 || rx > 6_000_000 {
		t.Fatalf("partial download accounted %d bytes, want ≈5 MB", rx)
	}
}

// TestMigrationDropsValidatedUnits: a queued checkpoint whose unit the
// policy validated in the meantime (deadline reissue) is dropped at
// placement time — no download, no migration credit, fresh work
// assigned instead.
func TestMigrationDropsValidatedUnits(t *testing.T) {
	env, _ := migTestEnv(t, "on-departure")
	env.policy = newPolicy(Scenario{Policy: "deadline", DeadlineMin: 1, ChunksPerUnit: 800}.Normalize(), "t", 700)

	const goneHost, rescuer = 7, 8
	wu := env.policy.Assign(goneHost, 0)
	env.mig.enqueue(migUnit{wu: wu, chunks: 400, bytes: 50_000_000})
	// A deadline reissue beats the migration queue to it.
	rescued := env.policy.Assign(rescuer, 2*60*sim.Second)
	if rescued.Seed != wu.Seed {
		t.Fatalf("overdue unit not reissued: %d vs %d", rescued.Seed, wu.Seed)
	}
	env.policy.Submit(rescuer, rescued, resultFor(rescued), 3*60*sim.Second)

	sl := migTestSlab(t, env, 1)
	sl.powerOn(0, 4*60*sim.Second, true)
	if sl.mig[0].xferKind == xferMigDownload {
		t.Fatal("validated unit still migrated")
	}
	if !sl.hasWork[0] || sl.wu[0].Seed == wu.Seed {
		t.Fatalf("host did not receive fresh work: %+v", sl.wu[0])
	}
	if len(env.mig.pending) != 0 {
		t.Fatal("stale checkpoint left in the queue")
	}
	if env.stats.Migrations != 0 || env.stats.MigRxBytes != 0 {
		t.Fatalf("dropped checkpoint credited: %+v", env.stats)
	}
}

// TestMigrationQueueOrder: placements come off the queue oldest-first,
// and an interrupted download goes back to the head, not the tail.
func TestMigrationQueueOrder(t *testing.T) {
	env, _ := migTestEnv(t, "on-departure")
	m := env.mig
	for seed := uint64(1); seed <= 3; seed++ {
		m.enqueue(migUnit{wu: boinc.WorkUnit{Seed: seed}})
	}
	first, ok := m.pop()
	if !ok || first.wu.Seed != 1 {
		t.Fatalf("pop = %v, want unit 1", first.wu.Seed)
	}
	m.requeueFront(first)
	for want := uint64(1); want <= 3; want++ {
		mu, ok := m.pop()
		if !ok || mu.wu.Seed != want {
			t.Fatalf("pop = %v, want unit %d", mu.wu.Seed, want)
		}
	}
	if _, ok := m.pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestMigStateBytes: VM-backed environments ship a RAM-image-sized
// checkpoint; the native baseline ships only worker state, and the
// incremental sync is a fraction of the full image.
func TestMigStateBytes(t *testing.T) {
	vm := profByName(t, "vmplayer")
	native := profByName(t, "native")
	if full := migFullBytes(vm); full <= vm.RAMBytes/8 || full > vm.RAMBytes {
		t.Fatalf("vmplayer checkpoint %d bytes outside the plausible band for %d RAM", full, vm.RAMBytes)
	}
	if full := migFullBytes(native); full != 4096 {
		t.Fatalf("native checkpoint %d bytes, want the bare progress file", full)
	}
	if s, f := migSyncBytes(vm), migFullBytes(vm); s >= f || s < 4096 {
		t.Fatalf("sync %d bytes vs full %d", s, f)
	}
}
