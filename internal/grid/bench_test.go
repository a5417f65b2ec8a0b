package grid

import "testing"

// benchScn is one full shard (ShardSize hosts) over a working day —
// the unit the fleet benchmark harness scales up. Quick calibration
// keeps the setup cost out of the measured loop via the process-wide
// memoization.
func benchScn(churn bool) Scenario {
	return Scenario{
		Machines: ShardSize, Minutes: 480, Seed: 1, Quick: true,
		Churn: churn, FaultyFrac: 0.02, Envs: []string{"vmplayer"},
	}.Normalize()
}

func benchRunShard(b *testing.B, scn Scenario) {
	if _, err := RunShard(scn, 0); err != nil { // warm the calibration cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunShard(scn, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hostSeconds := float64(scn.Machines) * float64(b.N)
	b.ReportMetric(hostSeconds/b.Elapsed().Seconds(), "hosts/s")
}

func BenchmarkRunShardSteady(b *testing.B) { benchRunShard(b, benchScn(false)) }
func BenchmarkRunShardChurn(b *testing.B)  { benchRunShard(b, benchScn(true)) }

// BenchmarkRunShardReplication is the churn shard under 2-way quorum
// replication with a tenth of the hosts faulty, the shape that drives
// boinc.Project's top-up scan.
func BenchmarkRunShardReplication(b *testing.B) {
	scn := benchScn(true)
	scn.Policy, scn.Replication, scn.FaultyFrac = "replication", 2, 0.1
	benchRunShard(b, scn.Normalize())
}
