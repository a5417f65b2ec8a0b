package main

import (
	"strings"

	"vmdg/internal/engine"
)

// layerInput is everything a traced run measured, besides its spans.
type layerInput struct {
	spans []Span
	// ops is the number of traced operations; per-operation metrics
	// are means over them. workers is the runner's pool size.
	ops, workers int
	stats        []engine.Stats // one per traced engine run
	// calibrateMS is the calibration probe; getUS the disk-tier probe.
	calibrateMS float64
	getUS       []float64
	// overheadMS is the traced wall minus the untraced wall.
	overheadMS float64
	// serve is set for the serve workload.
	serve *serveLayer
}

// serveLayer is what the traced serve run measured around Handler().
type serveLayer struct {
	// class and clientMS give each request id its outcome class
	// ("warm" or "cold") and its client-side latency.
	class              map[int64]string
	clientMS           map[int64]float64
	memHitRatio        float64
	admitted, rejected uint64
	hits, misses       int
}

// layerMetrics turns a traced run into the per-layer metrics. A metric
// with no samples on this workload reads 0 and is returned in
// unobserved.
func layerMetrics(in layerInput) (vals map[string]float64, unobserved []string) {
	vals = map[string]float64{}
	observed := map[string]bool{}
	set := func(name string, v float64, ok bool) {
		vals[name] = v
		if ok {
			observed[name] = true
		}
	}
	ops := float64(max(in.ops, 1))
	self := SelfTimes(in.spans)

	var (
		gridMS          = map[string][]float64{}
		gridNS, events  = map[string]float64{}, map[string]float64{}
		totalEvents     float64
		encodeNS        float64
		putNS, absorbNS float64
		runNS, runSelf  float64
		taskNS, maxTask float64
		renderNS        float64
		reportNS        float64
		fig2            []float64
		figuresNS       float64
		replication     []float64
		eager           []float64
		getByReq        = map[int64]float64{}
		absorbByReq     = map[int64]float64{}
		hasGrid         = map[int64]bool{}
		renders, runs   int
		reports         int
		handlers        = map[string][]float64{}
		transport       []float64
		sawShard        bool
	)
	for _, s := range in.spans {
		if s.Name == "grid.run_shard" {
			hasGrid[s.Parent] = true
		}
	}
	for _, s := range in.spans {
		d := float64(s.Dur())
		switch s.Name {
		case "grid.run_shard":
			gridMS[s.Tag] = append(gridMS[s.Tag], d/1e6)
			gridNS[s.Tag] += d
			events[s.Tag] += float64(s.Count)
			totalEvents += float64(s.Count)
		case "experiment.run_shard":
			sawShard = true
			taskNS += d
			maxTask = max(maxTask, d)
			totalEvents += float64(s.Count)
			if hasGrid[s.ID] {
				encodeNS += float64(self[s.ID])
			}
			switch {
			case strings.HasPrefix(s.Tag, "fig2 ") || s.Tag == "fig2":
				fig2 = append(fig2, d/1e6)
			case strings.Contains(s.Tag, "policy=replication"):
				replication = append(replication, d/1e6)
			case strings.Contains(s.Tag, "mig=eager"):
				eager = append(eager, d/1e6)
			}
			if !strings.Contains(s.Tag, "fleet|") {
				figuresNS += d
			}
		case "cache.get":
			taskNS += d
			getByReq[s.Req] += d
		case "cache.put":
			taskNS += d
			putNS += d
		case "fold.absorb":
			absorbNS += d
			absorbByReq[s.Req] += d
		case "engine.run":
			runNS += d
			runSelf += float64(self[s.ID])
			runs++
		case "engine.render":
			renderNS += d
			renders++
		case "report.render":
			reportNS += d
			reports++
		case "serve.handler":
			if in.serve == nil || s.Tag != "/v1/sweeps" {
				continue
			}
			if c, ok := in.serve.class[s.Req]; ok {
				handlers[c] = append(handlers[c], d/1e6)
				transport = append(transport, in.serve.clientMS[s.Req]-d/1e6)
			}
		}
	}

	set("grid.calibrate_ms", in.calibrateMS, in.calibrateMS > 0)
	for _, kind := range []string{"steady", "churn"} {
		v, ok := percentile(gridMS[kind], 0.5)
		set("grid.shard_ms."+kind, v, ok)
		var nsPer float64
		if events[kind] > 0 {
			nsPer = gridNS[kind] / events[kind]
		}
		set("sim.ns_per_event."+kind, nsPer, events[kind] > 0)
	}
	set("grid.shard_ms.replication", mean(replication), len(replication) > 0)
	set("grid.shard_ms.eager", mean(eager), len(eager) > 0)
	set("sim.events", totalEvents, totalEvents > 0)
	set("engine.encode_ms", encodeNS/1e6/ops, len(hasGrid) > 0)
	set("engine.cache_put_ms", putNS/1e6/ops, putNS > 0)
	v, ok := percentile(in.getUS, 0.5)
	set("engine.cache_get_us_p50", v, ok)
	set("engine.fold_absorb_ms", absorbNS/1e6/ops, absorbNS > 0)
	set("engine.render_ms", renderNS/1e6/float64(max(renders, 1)), renders > 0)
	set("report.render_ms", reportNS/1e6/float64(max(reports, 1)), reports > 0)
	set("engine.run_self_ms", runSelf/1e6/float64(max(runs, 1)), runs > 0)

	// Replay overhead: the part of a pure-replay run's Elapsed that is
	// neither reading the cache nor folding — planning, manifest
	// verification, the journal, the collector.
	var replayNS float64
	var replays int
	for i, st := range in.stats {
		if st.Misses == 0 && st.Shards > 0 {
			req := int64(i + 1)
			replayNS += float64(st.Elapsed) - getByReq[req] - absorbByReq[req]
			replays++
		}
	}
	set("engine.replay_overhead_ms", replayNS/1e6/float64(max(replays, 1)), replays > 0)

	var util float64
	if runNS > 0 && in.workers > 0 {
		util = taskNS / (runNS * float64(in.workers))
	}
	set("engine.pool_util", util, sawShard && runNS > 0)
	set("engine.critical_path_s", maxTask/1e9, sawShard)
	set("core.shard_ms.fig2", mean(fig2), len(fig2) > 0)
	set("core.figures_busy_s", figuresNS/1e9, figuresNS > 0)

	var hits, misses, resumed int
	for _, st := range in.stats {
		hits += st.Hits
		misses += st.Misses
		resumed += st.Resumed
	}
	engineSeen := len(in.stats) > 0
	if in.serve != nil {
		hits, misses, engineSeen = in.serve.hits, in.serve.misses, true
	}
	set("engine.hits", float64(hits), engineSeen)
	set("engine.misses", float64(misses), engineSeen)
	set("engine.resumed", float64(resumed), len(in.stats) > 0)

	for _, c := range []string{"warm", "cold"} {
		v, ok := percentile(handlers[c], 0.5)
		set("serve.handler_ms_p50."+c, v, ok)
	}
	v, ok = percentile(transport, 0.5)
	set("serve.transport_ms_p50", v, ok)
	if s := in.serve; s != nil {
		set("engine.memtier_hit_ratio", s.memHitRatio, true)
		set("serve.admitted", float64(s.admitted), true)
		set("serve.rejected", float64(s.rejected), true)
	} else {
		set("engine.memtier_hit_ratio", 0, false)
		set("serve.admitted", 0, false)
		set("serve.rejected", 0, false)
	}
	set("trace.overhead_ms", in.overheadMS, true)

	for _, d := range perLayer {
		if !observed[d.name] {
			unobserved = append(unobserved, d.name)
		}
	}
	return vals, unobserved
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
