package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// Span is one timed call into a layer, recorded from outside the layer.
// Spans of one operation (a run, a replay, a request) share Req; Parent
// is the span that made the call (0 at the root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Tag refines the name (an experiment, a shard's cache scope, a
	// request class); Count carries a layer's own work count (simulator
	// events for grid shards).
	Tag   string `json:"tag,omitempty"`
	Count int64  `json:"count,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory; nothing is written until WriteFile.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now reads the tracer's monotonic clock in nanoseconds.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// NewID reserves a span id, so children can name their parent before
// the parent's span is recorded.
func (t *Tracer) NewID() int64 { return t.ids.Add(1) }

// Record stores a finished span.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes maps each span id to its self time: the span's duration
// minus the part of its interval that its children cover. Children may
// run concurrently on several workers, so the covered part is the union
// of their intervals, clipped to the parent's.
func SelfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64
		hi = s.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// tracedExperiment times every call into an experiment from outside.
// The embedded Experiment forwards Name, Title, Kind, Scope, Shards and
// Merge; wrapExperiment adds ShardScopes and Fold exactly when the
// wrapped experiment has them, so the runner takes the same paths
// (per-shard cache scopes, streaming fold) it takes without tracing.
type tracedExperiment struct {
	engine.Experiment
	tr          *Tracer
	parent, req int64
	// points, when set, lets RunShard call grid.RunShard itself, so the
	// kernel's time is measured apart from payload encoding. It holds
	// each shard's scenario (before the config's seed and quick apply)
	// and scope-local index.
	points []kernelShard
	// scopes caches ShardScopes for span tags.
	scopeOnce sync.Once
	scopes    []string
}

// kernelShard is one flat shard of a sweep: its scenario and local
// shard index.
type kernelShard struct {
	scn   grid.Scenario
	local int
}

// sweepKernel lists every flat shard of the sweep the spec describes,
// in the order engine.NewSweep numbers them.
func sweepKernel(spec grid.Spec) ([]kernelShard, error) {
	pts, err := spec.Normalize().Points()
	if err != nil {
		return nil, err
	}
	var ks []kernelShard
	for _, pt := range pts {
		for local := 0; local < pt.Scenario.Shards(); local++ {
			ks = append(ks, kernelShard{scn: pt.Scenario, local: local})
		}
	}
	return ks, nil
}

// wrapExperiment returns e traced. points may be nil (see
// tracedExperiment.points).
func wrapExperiment(e engine.Experiment, tr *Tracer, parent, req int64, points []kernelShard) engine.Experiment {
	t := &tracedExperiment{Experiment: e, tr: tr, parent: parent, req: req, points: points}
	_, scoper := e.(engine.ShardScoper)
	_, folder := e.(engine.Folder)
	switch {
	case scoper && folder:
		return tracedScoperFolder{t}
	case scoper:
		return tracedScoper{t}
	case folder:
		return tracedFolder{t}
	}
	return t
}

type tracedScoper struct{ *tracedExperiment }

func (t tracedScoper) ShardScopes(cfg core.Config) ([]string, []int) { return t.shardScopes(cfg) }

type tracedFolder struct{ *tracedExperiment }

func (t tracedFolder) Fold(cfg core.Config) (engine.Fold, error) { return t.fold(cfg) }

type tracedScoperFolder struct{ *tracedExperiment }

func (t tracedScoperFolder) ShardScopes(cfg core.Config) ([]string, []int) { return t.shardScopes(cfg) }
func (t tracedScoperFolder) Fold(cfg core.Config) (engine.Fold, error)     { return t.fold(cfg) }

func (t *tracedExperiment) shardScopes(cfg core.Config) ([]string, []int) {
	scopes, locals := t.Experiment.(engine.ShardScoper).ShardScopes(cfg)
	t.scopeOnce.Do(func() { t.scopes = scopes })
	return scopes, locals
}

func (t *tracedExperiment) fold(cfg core.Config) (engine.Fold, error) {
	f, err := t.Experiment.(engine.Folder).Fold(cfg)
	if err != nil {
		return nil, err
	}
	return &tracedFold{inner: f, t: t}, nil
}

// tag names a shard for the span: the experiment plus, for experiments
// with per-shard scopes, the shard's scope (which spells out its
// scenario: churn, policy, migration).
func (t *tracedExperiment) tag(shard int) string {
	if shard < len(t.scopes) {
		return t.Name() + " " + t.scopes[shard]
	}
	return t.Name()
}

// RunShard records an "experiment.run_shard" span. With a kernel it
// also records the "grid.run_shard" child and encodes the result the
// way the sweep experiment does (json.Marshal of the shard result), so
// the payload bytes are the same.
func (t *tracedExperiment) RunShard(cfg core.Config, shard int) ([]byte, error) {
	id, start := t.tr.NewID(), t.tr.Now()
	var (
		payload []byte
		err     error
	)
	if t.points != nil && shard < len(t.points) {
		ks := t.points[shard]
		scn := ks.scn
		scn.Seed, scn.Quick = cfg.Seed, cfg.Quick
		gstart := t.tr.Now()
		var res *grid.ShardResult
		res, err = grid.RunShard(scn, ks.local)
		var events uint64
		kind := "steady"
		if scn.Churn {
			kind = "churn"
		}
		if res != nil {
			for _, st := range res.Envs {
				events += st.Fired
			}
		}
		t.tr.Record(Span{ID: t.tr.NewID(), Parent: id, Req: t.req, Name: "grid.run_shard",
			Start: gstart, End: t.tr.Now(), Tag: kind, Count: int64(events)})
		if err == nil {
			payload, err = json.Marshal(res)
		}
	} else {
		payload, err = t.Experiment.RunShard(cfg, shard)
	}
	end := t.tr.Now()
	tag := t.tag(shard)
	var events uint64
	if t.points == nil && err == nil && strings.Contains(tag, "fleet|") {
		// A fleet shard run through the experiment: read its event
		// count back from the payload, outside the timed interval.
		events, _ = payloadEvents(payload)
	}
	t.tr.Record(Span{ID: id, Parent: t.parent, Req: t.req, Name: "experiment.run_shard",
		Start: start, End: end, Tag: tag, Count: int64(events)})
	return payload, err
}

// tracedFold times Absorb and Finish.
type tracedFold struct {
	inner engine.Fold
	t     *tracedExperiment
}

func (f *tracedFold) Absorb(shard int, payload []byte) error {
	start := f.t.tr.Now()
	err := f.inner.Absorb(shard, payload)
	f.t.tr.Record(Span{ID: f.t.tr.NewID(), Parent: f.t.parent, Req: f.t.req, Name: "fold.absorb",
		Start: start, End: f.t.tr.Now()})
	return err
}

func (f *tracedFold) Finish() (*engine.Outcome, error) {
	start := f.t.tr.Now()
	o, err := f.inner.Finish()
	f.t.tr.Record(Span{ID: f.t.tr.NewID(), Parent: f.t.parent, Req: f.t.req, Name: "fold.finish",
		Start: start, End: f.t.tr.Now()})
	return o, err
}

// tracedCache times Get and Put and remembers every key it saw, so the
// disk-tier probe can read the same entries back.
type tracedCache struct {
	inner       engine.Cache
	tr          *Tracer
	parent, req int64
	mu          sync.Mutex
	keys        map[string]bool
}

func newTracedCache(inner engine.Cache, tr *Tracer, parent, req int64) *tracedCache {
	return &tracedCache{inner: inner, tr: tr, parent: parent, req: req, keys: map[string]bool{}}
}

func (c *tracedCache) Get(key string) ([]byte, bool) {
	start := c.tr.Now()
	b, ok := c.inner.Get(key)
	tag := "miss"
	if ok {
		tag = "hit"
	}
	c.tr.Record(Span{ID: c.tr.NewID(), Parent: c.parent, Req: c.req, Name: "cache.get",
		Start: start, End: c.tr.Now(), Tag: tag})
	c.remember(key)
	return b, ok
}

func (c *tracedCache) Put(key string, payload []byte) {
	start := c.tr.Now()
	c.inner.Put(key, payload)
	c.tr.Record(Span{ID: c.tr.NewID(), Parent: c.parent, Req: c.req, Name: "cache.put",
		Start: start, End: c.tr.Now()})
	c.remember(key)
}

func (c *tracedCache) remember(key string) {
	c.mu.Lock()
	c.keys[key] = true
	c.mu.Unlock()
}

// Keys returns every key seen, sorted.
func (c *tracedCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ks := make([]string, 0, len(c.keys))
	for k := range c.keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// reqHeader carries the client's request id to the handler middleware,
// so a handler span can be matched with the client's latency.
const reqHeader = "X-Bench-Req"

// traceHandler records a "serve.handler" span around every request
// next serves, tagged with the request's path.
func traceHandler(next http.Handler, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := tr.Now()
		next.ServeHTTP(w, r)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		tr.Record(Span{ID: tr.NewID(), Req: req, Name: "serve.handler",
			Start: start, End: tr.Now(), Tag: r.URL.Path})
	})
}

// tracedRun runs exps through a runner whose experiments and cache are
// traced, under one "engine.run" span.
func tracedRun(ctx context.Context, tr *Tracer, req int64, r *engine.Runner, cfg core.Config,
	exps []engine.Experiment, kernels [][]kernelShard) ([]*engine.Outcome, engine.Stats, *tracedCache, error) {
	id, start := tr.NewID(), tr.Now()
	traced := *r
	var tc *tracedCache
	if r.Cache != nil {
		tc = newTracedCache(r.Cache, tr, id, req)
		traced.Cache = tc
	}
	wrapped := make([]engine.Experiment, len(exps))
	for i, e := range exps {
		var ks []kernelShard
		if i < len(kernels) {
			ks = kernels[i]
		}
		wrapped[i] = wrapExperiment(e, tr, id, req, ks)
	}
	outs, st, err := traced.RunContext(ctx, cfg, wrapped)
	tr.Record(Span{ID: id, Req: req, Name: "engine.run", Start: start, End: tr.Now()})
	return outs, st, tc, err
}
