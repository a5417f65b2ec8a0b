package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"vmdg/internal/core"
	"vmdg/internal/engine"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		// Two overlapping children (concurrent workers) cover [10,50).
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Start: 200, End: 230},
	}
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 30}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}

// smallSweep is a few-shard quick sweep, cheap enough for a unit test.
func smallSweep(t *testing.T) (engine.Experiment, []kernelShard, core.Config) {
	t.Helper()
	sp, err := buildSpec(7, true, "machines=16..32*2", "minutes=10", "churn=false,true", "envs=vmplayer,qemu")
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewSweep("sweep", "command-line scenario sweep", sp)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := sweepKernel(sp)
	if err != nil {
		t.Fatal(err)
	}
	return e, ks, core.Config{Seed: sp.Seed, Quick: sp.Quick}
}

// The decorators forward ShardScopes and Fold exactly when the wrapped
// experiment has them, so a traced run takes the runner's same paths
// and prints the same bytes.
func TestTracedRunIsByteIdentical(t *testing.T) {
	e, ks, cfg := smallSweep(t)
	if len(ks) != e.Shards(cfg) {
		t.Fatalf("kernel lists %d shards, the sweep %d", len(ks), e.Shards(cfg))
	}
	tr := NewTracer()
	w := wrapExperiment(e, tr, 0, 1, ks)
	if _, ok := w.(engine.ShardScoper); !ok {
		t.Error("traced sweep lost ShardScopes")
	}
	if _, ok := w.(engine.Folder); !ok {
		t.Error("traced sweep lost Fold")
	}
	for s := 0; s < e.Shards(cfg); s++ {
		want, err := e.RunShard(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.RunShard(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("shard %d: traced payload differs", s)
		}
	}

	plain := &engine.Runner{Workers: 2, Cache: engine.NewMemCache()}
	outs, _, err := plain.Run(cfg, []engine.Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	tr = NewTracer()
	touts, st, tc, err := tracedRun(context.Background(), tr, 1,
		&engine.Runner{Workers: 2, Cache: engine.NewMemCache()}, cfg, []engine.Experiment{e}, [][]kernelShard{ks})
	if err != nil {
		t.Fatal(err)
	}
	if touts[0].Render() != outs[0].Render() || touts[0].CSV() != outs[0].CSV() || string(touts[0].Raw) != string(outs[0].Raw) {
		t.Fatal("traced run's outcome differs from the untraced run's")
	}
	counts := map[string]int{}
	for _, s := range tr.Spans() {
		counts[s.Name]++
		if s.Req != 1 {
			t.Errorf("span %s carries request %d, want 1", s.Name, s.Req)
		}
	}
	n := e.Shards(cfg)
	for name, want := range map[string]int{
		"engine.run": 1, "experiment.run_shard": n, "grid.run_shard": n,
		"cache.get": n, "cache.put": n, "fold.absorb": n, "fold.finish": 1,
	} {
		if counts[name] != want {
			t.Errorf("%d %s spans, want %d", counts[name], name, want)
		}
	}
	if st.Misses != n || len(tc.Keys()) != n {
		t.Errorf("stats %+v, %d keys; want %d misses and keys", st, len(tc.Keys()), n)
	}
}

// An experiment without per-shard scopes or a fold stays that way when
// traced.
func TestTracedPlainExperiment(t *testing.T) {
	e, ok := engine.Default.Lookup("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}
	w := wrapExperiment(e, NewTracer(), 0, 1, nil)
	if _, ok := w.(engine.ShardScoper); ok {
		t.Error("traced fig2 gained ShardScopes")
	}
	if _, ok := w.(engine.Folder); ok {
		t.Error("traced fig2 gained Fold")
	}
}

func TestTraceHandlerMatchesRequestIDs(t *testing.T) {
	tr := NewTracer()
	h := traceHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), tr)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", nil)
	req.Header.Set(reqHeader, "42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Req != 42 || spans[0].Tag != "/v1/sweeps" || spans[0].Name != "serve.handler" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestServeMixIsAFunctionOfTheSeed(t *testing.T) {
	w1, r1 := serveMix(3, 200)
	w2, r2 := serveMix(3, 200)
	_, r3 := serveMix(4, 200)
	if len(w1) != serveWarmSpecs || len(r1) != 200 {
		t.Fatalf("%d warm-up, %d requests", len(w1), len(r1))
	}
	differs := false
	cold := map[string]bool{}
	for i := range r1 {
		if string(r1[i].body) != string(r2[i].body) || r1[i].sse != r2[i].sse || string(w1[i%serveWarmSpecs].body) != string(w2[i%serveWarmSpecs].body) {
			t.Fatalf("request %d differs between two mixes of one seed", i)
		}
		if string(r1[i].body) != string(r3[i].body) || r1[i].sse != r3[i].sse {
			differs = true
		}
		if r1[i].warm < 0 {
			if cold[string(r1[i].body)] {
				t.Fatalf("cold spec repeated: %s", r1[i].body)
			}
			cold[string(r1[i].body)] = true
		}
	}
	if !differs {
		t.Error("seeds 3 and 4 gave the same mix")
	}
	if len(cold) != 200/serveColdEvery {
		t.Errorf("%d cold requests, want %d", len(cold), 200/serveColdEvery)
	}
}
