package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/serve"
)

// serve-mixed: `dgrid serve -workers 2` on a fresh cache, driven closed
// loop by two clients (sweep callers wait for their answer). About nine
// requests in ten repeat one of a few pre-warmed specs, half of them
// over SSE; the rest each ask for a never-seen small churn spec, so
// cache writes interleave with reads. It measures HTTP and SSE, the
// memory tier, and the per-request manifest journal.

const (
	serveClients      = 2
	serveWarmSpecs    = 4
	serveColdEvery    = 10 // one request in ten is cold
	serveStarts       = 5  // set-up runs this often; setup_s is the median
	serveReqsPer10s   = 5000
	minServeRequests  = 5000
	serveWarmMachines = 48   // warm spec k simulates 48+16k hosts
	serveColdMachines = 3000 // cold spec j simulates 3000+j hosts
	serveColdMinutes  = 120
)

// serveReq is one request of the mix.
type serveReq struct {
	id   int64
	body []byte
	sse  bool
	warm int // index of the warm spec, or -1 for a cold spec
}

func serveBody(machines, minutes int, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"spec":{"version":1,"quick":true,"envs":["vmplayer"],"machines":[%d],`+
		`"minutes":[%d],"churn":[true],"policy":["fifo"]},"seed":%d}`, machines, minutes, seed))
}

func serveRequests(seconds int) int { return max(minServeRequests, seconds*serveReqsPer10s/10) }

// serveMix derives the warm-up requests (one per warm spec) and the
// measured mix of n requests from the seed. Every seed asks for the
// same set of cold specs, in its own order.
func serveMix(seed uint64, n int) (warmup, reqs []serveReq) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	s := simSeed(seed)
	for k := 0; k < serveWarmSpecs; k++ {
		warmup = append(warmup, serveReq{id: int64(n + 1 + k), warm: k,
			body: serveBody(serveWarmMachines+16*k, 30, s)})
	}
	nCold := n / serveColdEvery
	cold := make([]bool, n)
	for i := range nCold {
		cold[i] = true
	}
	rng.Shuffle(n, func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	order := rng.Perm(nCold)
	c := 0
	for i := range n {
		r := serveReq{id: int64(i + 1), sse: rng.IntN(2) == 0, warm: -1}
		if cold[i] {
			r.body = serveBody(serveColdMachines+order[c], serveColdMinutes, s)
			c++
		} else {
			r.warm = rng.IntN(serveWarmSpecs)
			r.body = warmup[r.warm].body
		}
		reqs = append(reqs, r)
	}
	return warmup, reqs
}

// serveAns is one answered request.
type serveAns struct {
	lat, ttff float64 // ms; ttff only for SSE
	stats     serve.RunStats
	sha       string // of the table, CSV and JSON artifacts
	err       error
}

func newServeClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true,
	}}
}

func doRequest(ctx context.Context, hc *http.Client, base string, r serveReq) (a serveAns) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps", bytes.NewReader(r.body))
	if err != nil {
		return serveAns{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatInt(r.id, 10))
	if r.sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return serveAns{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return serveAns{err: fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	var res serve.SweepResult
	if r.sse {
		res, a.ttff, err = readSSE(resp.Body, t0)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&res)
		io.Copy(io.Discard, resp.Body)
	}
	a.lat = ms(time.Since(t0))
	if err != nil {
		a.err = err
		return a
	}
	if res.Table == "" || res.CSV == "" || len(res.JSON) == 0 {
		a.err = fmt.Errorf("request %d: empty artifact", r.id)
		return a
	}
	h := sha256.New()
	for _, part := range []string{res.Table, res.CSV, string(res.JSON)} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	a.sha, a.stats = hex.EncodeToString(h.Sum(nil)), res.Stats
	return a
}

// readSSE reads frames up to the terminal "result" frame, timing the
// first frame.
func readSSE(body io.Reader, t0 time.Time) (res serve.SweepResult, ttff float64, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var event, data string
	first := true
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			if first {
				ttff, first = ms(time.Since(t0)), false
			}
			switch event {
			case "result":
				return res, ttff, json.Unmarshal([]byte(data), &res)
			case "error":
				return res, ttff, fmt.Errorf("error frame: %s", data)
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return res, ttff, err
	}
	return res, ttff, io.ErrUnexpectedEOF
}

// drive sends reqs from serveClients closed-loop clients: client c
// sends requests c, c+serveClients, ... each after the previous one
// was answered.
func drive(ctx context.Context, hc *http.Client, base string, reqs []serveReq) ([]serveAns, time.Duration) {
	ans := make([]serveAns, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += serveClients {
				ans[i] = doRequest(ctx, hc, base, reqs[i])
			}
		}()
	}
	wg.Wait()
	return ans, time.Since(start)
}

// session is one daemon lifetime as the benchmark sees it: started on
// a fresh cache, warmed, then driven.
type session struct {
	base     string
	pins     map[int]string // warm spec → artifact digest
	misses   int            // Σ misses over every answered request
	answered int            // requests answered 200
}

// warm sends the warm-up requests and pins each warm spec's artifacts.
func (s *session) warm(b *bench, hc *http.Client, warmup []serveReq) error {
	s.pins = map[int]string{}
	for _, r := range warmup {
		a := doRequest(b.ctx, hc, s.base, r)
		if a.err != nil {
			return fmt.Errorf("warm-up: %w", a.err)
		}
		s.pins[r.warm] = a.sha
		s.misses += a.stats.Misses
		s.answered++
	}
	return nil
}

// check verifies every answer of the measured phase: warm answers are
// pure cache replays with the pinned artifacts, cold answers computed.
func (s *session) check(b *bench, reqs []serveReq, ans []serveAns) {
	for i, a := range ans {
		r := reqs[i]
		b.attempted++
		switch {
		case a.err != nil:
			b.fail("request %d: %v", r.id, a.err)
			continue
		case r.warm >= 0 && (a.stats.Misses != 0 || a.sha != s.pins[r.warm]):
			b.fail("request %d: warm spec %d answered with %d computed shards or a different artifact",
				r.id, r.warm, a.stats.Misses)
		case r.warm < 0 && a.stats.Misses == 0:
			b.fail("request %d: never-seen spec was not computed", r.id)
		}
		s.misses += a.stats.Misses
		s.answered++
	}
}

// account checks the daemon's books once it is idle: every computed
// shard became exactly one cache entry, every admitted run ended in
// exactly one of completed, canceled or failed, and nothing was
// refused or lost.
func (s *session) account(b *bench, hc *http.Client) (health, error) {
	var h health
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := getJSON(hc, s.base+"/healthz", &h); err != nil {
			return h, err
		}
		if h.ActiveRuns == 0 {
			break
		}
		if time.Now().After(deadline) {
			b.check(false, "active runs did not drain: %d", h.ActiveRuns)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var cache struct {
		Entries int `json:"entries"`
	}
	if err := getJSON(hc, s.base+"/v1/cache", &cache); err != nil {
		return h, err
	}
	c := h.Sweeps
	b.check(s.misses == cache.Entries, "accounting: Σmisses %d != %d cache entries", s.misses, cache.Entries)
	b.check(c.Admitted == c.Completed+c.Canceled+c.Failed,
		"accounting: admitted %d != completed %d + canceled %d + failed %d", c.Admitted, c.Completed, c.Canceled, c.Failed)
	b.check(c.Completed == uint64(s.answered), "accounting: %d completed runs, %d answers", c.Completed, s.answered)
	b.check(c.Rejected == 0, "accounting: %d requests refused with 429", c.Rejected)
	return h, nil
}

// classes splits the answers' latencies by outcome class and collects
// SSE time to first frame.
func classes(reqs []serveReq, ans []serveAns) (warm, cold, ttff []float64) {
	for i, a := range ans {
		if a.err != nil {
			continue
		}
		if reqs[i].warm >= 0 {
			warm = append(warm, a.lat)
		} else {
			cold = append(cold, a.lat)
		}
		if reqs[i].sse {
			ttff = append(ttff, a.ttff)
		}
	}
	return warm, cold, ttff
}

func (b *bench) recordServeLatency(reqs []serveReq, ans []serveAns) {
	warm, cold, ttff := classes(reqs, ans)
	b.latency["warm"], b.latency["cold"], b.latency["ttff"] = summarize(warm), summarize(cold), summarize(ttff)
}

func runServeMixed(b *bench) (map[string]float64, error) {
	warmup, reqs := serveMix(b.seed, serveRequests(b.seconds))
	hc := newServeClient()
	defer hc.CloseIdleConnections()
	var (
		d      *daemon
		s      *session
		setups []float64
	)
	for i := 0; i < serveStarts; i++ {
		start := time.Now()
		var err error
		d, err = startDaemon(b.bin, filepath.Join(b.work, "serve-"+strconv.Itoa(i)), b.workers)
		if err != nil {
			return nil, err
		}
		s = &session{base: d.base}
		if err := s.warm(b, hc, warmup); err != nil {
			d.kill()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < serveStarts-1 {
			hc.CloseIdleConnections()
			if _, err := d.stop(30 * time.Second); err != nil {
				return nil, err
			}
		}
	}
	cpu0, err := d.cpu()
	if err != nil {
		d.kill()
		return nil, err
	}
	ans, wall := drive(b.ctx, hc, d.base, reqs)
	cpu1, err := d.cpu()
	if err != nil {
		d.kill()
		return nil, err
	}
	s.check(b, reqs, ans)
	if _, err := s.account(b, hc); err != nil {
		d.kill()
		return nil, err
	}
	hc.CloseIdleConnections()
	rss, err := d.stop(30 * time.Second)
	if err != nil {
		return nil, err
	}
	b.recordServeLatency(reqs, ans)
	b.notes["peak_rss_mb"] = rss
	return map[string]float64{
		"setup_s":   median(setups),
		"wall_s":    wall.Seconds(),
		"ops_per_s": float64(len(reqs)) / wall.Seconds(),
		"cpu_s":     (cpu1 - cpu0).Seconds(),
	}, nil
}

// inProcServer is serve.Server in this process, the traced run's
// stand-in for the daemon: the same construction as `dgrid serve`,
// optionally with the tracing middleware around Handler().
type inProcServer struct {
	srv  *http.Server
	pool *engine.Pool
	fc   *engine.FileCache
	log  *os.File
	base string
	done chan error
}

func startInProc(dir string, workers int, tr *Tracer) (*inProcServer, error) {
	fc, err := engine.NewFileCache(dir)
	if err != nil {
		return nil, err
	}
	fc.EnableMemTier(engine.DefaultMemTierBytes)
	fc.Prune(engine.DefaultMaxAge, engine.DefaultMaxBytes)
	// The daemon's log goes to the null device, as in runServeMixed.
	logf, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	pool := engine.NewPool(workers)
	s := &serve.Server{Pool: pool, Cache: fc, Resume: true, Log: slog.New(slog.NewTextHandler(logf, nil))}
	h := s.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		logf.Close()
		return nil, err
	}
	p := &inProcServer{srv: &http.Server{Handler: h}, pool: pool, fc: fc, log: logf,
		base: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.srv.Serve(l) }()
	return p, nil
}

func (p *inProcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	<-p.done
	p.pool.Close()
	p.log.Close()
	return err
}

// servePass is one in-process session: start, warm, drive, account.
type servePass struct {
	ans    []serveAns
	wall   time.Duration
	pins   map[int]string
	before health
	after  health
	mem    engine.MemTierStats
}

func (b *bench) servePass(dir string, tr *Tracer, warmup, reqs []serveReq) (servePass, error) {
	var sp servePass
	p, err := startInProc(dir, b.workers, tr)
	if err != nil {
		return sp, err
	}
	defer p.stop()
	hc := newServeClient()
	defer hc.CloseIdleConnections()
	s := &session{base: p.base}
	if err := s.warm(b, hc, warmup); err != nil {
		return sp, err
	}
	if err := getJSON(hc, p.base+"/healthz", &sp.before); err != nil {
		return sp, err
	}
	sp.ans, sp.wall = drive(b.ctx, hc, p.base, reqs)
	s.check(b, reqs, sp.ans)
	if sp.after, err = s.account(b, hc); err != nil {
		return sp, err
	}
	sp.pins = s.pins
	sp.mem, _ = p.fc.MemStats()
	return sp, nil
}

// serveKeys computes the cache keys of every spec in the mix, for the
// disk-tier probe.
func serveKeys(reqs []serveReq) ([]string, error) {
	seen := map[string]bool{}
	var keys []string
	for _, r := range reqs {
		if seen[string(r.body)] {
			continue
		}
		seen[string(r.body)] = true
		var sr serve.SweepRequest
		if err := json.Unmarshal(r.body, &sr); err != nil {
			return nil, err
		}
		sp, err := sr.Resolve()
		if err != nil {
			return nil, err
		}
		e, err := engine.NewSweep("sweep", "", sp)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{Seed: sp.Seed, Quick: sp.Quick}
		scopes, locals := e.(engine.ShardScoper).ShardScopes(cfg)
		for i := range scopes {
			keys = append(keys, engine.CacheKey(scopes[i], cfg, locals[i]))
		}
	}
	return keys, nil
}

func traceServeMixed(b *bench) (map[string]float64, error) {
	warmup, reqs := serveMix(b.seed, serveRequests(b.seconds))
	tr := NewTracer()
	cal, err := calibrationProbe(tr, simSeed(b.seed), true)
	if err != nil {
		return nil, err
	}
	passes := make([]servePass, len(passTraced))
	walls := make([]time.Duration, len(passTraced))
	for i := range passes {
		dir := filepath.Join(b.work, "serve-pass"+strconv.Itoa(i))
		if passes[i], err = b.servePass(dir, passTracer(i, tr), warmup, reqs); err != nil {
			return nil, err
		}
		walls[i] = passes[i].wall
	}
	// Traced and untraced daemons must answer every request with the
	// same artifacts.
	for i := 1; i < len(passes); i++ {
		for k, pin := range passes[0].pins {
			b.check(passes[i].pins[k] == pin, "pass %d: warm spec %d artifact differs", i, k)
		}
		for j := range reqs {
			if reqs[j].warm < 0 {
				b.check(passes[i].ans[j].sha == passes[0].ans[j].sha,
					"pass %d: request %d artifact differs from pass 0", i, reqs[j].id)
			}
		}
	}
	traced := passes[1]
	b.recordServeLatency(reqs, traced.ans)
	sl := &serveLayer{class: map[int64]string{}, clientMS: map[int64]float64{},
		memHitRatio: traced.mem.HitRate(),
		admitted:    traced.after.Sweeps.Admitted - traced.before.Sweeps.Admitted,
		rejected:    traced.after.Sweeps.Rejected - traced.before.Sweeps.Rejected}
	for j, a := range traced.ans {
		if a.err != nil {
			continue
		}
		class := "warm"
		if a.stats.Misses > 0 {
			class = "cold"
		}
		sl.class[reqs[j].id], sl.clientMS[reqs[j].id] = class, a.lat
		sl.hits += a.stats.Hits
		sl.misses += a.stats.Misses
	}
	spans := tr.Spans()
	keys, err := serveKeys(append(append([]serveReq(nil), warmup...), reqs...))
	if err != nil {
		return nil, err
	}
	getUS, err := cacheGetProbe(tr, filepath.Join(b.work, "serve-pass1"), keys)
	if err != nil {
		return nil, err
	}
	return b.finishTrace(tr, "serve-mixed", layerInput{
		spans: spans, ops: len(reqs), workers: b.workers,
		calibrateMS: cal, getUS: getUS, overheadMS: ms(overhead(walls)), serve: sl,
	})
}
