package main

import (
	"context"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDgrid compiles the CLI under test once per test binary run.
func buildDgrid(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds dgrid")
	}
	bin := filepath.Join(t.TempDir(), "dgrid")
	if out, err := exec.Command("go", "build", "-o", bin, "vmdg/cmd/dgrid").CombinedOutput(); err != nil {
		t.Fatalf("building dgrid: %v\n%s", err, out)
	}
	return bin
}

// The daemon starts on a port of its own and drains on SIGTERM: a
// request in flight when the signal arrives is still answered, and the
// process exits cleanly.
func TestDaemonFreePortAndDrain(t *testing.T) {
	bin := buildDgrid(t)
	a, err := startDaemon(bin, filepath.Join(t.TempDir(), "cache-a"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		select {
		case <-a.done:
		default:
			a.kill()
		}
	}()
	b, err := startDaemon(bin, filepath.Join(t.TempDir(), "cache-b"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.base == b.base {
		t.Fatalf("two daemons share %s", a.base)
	}
	if _, err := b.stop(10 * time.Second); err != nil {
		t.Fatalf("idle daemon: %v", err)
	}

	// A cold request of a few hundred milliseconds, signalled mid-run.
	hc := newServeClient()
	defer hc.CloseIdleConnections()
	req := serveReq{id: 1, warm: -1, sse: true, body: serveBody(20000, 120, 1)}
	done := make(chan serveAns, 1)
	go func() { done <- doRequest(context.Background(), hc, a.base, req) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h health
		if err := getJSON(http.DefaultClient, a.base+"/healthz", &h); err != nil {
			t.Fatal(err)
		}
		if h.ActiveRuns > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never became active")
		}
		time.Sleep(time.Millisecond)
	}
	rss, err := a.stop(30 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	ans := <-done
	if ans.err != nil {
		t.Fatalf("request in flight at SIGTERM: %v", ans.err)
	}
	if ans.stats.Misses == 0 || rss <= 0 {
		t.Errorf("answer %+v, rss %g MB", ans.stats, rss)
	}
	if err := getJSON(http.DefaultClient, a.base+"/healthz", new(health)); err == nil ||
		!strings.Contains(err.Error(), "refused") {
		t.Errorf("daemon still answering after drain: %v", err)
	}
}
