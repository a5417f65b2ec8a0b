package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished CLI invocation as its user sees it: its
// output, how long it took, and what it cost the machine.
type procResult struct {
	Stdout []byte
	Wall   time.Duration
	CPU    time.Duration // user + system
	RSSMB  float64       // peak resident set
}

// runCLI runs the dgrid binary with args and waits for it. A non-zero
// exit is an error that quotes the tail of stderr.
func runCLI(ctx context.Context, bin string, args ...string) (procResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = childAttr()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	res := procResult{Stdout: out.Bytes(), Wall: wall}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			res.RSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux
		}
	}
	if err != nil {
		return res, fmt.Errorf("dgrid %s: %w: %s", strings.Join(args, " "), err, tail(errb.String(), 400))
	}
	return res, nil
}

// childAttr makes the kernel kill a child if the harness dies first, so
// an interrupted run leaves no dgrid process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemon is a `dgrid serve` child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // Wait's result, valid after done closes
}

// startDaemon launches `dgrid serve` on a free loopback port and
// returns once GET /healthz answers.
func startDaemon(bin, cacheDir string, workers int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "serve", "-addr", addr, "-cache", cacheDir,
		"-workers", strconv.Itoa(workers))
	cmd.SysProcAttr = childAttr()
	// The daemon logs one line per request; the benchmark reads its
	// answers, not its log.
	cmd.Stdout, cmd.Stderr = nil, nil
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for {
		var h health
		if err := getJSON(hc, d.base+"/healthz", &h); err == nil && h.Status == "ok" {
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("dgrid serve exited during start-up: %v", d.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("dgrid serve did not answer /healthz within 20s")
		}
	}
}

// cpu reads the daemon's user+system CPU so far from /proc, in the
// kernel's 100 Hz clock ticks.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit. It
// returns the daemon's peak RSS; a daemon that does not exit within the
// budget is killed and reported.
func (d *daemon) stop(budget time.Duration) (rssMB float64, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(budget):
		d.kill()
		return 0, fmt.Errorf("dgrid serve did not drain within %s", budget)
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	if d.err != nil {
		return rssMB, fmt.Errorf("dgrid serve exited: %w", d.err)
	}
	return rssMB, nil
}

// kill ends the daemon without draining and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// health mirrors the fields of GET /healthz the benchmark checks.
type health struct {
	Status     string `json:"status"`
	ActiveRuns int64  `json:"active_runs"`
	Sweeps     struct {
		Admitted  uint64 `json:"admitted"`
		Completed uint64 `json:"completed"`
		Canceled  uint64 `json:"canceled"`
		Failed    uint64 `json:"failed"`
		Rejected  uint64 `json:"rejected"`
	} `json:"sweeps"`
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
