package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"vmdg/internal/engine"
)

// feed drives a progress hook through a whole run of total tasks.
func feed(hook func(engine.Event), total int) {
	for done := 1; done <= total; done++ {
		hook(engine.Event{Kind: engine.EventShardComputed, Done: done, Total: total})
	}
	hook(engine.Event{Kind: engine.EventExperimentMerged, Done: 1, Total: 1})
}

// TestProgressNonTerminal: off a terminal, progress is one plain line
// per 10% — no carriage returns to concatenate in a captured log.
func TestProgressNonTerminal(t *testing.T) {
	for _, total := range []int{32, 100, 472} {
		var buf bytes.Buffer
		feed(progressTo(&buf, false, "sweep"), total)
		out := buf.String()
		if strings.Contains(out, "\r") {
			t.Fatalf("total %d: carriage return in non-terminal output %q", total, out)
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) != 10 {
			t.Fatalf("total %d: %d lines, want 10:\n%s", total, len(lines), out)
		}
		for k, line := range lines {
			if want := fmt.Sprintf("(%d%%)", 10*(k+1)); !strings.HasPrefix(line, "dgrid: sweep ") || !strings.HasSuffix(line, want) {
				t.Fatalf("total %d: line %d = %q, want a dgrid: sweep line ending %s", total, k, line, want)
			}
		}
		if want := fmt.Sprintf("dgrid: sweep %d/%d shards (100%%)", total, total); lines[9] != want {
			t.Fatalf("total %d: last line %q, want %q", total, lines[9], want)
		}
	}
}

// TestProgressSmallRunSilent: runs under 32 tasks draw nothing on
// either path.
func TestProgressSmallRunSilent(t *testing.T) {
	for _, tty := range []bool{false, true} {
		var buf bytes.Buffer
		feed(progressTo(&buf, tty, "fleet"), 31)
		if buf.Len() != 0 {
			t.Fatalf("tty=%v: small run wrote %q", tty, buf.String())
		}
	}
}

// TestProgressTerminal: on a terminal the line is redrawn in place and
// erased at the end.
func TestProgressTerminal(t *testing.T) {
	var buf bytes.Buffer
	feed(progressTo(&buf, true, "sweep"), 64)
	out := buf.String()
	if !strings.HasPrefix(out, "\rdgrid: sweep 1/64 shards") || strings.Contains(out, "\n") {
		t.Fatalf("terminal output %q", out)
	}
	if !strings.HasSuffix(out, "\r") || strings.Contains(out, "64/64") {
		t.Fatalf("terminal line not erased at the end: %q", out)
	}
}
