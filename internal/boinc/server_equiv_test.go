package boinc

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"vmdg/internal/sim"
)

// refProject is the server before the short index: RequestWork sorts
// every unit ID ever minted and tallies each candidate's reports afresh.
// It is the reference the indexed Project must match call for call.
type refProject struct {
	Name        string
	Replication int

	nextUnit int
	seedBase uint64
	chunks   int

	assignments map[string][]string
	unitIdx     map[string]int
	reports     map[string]map[string]int
	canonical   map[string]int
	invalid     int
}

func newRefProject(name string, replication, chunks int, seedBase uint64) *refProject {
	return &refProject{
		Name:        name,
		Replication: replication,
		seedBase:    seedBase,
		chunks:      chunks,
		assignments: map[string][]string{},
		unitIdx:     map[string]int{},
		reports:     map[string]map[string]int{},
		canonical:   map[string]int{},
	}
}

func (p *refProject) RequestWork(volunteer string) WorkUnit {
	ids := make([]string, 0, len(p.assignments))
	for id := range p.assignments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		holders := p.assignments[id]
		if _, done := p.canonical[id]; done {
			continue
		}
		best := 0
		tally := map[int]int{}
		for _, v := range p.reports[id] {
			tally[v]++
			if tally[v] > best {
				best = tally[v]
			}
		}
		if len(holders) >= p.Replication-best {
			continue
		}
		if containsString(holders, volunteer) {
			continue
		}
		if _, reported := p.reports[id][volunteer]; reported {
			continue
		}
		p.assignments[id] = append(holders, volunteer)
		return MintUnit(p.Name, p.unitIdx[id], p.seedBase, p.chunks)
	}
	i := p.nextUnit
	p.nextUnit++
	id := mintID(p.Name, i)
	p.assignments[id] = []string{volunteer}
	p.unitIdx[id] = i
	return MintUnit(p.Name, i, p.seedBase, p.chunks)
}

func (p *refProject) SubmitResult(volunteer, unitID string, peakBin int) bool {
	if p.reports[unitID] == nil {
		p.reports[unitID] = map[string]int{}
	}
	p.reports[unitID][volunteer] = peakBin
	p.assignments[unitID] = removeString(p.assignments[unitID], volunteer)
	if existing, done := p.canonical[unitID]; done {
		if peakBin != existing {
			p.invalid++
		}
		return true
	}
	counts := map[int]int{}
	for _, v := range p.reports[unitID] {
		counts[v]++
		if counts[v] >= p.Replication {
			p.canonical[unitID] = v
			for _, other := range p.reports[unitID] {
				if other != v {
					p.invalid++
				}
			}
			return true
		}
	}
	return false
}

// bruteShort recomputes the short index from p's ledger with a tally
// map, independently of needsReplica.
func bruteShort(p *Project) []string {
	var out []string
	for id := range p.unitIdx {
		if _, done := p.canonical[id]; done {
			continue
		}
		best := 0
		tally := map[int]int{}
		for _, v := range p.reports[id] {
			tally[v]++
			best = max(best, tally[v])
		}
		if len(p.assignments[id]) < p.Replication-best {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// TestRequestWorkMatchesReference drives the indexed Project and the
// sort-everything reference through one seeded sequence of requests,
// submits and straggler reports, and requires identical answers and
// counters after every operation.
func TestRequestWorkMatchesReference(t *testing.T) {
	for _, start := range []int{0, 999_990} {
		for repl := 1; repl <= 3; repl++ {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("start%d/r%d/seed%d", start, repl, seed), func(t *testing.T) {
					equivRun(t, start, repl, seed)
				})
			}
		}
	}
}

func equivRun(t *testing.T, start, repl int, seed uint64) {
	p := NewProject("eq", repl, 8, 77)
	ref := newRefProject("eq", repl, 8, 77)
	p.nextUnit, ref.nextUnit = start, start

	rng := sim.NewRNG(seed)
	volunteers := make([]string, 7)
	for i := range volunteers {
		volunteers[i] = fmt.Sprintf("v%d", i)
	}
	held := map[string][]WorkUnit{}
	var issued []WorkUnit
	seen := map[string]bool{}
	// The server only compares reports, so any per-unit value stands in
	// for the honest answer (TrueResult would run an FFT per unit).
	honest := func(wu WorkUnit) int { return int(wu.Seed % 5) }
	// With replication above 1, units wait in short for replicas, so a
	// run starting below 1,000,000 must hold both ID widths there at
	// once and exercise string order.
	crossed := start == 0 || repl == 1

	for op := 0; op < 1500; op++ {
		v := volunteers[rng.Intn(len(volunteers))]
		switch r := rng.Intn(10); {
		case r < 5 || len(held[v]) == 0:
			got, want := p.RequestWork(v), ref.RequestWork(v)
			if got != want {
				t.Fatalf("op %d: RequestWork(%s) = %+v, reference %+v", op, v, got, want)
			}
			held[v] = append(held[v], got)
			if !seen[got.ID] {
				seen[got.ID] = true
				issued = append(issued, got)
			}
		case r < 9:
			// Return a held replica: honest, or one of two wrong
			// answers, so faulty hosts can agree with each other and
			// splits can tie.
			k := rng.Intn(len(held[v]))
			wu := held[v][k]
			held[v] = slices.Delete(held[v], k, k+1)
			result := honest(wu)
			if rng.Intn(3) == 0 {
				result += 1 + rng.Intn(2)
			}
			if got, want := p.SubmitResult(v, wu.ID, result), ref.SubmitResult(v, wu.ID, result); got != want {
				t.Fatalf("op %d: SubmitResult = %v, reference %v", op, got, want)
			}
		default:
			// A straggler report for a unit v may never have held.
			wu := issued[rng.Intn(len(issued))]
			result := honest(wu) + rng.Intn(2)
			if got, want := p.SubmitResult(v, wu.ID, result), ref.SubmitResult(v, wu.ID, result); got != want {
				t.Fatalf("op %d: straggler SubmitResult = %v, reference %v", op, got, want)
			}
		}

		if p.Validated() != len(ref.canonical) || p.Invalid() != ref.invalid ||
			p.Outstanding() != ref.nextUnit-len(ref.canonical) {
			t.Fatalf("op %d: validated/invalid/outstanding %d/%d/%d, reference %d/%d/%d", op,
				p.Validated(), p.Invalid(), p.Outstanding(),
				len(ref.canonical), ref.invalid, ref.nextUnit-len(ref.canonical))
		}
		for _, wu := range issued {
			gv, gok := p.Canonical(wu.ID)
			rv, rok := ref.canonical[wu.ID]
			if gv != rv || gok != rok {
				t.Fatalf("op %d: Canonical(%s) = %d,%v, reference %d,%v", op, wu.ID, gv, gok, rv, rok)
			}
		}
		if want := bruteShort(p); !slices.Equal(p.short, want) {
			t.Fatalf("op %d: short = %v, recomputed %v", op, p.short, want)
		}
		if len(p.short) > 0 && len(p.short[0]) > len(p.short[len(p.short)-1]) {
			crossed = true // a 7-digit ID sorts before a 6-digit one
		}
	}
	if !crossed {
		t.Fatalf("run never held 6- and 7-digit IDs in short at once")
	}
	if start > 0 && p.nextUnit <= 1_000_000 {
		t.Fatalf("run minted up to %d, never crossing to 7-digit IDs", p.nextUnit)
	}
}

func TestSubmitResultIgnoresUnmintedUnit(t *testing.T) {
	p := NewProject("e", 2, 16, 3)
	if p.SubmitResult("alice", "e-wu-999999", 4) {
		t.Fatal("report for an unminted unit validated")
	}
	if len(p.short) != 0 || len(p.assignments) != 0 || len(p.reports) != 0 {
		t.Fatalf("unminted report left state: short=%v assignments=%v reports=%v", p.short, p.assignments, p.reports)
	}
	// The next request mints unit 0 under its own ID rather than
	// offering the phantom ID as a top-up.
	wu := p.RequestWork("bob")
	if want := p.unitFor(0); wu != want {
		t.Fatalf("RequestWork = %+v, want fresh unit %+v", wu, want)
	}
	if p.Validated() != 0 || p.Invalid() != 0 || p.Outstanding() != 1 {
		t.Fatalf("validated/invalid/outstanding = %d/%d/%d", p.Validated(), p.Invalid(), p.Outstanding())
	}
}
