package boinc

import "slices"

// Project is a BOINC-style project server: it generates work units,
// hands out replicas to volunteers, and validates returned results by
// quorum — the redundancy mechanism public-resource projects use against
// faulty or malicious volunteers (Anderson 2004, cited by the paper as
// the context for VM-based sandboxing).
type Project struct {
	Name string
	// Replication is how many agreeing results a unit needs before its
	// canonical result is accepted (2 is the classic BOINC minimum).
	Replication int

	nextUnit int
	seedBase uint64
	chunks   int

	// assignments[unitID] lists volunteers currently holding a replica.
	assignments map[string][]string
	// unitIdx maps a unit ID back to its mint index (IDs are formatted
	// from the index, but parsing them back would truncate past the
	// padding width).
	unitIdx map[string]int
	// reports[unitID] collects returned peak bins by volunteer.
	reports map[string]map[string]int
	// canonical[unitID] holds the quorum-validated result.
	canonical map[string]int
	// short lists, sorted by ID string, the units with no canonical
	// result and fewer replicas in flight than Replication minus their
	// best agreement — the only units RequestWork can top up. reindex
	// keeps it current after every change to a unit's ledger.
	short []string
	// invalid counts reports that disagreed with an established quorum.
	invalid int
}

// NewProject creates a server whose units carry the given chunk count.
func NewProject(name string, replication, chunksPerUnit int, seedBase uint64) *Project {
	if replication < 1 {
		panic("boinc: replication must be ≥ 1")
	}
	if chunksPerUnit <= 0 {
		panic("boinc: chunksPerUnit must be positive")
	}
	return &Project{
		Name:        name,
		Replication: replication,
		seedBase:    seedBase,
		chunks:      chunksPerUnit,
		assignments: map[string][]string{},
		unitIdx:     map[string]int{},
		reports:     map[string]map[string]int{},
		canonical:   map[string]int{},
	}
}

// CheckpointCadence is the project convention for how often a unit of
// the given length checkpoints: every eighth of the unit, at least
// every chunk.
func CheckpointCadence(chunks int) int {
	every := chunks / 8
	if every < 1 {
		every = 1
	}
	return every
}

// MintUnit reconstructs the deterministic i-th work unit of a project
// stream — the (ID format, seed, checkpoint cadence) convention shared
// by Project and by schedulers that mint compatible units themselves
// (internal/grid's non-replicating policies).
func MintUnit(project string, i int, seedBase uint64, chunks int) WorkUnit {
	return WorkUnit{
		ID:              mintID(project, i),
		Seed:            seedBase + uint64(i),
		Chunks:          chunks,
		CheckpointEvery: CheckpointCadence(chunks),
	}
}

// AppendPaddedIndex appends i in decimal, zero-padded to at least six
// digits (wider values grow to the left) — the fixed-width convention
// unit IDs and internal/grid's host IDs share. Hand-rolled because a
// fleet formats hundreds of millions of these and fmt's reflection is
// the dominant cost of Sprintf at that volume.
func AppendPaddedIndex(b []byte, i int) []byte {
	digits := 6
	for v := i; v >= 1_000_000; v /= 10 {
		digits++
	}
	n := len(b)
	for j := 0; j < digits; j++ {
		b = append(b, '0')
	}
	for d := digits - 1; d >= 0; d-- {
		b[n+d] = byte('0' + i%10)
		i /= 10
	}
	return b
}

// mintID formats "<project>-wu-%06d" via AppendPaddedIndex.
func mintID(project string, i int) string {
	b := make([]byte, 0, len(project)+4+8)
	b = append(b, project...)
	b = append(b, "-wu-"...)
	return string(AppendPaddedIndex(b, i))
}

// unitID formats the id of the i-th generated unit.
func (p *Project) unitID(i int) string { return mintID(p.Name, i) }

// unitFor reconstructs the deterministic work unit for an index.
func (p *Project) unitFor(i int) WorkUnit {
	return MintUnit(p.Name, i, p.seedBase, p.chunks)
}

// RequestWork assigns a replica to the volunteer: first any unit still
// short of its replication target that this volunteer does not already
// hold, otherwise a fresh unit.
func (p *Project) RequestWork(volunteer string) WorkUnit {
	// Prefer topping up under-replicated units, in ID order.
	for _, id := range p.short {
		holders := p.assignments[id]
		if containsString(holders, volunteer) {
			continue
		}
		if _, reported := p.reports[id][volunteer]; reported {
			continue
		}
		p.assignments[id] = append(holders, volunteer)
		p.reindex(id)
		return p.unitFor(p.unitIdx[id])
	}
	// Fresh unit.
	i := p.nextUnit
	p.nextUnit++
	id := p.unitID(i)
	p.assignments[id] = []string{volunteer}
	p.unitIdx[id] = i
	p.reindex(id)
	return p.unitFor(i)
}

// needsReplica reports whether a unit belongs in short. A unit needs
// enough further agreeing reports to reach quorum beyond its best
// current agreement; replicas in flight count toward that. A 1–1 split
// therefore re-issues a tie-breaker.
func (p *Project) needsReplica(id string) bool {
	if _, done := p.canonical[id]; done {
		return false
	}
	return len(p.assignments[id]) < p.Replication-bestAgreement(p.reports[id])
}

// bestAgreement is the size of the largest group of equal reports.
// Units carry a handful of reports, so the quadratic count beats
// allocating a tally.
func bestAgreement(reports map[string]int) int {
	best := 0
	for _, v := range reports {
		n := 0
		for _, w := range reports {
			if w == v {
				n++
			}
		}
		best = max(best, n)
	}
	return best
}

// reindex recomputes a unit's membership in short. Keeping string
// order (rather than mint order) matters once IDs widen past six
// digits: "…-wu-1000000" sorts before "…-wu-100001".
func (p *Project) reindex(id string) {
	i, in := slices.BinarySearch(p.short, id)
	switch want := p.needsReplica(id); {
	case want && !in:
		p.short = slices.Insert(p.short, i, id)
	case !want && in:
		p.short = slices.Delete(p.short, i, i+1)
	}
}

// TrueResult computes the ground-truth peak bin for a unit — what an
// honest volunteer's computation yields (the result is a pure function of
// the unit's seed).
func TrueResult(wu WorkUnit) int {
	return EinsteinChunk(wu.Seed).PeakBin
}

// SubmitResult records a volunteer's returned peak bin and runs quorum
// validation. It reports whether the unit now has a canonical result.
// A report for a unit the project never minted is ignored.
func (p *Project) SubmitResult(volunteer, unitID string, peakBin int) (validated bool) {
	if _, minted := p.unitIdx[unitID]; !minted {
		return false
	}
	defer p.reindex(unitID)
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
	// Quorum: Replication agreeing values among the reports.
	counts := map[int]int{}
	for _, v := range p.reports[unitID] {
		counts[v]++
		if counts[v] >= p.Replication {
			p.canonical[unitID] = v
			// Late disagreements already on file count as invalid.
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

// Validated returns how many units have canonical results.
func (p *Project) Validated() int { return len(p.canonical) }

// Invalid returns how many reports disagreed with established quorums.
func (p *Project) Invalid() int { return p.invalid }

// Canonical returns the validated result for a unit, if any.
func (p *Project) Canonical(unitID string) (int, bool) {
	v, ok := p.canonical[unitID]
	return v, ok
}

// Outstanding reports units generated but not yet validated.
func (p *Project) Outstanding() int { return p.nextUnit - len(p.canonical) }

func containsString(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func removeString(xs []string, v string) []string {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
