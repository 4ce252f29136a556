package stm

import "sync/atomic"

// Stats is a point-in-time snapshot of transaction outcomes and conflict
// events, summed across threads by TM.Stats. It is a plain value: copy and
// compare freely.
type Stats struct {
	Commits uint64 // committed transactions
	Aborts  uint64 // aborted attempts (each retried attempt counts once)

	Upgrades     uint64 // read-to-write upgrades that folded a held read token into the claim (visible attempts only)
	FastReleases uint64 // attempts whose read, write and undo logs each held at most 24 entries
	SlowReleases uint64 // attempts with a longer log

	ConflictWriter uint64 // acquisition rounds lost to a writer's (T,X)
	ConflictReader uint64 // write acquisitions lost to outstanding readers
	ConflictAnon   uint64 // conflicts with anonymous (unidentifiable) holders

	ConflictAborts uint64 // attempts abandoned after spinLimit rounds
	DoomedAborts   uint64 // attempts abandoned because an elder doomed us
	Dooms          uint64 // younger enemies we doomed (eldest tiebreak)

	SnapshotCommits uint64 // ReadOnly transactions and NoteCommit point reads committed
	SnapshotRetries uint64 // ReadOnly attempts retried (each also counts in Aborts)
}

// counters is the live per-thread statistics block. Each field has exactly
// one writer — the owning goroutine — and is stored atomically so observers
// (TM.Stats, the server's INFO command) can read a consistent-enough
// snapshot at any time without a detector-level race. The single-writer
// increment is a plain load + plain store pair on amd64 (no LOCK prefix),
// so the hot paths pay nothing for the observability.
type counters struct {
	Commits atomic.Uint64
	Aborts  atomic.Uint64

	Upgrades     atomic.Uint64
	FastReleases atomic.Uint64
	SlowReleases atomic.Uint64

	ConflictWriter atomic.Uint64
	ConflictReader atomic.Uint64
	ConflictAnon   atomic.Uint64

	ConflictAborts atomic.Uint64
	DoomedAborts   atomic.Uint64
	Dooms          atomic.Uint64

	SnapshotCommits atomic.Uint64
	SnapshotRetries atomic.Uint64
}

// bump increments a single-writer counter. Only the counter's owning
// goroutine may call it.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// statFields is the one table of statistics fields, in Stats declaration
// order: the wire name (the server's INFO prints "stm_"+name) and the
// field's address in the live counters and in a Stats snapshot. addTo and
// Stats.Each walk it, so a new counter is one struct field in
// each of Stats and counters plus one row here (TestStatFieldsCoverage
// pins the table to both structs by reflection).
var statFields = [...]struct {
	name    string
	counter func(*counters) *atomic.Uint64
	stat    func(*Stats) *uint64
}{
	{"commits", func(c *counters) *atomic.Uint64 { return &c.Commits }, func(s *Stats) *uint64 { return &s.Commits }},
	{"aborts", func(c *counters) *atomic.Uint64 { return &c.Aborts }, func(s *Stats) *uint64 { return &s.Aborts }},
	{"upgrades", func(c *counters) *atomic.Uint64 { return &c.Upgrades }, func(s *Stats) *uint64 { return &s.Upgrades }},
	{"fast_releases", func(c *counters) *atomic.Uint64 { return &c.FastReleases }, func(s *Stats) *uint64 { return &s.FastReleases }},
	{"slow_releases", func(c *counters) *atomic.Uint64 { return &c.SlowReleases }, func(s *Stats) *uint64 { return &s.SlowReleases }},
	{"conflict_writer", func(c *counters) *atomic.Uint64 { return &c.ConflictWriter }, func(s *Stats) *uint64 { return &s.ConflictWriter }},
	{"conflict_reader", func(c *counters) *atomic.Uint64 { return &c.ConflictReader }, func(s *Stats) *uint64 { return &s.ConflictReader }},
	{"conflict_anon", func(c *counters) *atomic.Uint64 { return &c.ConflictAnon }, func(s *Stats) *uint64 { return &s.ConflictAnon }},
	{"conflict_aborts", func(c *counters) *atomic.Uint64 { return &c.ConflictAborts }, func(s *Stats) *uint64 { return &s.ConflictAborts }},
	{"doomed_aborts", func(c *counters) *atomic.Uint64 { return &c.DoomedAborts }, func(s *Stats) *uint64 { return &s.DoomedAborts }},
	{"dooms", func(c *counters) *atomic.Uint64 { return &c.Dooms }, func(s *Stats) *uint64 { return &s.Dooms }},
	{"snapshot_commits", func(c *counters) *atomic.Uint64 { return &c.SnapshotCommits }, func(s *Stats) *uint64 { return &s.SnapshotCommits }},
	{"snapshot_retries", func(c *counters) *atomic.Uint64 { return &c.SnapshotRetries }, func(s *Stats) *uint64 { return &s.SnapshotRetries }},
}

// addTo accumulates an atomic snapshot of c into s. Counters are read
// individually; a snapshot taken while transactions run is per-field exact
// but not cross-field consistent (quiesce for exact books).
func (c *counters) addTo(s *Stats) {
	for _, f := range statFields {
		*f.stat(s) += f.counter(c).Load()
	}
}

// Each calls fn with every field's wire name and value, in declaration
// order.
func (s Stats) Each(fn func(name string, v uint64)) {
	for _, f := range statFields {
		fn(f.name, *f.stat(&s))
	}
}

// AbortRate returns aborted attempts per executed attempt.
func (s Stats) AbortRate() float64 {
	attempts := s.Commits + s.Aborts
	if attempts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(attempts)
}
