package sim

import (
	"sort"

	"tokentm/internal/htm"
	"tokentm/internal/statehash"
)

// Fingerprint summarizes the machine's logical state for the schedule
// explorer's state-equality pruning: two machines with equal fingerprints
// behave identically under identical future decisions (modulo hash
// collisions, which only cost soundness of *pruning*, never of a reported
// counterexample — counterexamples are replayed, not trusted from the hash).
//
// Included: scheduler state (thread states, queues, clocks), lock table,
// backoff-rng draw count, memory content, coherence/cache state, transaction
// logs, active transactions, and the HTM system's protocol state when it
// implements htm.Fingerprinter (TokenTM's home metastate and overflow
// table; LogTM-SE's signatures are derived from the hashed read/write sets
// and need no separate hashing).
//
// Excluded: metrics, the interleaved order of the global commit/abort record
// streams (per-thread counts are hashed), and cache LRU ordering — see
// cache.Cache.FingerprintTo for the eviction-free soundness argument. These
// exclusions are what let schedules that merely *accounted* differently, or
// interleaved independent operations differently, converge to one state.
func (m *Machine) Fingerprint() uint64 {
	// Per-thread commit and abort counts, from one pass over each stream.
	counts := make([][2]int, len(m.threads))
	for _, r := range m.Commits {
		counts[r.Thread][0]++
	}
	for _, r := range m.AbortRecs {
		counts[r.Thread][1]++
	}
	h := statehash.New()
	h.Int(len(m.threads))
	for i, th := range m.threads {
		h.Mark('T')
		h.Int(int(th.state))
		h.U64(uint64(th.wakeAt))
		h.U64(uint64(th.readyAt))
		h.Int(counts[i][0])
		h.Int(counts[i][1])
		if x := th.H.Xact; x != nil {
			x.FingerprintTo(h)
		} else {
			h.Mark(0)
		}
		th.H.Log.FingerprintTo(h)
	}
	for _, c := range m.cores {
		h.Mark('C')
		h.U64(uint64(c.time))
		h.Int(threadID(c.cur))
		h.Int(threadID(c.lastRan))
		h.U64(uint64(c.scheduledAt))
		h.Int(len(c.runq))
		for _, th := range c.runq {
			h.Int(th.H.ID)
		}
		h.Int(len(c.blocked))
		for _, th := range c.blocked {
			h.Int(th.H.ID)
		}
	}
	ids := make([]int, 0, len(m.locks))
	for id := range m.locks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h.Mark('L')
	for _, id := range ids {
		l := m.locks[id]
		if !l.held && len(l.waiters) == 0 {
			continue // released locks must not distinguish states
		}
		h.Int(id)
		h.Int(threadID(l.holder))
		h.Int(len(l.waiters))
		for _, w := range l.waiters {
			h.Int(w.H.ID)
		}
	}
	h.Mark('l')
	h.U64(m.rngDraws)
	m.Store.FingerprintTo(h)
	m.Mem.FingerprintTo(h)
	if f, ok := m.HTM.(htm.Fingerprinter); ok {
		f.FingerprintTo(h)
	}
	return h.Sum()
}

// threadID is the fingerprint encoding for an optional thread: its global id
// or -1.
func threadID(th *Thread) int {
	if th == nil {
		return -1
	}
	return th.H.ID
}
