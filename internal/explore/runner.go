package explore

import (
	"fmt"
	"sort"

	"tokentm/internal/core"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/sim"
	"tokentm/internal/trace"
)

// retryLimit bounds stalled retries inside explored machines. Past the
// limit the contention manager forces a resolution, so every correct
// schedule terminates and the livelock step bound can be tight.
const retryLimit = 8

// explQuantum is the scheduling quantum of explored machines (cycles).
const explQuantum = 400

// Violation is one invariant failure, carrying the replayable schedule that
// produced it.
type Violation struct {
	// Kind is one of: deadlock, livelock, crash, bookkeeping,
	// serializability, memory, conservation, commits.
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Step is the decision index at which the failure surfaced (equal to
	// the schedule length for end-of-run checks).
	Step int `json:"step"`
	// Schedule is the FormatSchedule counterexample; replay it with
	// `tokentm-explore -replay`.
	Schedule string `json:"schedule"`
}

// runState is the adversary budget the chooser sees at each decision point.
type runState struct {
	PreemptsLeft int
	BouncesLeft  int
}

// chooser picks the decision at each decision point; def is the core the
// default min-time schedule would run. Returning ok=false abandons the run
// (the explorer uses this when fingerprint pruning proves the continuation
// was already explored).
type chooser func(m *sim.Machine, tok *core.TokenTM, choices []sim.CoreChoice, def int, st *runState) (Decision, bool)

// runOpts parameterizes one schedule execution.
type runOpts struct {
	seed     int64
	maxSteps int
	preempts int
	bounces  int
	tracer   *trace.Tracer
}

// runResult is one schedule's outcome.
type runResult struct {
	schedule    []Decision
	steps       int
	abandoned   bool // chooser bailed out (pruned continuation)
	violation   *Violation
	fingerprint uint64 // final machine state (zero when abandoned/violated)
	commits     []htm.CommitRecord
	coreTimes   []mem.Cycle
	aborts      int
	evictions   uint64
}

// journalEntry records one committed transaction's observed reads and final
// writes; re-initialized inside the atomic body so aborted attempts reset it.
type journalEntry struct {
	thread int
	reads  map[mem.Addr]uint64
	writes map[mem.Addr]uint64
}

// runSchedule executes prog on a fresh machine, consulting choose at every
// decision point and checking invariants after every decision and at the
// end. The machine's chooser is the loop over decision points: adversary
// decisions are applied in place, and a run decision answers the machine.
func runSchedule(prog *Program, variant string, mut core.Mutation, o runOpts, choose chooser) runResult {
	// The quantum matters on multi-thread cores: without it a preempted
	// transaction never reruns (min-time scheduling never rotates a busy
	// core's run queue), so younger enemies would retry against its tokens
	// forever — a starvation livelock of the scheduling model, not the
	// protocol. A quantum restores fairness and also exercises the
	// FlashOR context-switch path in ordinary schedules.
	m := sim.New(sim.Config{Cores: prog.Cores, Seed: o.seed, Quantum: explQuantum})
	sys, tok := buildHTM(m, variant, mut)
	if o.tracer != nil {
		m.SetHTM(trace.Wrap(sys, o.tracer))
	} else {
		m.SetHTM(sys)
	}
	journals := spawnProgram(m, prog)
	// Unwind any threads still suspended when the chooser stops the run
	// mid-schedule, so pruned executions leak no goroutines.
	defer m.Kill()

	res := runResult{}
	st := &runState{PreemptsLeft: o.preempts, BouncesLeft: o.bounces}
	vio := func(kind, msg string) *Violation {
		return &Violation{Kind: kind, Message: msg, Step: len(res.schedule), Schedule: FormatSchedule(res.schedule)}
	}
	// balanced audits the books after a decision (TokenTM variants only),
	// recording a violation when they do not balance.
	balanced := func() bool {
		if tok != nil {
			if err := tok.CheckBookkeeping(); err != nil {
				res.violation = vio("bookkeeping", err.Error())
				return false
			}
		}
		return true
	}
	err := runGuarded(m, func(choices []sim.CoreChoice, def int) (int, bool) {
		// Every decision before this point has been applied, the last one
		// a run whose turn just ended.
		if len(res.schedule) > 0 && !balanced() {
			return 0, false
		}
		for {
			if res.steps >= o.maxSteps {
				res.violation = vio("livelock", fmt.Sprintf(
					"no termination within %d steps (retry limit %d)", o.maxSteps, retryLimit))
				return 0, false
			}
			d, ok := choose(m, tok, choices, def, st)
			if !ok {
				res.abandoned = true
				return 0, false
			}
			res.schedule = append(res.schedule, d)
			if d.Kind == DecRun {
				res.steps++
				return d.Core, true
			}
			if err := applyAdversary(m, tok, prog, d, st); err != nil {
				res.violation = vio("crash", err.Error())
				return 0, false
			}
			if !balanced() {
				return 0, false
			}
		}
	})
	if err != nil {
		kind := "crash"
		if _, isDeadlock := err.(*sim.DeadlockError); isDeadlock {
			kind = "deadlock"
		}
		res.violation = vio(kind, err.Error())
		return res
	}
	if res.violation != nil || res.abandoned || !balanced() {
		return res
	}
	res.fingerprint = m.Fingerprint()
	res.commits = append([]htm.CommitRecord(nil), m.Commits...)
	res.coreTimes = m.CoreTimes()
	res.aborts = len(m.AbortRecs)
	res.evictions = m.Mem.Stats.Evictions
	res.violation = endChecks(m, tok, prog, journals, vio)
	return res
}

// runGuarded runs the machine under choose, converting any panic out of it
// (deadlock, protocol self-checks, mutation fallout) into an error so the
// explorer records it as a counterexample instead of dying.
func runGuarded(m *sim.Machine, choose func([]sim.CoreChoice, int) (int, bool)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case error:
				err = e
			default:
				err = fmt.Errorf("%v", r)
			}
		}
	}()
	m.RunChoosing(choose)
	return nil
}

// applyAdversary applies a preempt or bounce decision in place, between
// turns. d is one of enumerate's alternatives, so it is within budget and
// changes the machine.
func applyAdversary(m *sim.Machine, tok *core.TokenTM, prog *Program, d Decision, st *runState) error {
	if d.Kind == DecPreempt {
		m.Preempt(d.Core)
		st.PreemptsLeft--
		return nil
	}
	if err := tok.PageIn(tok.PageOut(prog.Page())); err != nil {
		return fmt.Errorf("page-in after bounce: %w", err)
	}
	st.BouncesLeft--
	return nil
}

// spawnProgram spawns prog's threads (thread i pinned to core i % Cores by
// the machine) with commit journaling for the serializability oracle.
func spawnProgram(m *sim.Machine, prog *Program) [][]journalEntry {
	journals := make([][]journalEntry, len(prog.Threads))
	for i := range prog.Threads {
		i := i
		tp := prog.Threads[i]
		m.Spawn(func(tc *sim.Ctx) {
			for _, txn := range tp.Txns {
				txn := txn
				var entry journalEntry
				tc.Atomic(func(tx *sim.Tx) {
					entry = journalEntry{
						thread: i,
						reads:  make(map[mem.Addr]uint64),
						writes: make(map[mem.Addr]uint64),
					}
					for _, op := range txn {
						switch op.Kind {
						case OpLoad:
							a := prog.BlockAddr(op.Block)
							recordRead(&entry, a, tx.Load(a))
						case OpIncr:
							a := prog.BlockAddr(op.Block)
							v := tx.Load(a)
							recordRead(&entry, a, v)
							nv := v + op.Delta
							tx.Store(a, nv)
							entry.writes[a] = nv
						case OpWork:
							tx.Work(op.Cycles)
						}
					}
				})
				journals[i] = append(journals[i], entry)
			}
		})
	}
	return journals
}

// recordRead journals the first observed value of a, unless the transaction
// already wrote it (then the read sees its own write, not prior commits).
func recordRead(e *journalEntry, a mem.Addr, v uint64) {
	if _, wrote := e.writes[a]; wrote {
		return
	}
	if _, read := e.reads[a]; !read {
		e.reads[a] = v
	}
}

// endChecks validates the completed run: every transaction committed, the
// committed history is serializable in commit order, final memory matches
// the serial replay, and the token books balance.
func endChecks(m *sim.Machine, tok *core.TokenTM, prog *Program, journals [][]journalEntry, vio func(kind, msg string) *Violation) *Violation {
	committed := make([]int, len(prog.Threads))
	for _, rec := range m.Commits {
		committed[rec.Thread]++
	}
	for i, n := range committed {
		if want := len(prog.Threads[i].Txns); n != want {
			return vio("commits", fmt.Sprintf(
				"thread %d committed %d of %d transactions", i, n, want))
		}
	}
	// Merge the per-thread journals along the true commit order and replay
	// them sequentially against a reference memory.
	next := make([]int, len(journals))
	ref := make(map[mem.Addr]uint64)
	for ci, rec := range m.Commits {
		e := journals[rec.Thread][next[rec.Thread]]
		next[rec.Thread]++
		for _, a := range sortedAddrs(e.reads) {
			if ref[a] != e.reads[a] {
				return vio("serializability", fmt.Sprintf(
					"commit %d (thread %d) read %v=%d, serial replay has %d",
					ci, e.thread, a, e.reads[a], ref[a]))
			}
		}
		for _, a := range sortedAddrs(e.writes) {
			ref[a] = e.writes[a]
		}
	}
	for i := 0; i < prog.Blocks; i++ {
		a := prog.BlockAddr(i)
		if got := m.Store.Load(a); got != ref[a] {
			return vio("memory", fmt.Sprintf(
				"final memory %v=%d, serial replay has %d", a, got, ref[a]))
		}
	}
	if tok != nil {
		if err := tok.CheckBookkeeping(); err != nil {
			return vio("bookkeeping", err.Error())
		}
	}
	if err := m.CheckConservation(); err != nil {
		return vio("conservation", err.Error())
	}
	return nil
}

// sortedAddrs returns the map's keys in address order, for deterministic
// replay messages and reference updates.
func sortedAddrs(ms map[mem.Addr]uint64) []mem.Addr {
	out := make([]mem.Addr, 0, len(ms))
	for a := range ms {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
