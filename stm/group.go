package stm

// Group runs one atomic transaction across several independent TMs, each
// with its own serial clock. Nesting Atomically cannot deliver that (the
// inner transaction commits and releases before the outer one decides), so
// Group generalizes the commit protocol instead: one member Thread per TM,
// all attempts opened together, and a commit that holds every token on every
// TM until a serial has been drawn from every touched one — strict two-phase
// locking across the group, which makes the per-TM serial orders mutually
// consistent (each TM's commit-journal replay sees the group's effects at a
// single point). Members read by token on every attempt, never invisibly as
// a lone Thread.Atomically first does: each TM has its own clock, and stamps
// checked against unrelated read serials would not show fn one state across
// TMs mid-flight.
//
// Conflict handling is entirely the members' own machinery: an acquisition
// that loses on any TM aborts that member (releasing its tokens) and
// unwinds the whole group via retrySignal; Group rolls the other members
// back and retries after the usual backoff. Dooms work per TM — the
// eldest tiebreak compares birth tickets drawn from each TM's own ticket
// source, so there is no cross-TM eldest. That weakens the no-starvation
// argument to the same probabilistic one every bounded-spin 2PL system
// makes: a cross-TM cycle cannot block forever (every acquisition's spin
// is bounded, and giving up releases everything), and randomized backoff
// breaks the symmetric retry races. MaxAttempts (taken from the first
// member's TM, so build every member TM with the same Options) bounds the
// loop when the caller would rather surface ErrAborted than wait out a storm.
//
// No store is built on it: kvstore.Sharded labels one TM into shards, so its
// cross-shard transactions are ordinary Thread transactions. Group is what a
// clock per shard would cost, kept with its tests because the benchmark's
// layer ladder measures it (stm.group_overhead_ns).
type Group struct {
	members []*Thread
	// Reused by every Atomically, so a warm call allocates nothing.
	gt      GroupTx
	serials []uint64
}

// NewGroup builds a Group over the given member threads, one per TM. Every
// member must come from TM.Thread, belong to a distinct TM, and — like any
// Thread — be used by one goroutine at a time. The Group borrows the
// members: between Group.Atomically calls they remain usable directly.
func NewGroup(members ...*Thread) *Group {
	if len(members) == 0 {
		panic("stm: NewGroup with no members")
	}
	for i, th := range members {
		if th.tm == nil {
			panic("stm: Group member not obtained via TM.Thread")
		}
		for _, prev := range members[:i] {
			if prev.tm == th.tm {
				panic("stm: two Group members on one TM")
			}
		}
	}
	g := &Group{members: members, serials: make([]uint64, len(members))}
	g.gt.g = g
	return g
}

// GroupTx is the per-attempt view handed to Group.Atomically's fn.
type GroupTx struct{ g *Group }

// Tx returns member i's transaction view. Addresses passed to it index
// member i's TM.
func (gt *GroupTx) Tx(i int) *Tx { return &gt.g.members[i].tx }

// Atomically runs fn as one transaction spanning every member TM, with the
// same contract as Thread.Atomically (fn re-executed after conflicts, error
// aborts, ErrAborted after MaxAttempts). On commit it returns one serial per
// member: the commit serial drawn from that member's TM, or 0 for a member
// whose TM the transaction never touched. All nonzero serials were drawn
// while the group still held every token on every TM, so each is a true
// serialization point within its own TM's commit order. The slice is the
// Group's own and valid until its next Atomically; a caller that keeps
// serials longer copies them.
func (g *Group) Atomically(fn func(gt *GroupTx) error) (serials []uint64, err error) {
	for _, th := range g.members {
		if th.status.Load()&stateMask != stateIdle {
			panic("stm: Group.Atomically over a busy member Thread")
		}
	}
	for _, th := range g.members {
		th.birth.Store(0)
		th.tx.ro = false // a member may have last run Thread.ReadOnly
	}
	lead := g.members[0]
	for retries := 0; ; retries++ {
		for _, th := range g.members {
			th.beginAttempt(&th.tx, true)
		}
		err, again := g.runAttempt(fn)
		if !again {
			if err != nil {
				return nil, err
			}
			return g.serials, nil
		}
		if ma := lead.tm.opt.MaxAttempts; ma > 0 && retries+1 >= ma {
			return nil, ErrAborted
		}
		lead.backoff(retries)
	}
}

// runAttempt executes fn once across the group, committing on success. The
// recover mirrors Thread.runAttempt; the difference is that any unwind —
// conflict, error, or caller panic — must roll back every member, not one.
func (g *Group) runAttempt(fn func(gt *GroupTx) error) (err error, again bool) {
	defer func() {
		if r := recover(); r != nil {
			g.abortAll()
			if _, ok := r.(retrySignal); ok {
				again = true
				return
			}
			panic(r)
		}
	}()
	if err = fn(&g.gt); err != nil {
		g.abortAll()
		return err, false
	}
	return nil, !g.commitAll()
}

// commitAll is the cross-TM commit. Phase 1 closes the doom window on
// every member (the same status CAS commitAttempt uses; one failure means an
// elder doomed us and the whole group aborts). Phase 2 draws a serial from
// every touched TM — all tokens on all TMs are still held here, which is
// the property that makes the per-TM serials jointly consistent. Phase 3
// releases everything, stamping each TM's written blocks with that TM's
// serial.
func (g *Group) commitAll() bool {
	for _, th := range g.members {
		if !th.status.CompareAndSwap(
			th.attempt<<statusShift|stateActive,
			th.attempt<<statusShift|stateIdle) {
			bump(&th.stats.DoomedAborts)
			g.abortAll()
			return false
		}
	}
	for i, th := range g.members {
		if len(th.tx.logs.read) > 0 || len(th.tx.logs.write) > 0 {
			g.serials[i] = th.tm.nextSerial()
		} else {
			g.serials[i] = 0
		}
	}
	for i, th := range g.members {
		th.tx.releaseAll(g.serials[i])
		th.tx.finished = true
		bump(&th.stats.Commits)
	}
	return true
}

// abortAll rolls every member back and re-idles its status word. A member
// whose own retry already aborted (finished set by abortAttempt) is skipped
// — double-releasing its tokens would be a double-entry violation. Statuses
// flipped idle by a partial commitAll phase 1 are stored idle again,
// harmlessly.
func (g *Group) abortAll() {
	for _, th := range g.members {
		if !th.tx.finished {
			th.tx.abortAttempt()
		}
		th.status.Store(th.attempt<<statusShift | stateIdle)
	}
}
