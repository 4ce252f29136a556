// Package explore is a stateless model checker for the simulated HTM
// variants: it drives sim.Machine through many distinct schedules of small
// transactional programs — including adversarial context-switch preemptions
// and page-out/page-in events — and checks the protocol invariants after
// every step: token conservation (metastate debits == log credits),
// metastate validity (Tables 3a/3b closure), serializability of the
// committed history, and deadlock/livelock freedom within a retry bound.
//
// Each schedule is one full re-execution of the program (stateless model
// checking); the explorer forces a decision prefix and extends it, walking
// the decision tree depth-first with state-fingerprint pruning and a
// commuting-siblings (sleep-set style) rule. Every explored schedule
// serializes to a compact replayable string, so a failure is a
// counterexample anyone can re-run under trace.
package explore

import (
	"fmt"

	"tokentm/internal/core"
	"tokentm/internal/htm"
	"tokentm/internal/logtmse"
	"tokentm/internal/mem"
	"tokentm/internal/sig"
	"tokentm/internal/sim"
)

// programBase is the first block of the page all program blocks live on, so
// one PageOut/PageIn adversary action virtualizes the whole working set.
const programBase mem.Addr = 0x40000

// OpKind is one transactional operation kind in the program DSL.
type OpKind int

// Program operations.
const (
	// OpLoad reads the block (joins the read set).
	OpLoad OpKind = iota
	// OpIncr is a read-modify-write: load the block's word, add Delta,
	// store it back (joins read and write sets).
	OpIncr
	// OpWork burns Cycles of in-transaction computation.
	OpWork
)

// Op is one operation of a transaction body.
type Op struct {
	Kind   OpKind
	Block  int       // program-block index (OpLoad, OpIncr)
	Delta  uint64    // increment (OpIncr)
	Cycles mem.Cycle // computation (OpWork)
}

// Txn is one transaction: its body operations, executed in order.
type Txn []Op

// ThreadProg is the per-thread program: a sequence of transactions.
type ThreadProg struct {
	Txns []Txn
}

// Program is a small transactional program for schedule exploration.
type Program struct {
	Name    string
	Cores   int
	Threads []ThreadProg
	Blocks  int // number of distinct program blocks
}

// BlockAddr maps a program-block index to its simulated address.
func (p *Program) BlockAddr(i int) mem.Addr {
	return programBase + mem.Addr(i)*mem.BlockBytes
}

// Page returns the page holding every program block (the adversary's
// page-bounce target). All programs must fit one page.
func (p *Program) Page() mem.PageAddr {
	if p.Blocks > mem.BlocksPerPage {
		panic(fmt.Sprintf("explore: program %s uses %d blocks, page holds %d", p.Name, p.Blocks, mem.BlocksPerPage))
	}
	return programBase.Page()
}

// Txns returns the total transaction count across threads.
func (p *Program) Txns() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t.Txns)
	}
	return n
}

// StandardPrograms are the checked-in exploration subjects. The acceptance
// configuration — 2 cores, 3 threads, 2 blocks — is deliberately tiny so
// exhaustive mode terminates, yet it covers the protocol's interesting
// pairings: write/write conflicts, read-to-write upgrades, a writer whose
// line leaves the L1 mid-transaction, and multi-thread cores (so preemption
// is schedulable).
func StandardPrograms() []*Program {
	return []*Program{
		// Two incrementing threads and one reader over two blocks, with
		// opposite block orders — the classic conflict/deadlock shape.
		{
			Name:   "incr-cross",
			Cores:  2,
			Blocks: 2,
			Threads: []ThreadProg{
				{Txns: []Txn{{{Kind: OpIncr, Block: 0, Delta: 1}, {Kind: OpIncr, Block: 1, Delta: 10}}}},
				{Txns: []Txn{{{Kind: OpIncr, Block: 1, Delta: 100}, {Kind: OpIncr, Block: 0, Delta: 1000}}}},
				{Txns: []Txn{{{Kind: OpLoad, Block: 0}, {Kind: OpLoad, Block: 1}}}},
			},
		},
		// Read-to-write upgrades on a shared block: both writers first read
		// it, then increment — the dueling-upgrade livelock shape.
		{
			Name:   "upgrade-duel",
			Cores:  2,
			Blocks: 2,
			Threads: []ThreadProg{
				{Txns: []Txn{{{Kind: OpLoad, Block: 0}, {Kind: OpWork, Cycles: 20}, {Kind: OpIncr, Block: 0, Delta: 1}}}},
				{Txns: []Txn{{{Kind: OpLoad, Block: 0}, {Kind: OpWork, Cycles: 20}, {Kind: OpIncr, Block: 0, Delta: 2}}}},
				{Txns: []Txn{{{Kind: OpIncr, Block: 1, Delta: 4}}}},
			},
		},
		// A writer that stores, computes, then re-reads its own block: the
		// shape where a mid-transaction page bounce forces the writer's
		// metastate home and back, exercising fission on the refill (§5.3).
		{
			Name:   "writer-reread",
			Cores:  2,
			Blocks: 2,
			Threads: []ThreadProg{
				{Txns: []Txn{{{Kind: OpIncr, Block: 0, Delta: 1}, {Kind: OpWork, Cycles: 30}, {Kind: OpLoad, Block: 0}}}},
				{Txns: []Txn{{{Kind: OpIncr, Block: 1, Delta: 7}}}},
				{Txns: []Txn{{{Kind: OpLoad, Block: 1}}}},
			},
		},
		// Per-core footprints are disjoint (core 0's threads touch only
		// block 0, core 1's only block 1), so cross-core run decisions
		// commute and the sleep-set rule collapses the interleaving space;
		// the same-core pair still conflicts on block 0.
		{
			Name:   "disjoint-lanes",
			Cores:  2,
			Blocks: 2,
			Threads: []ThreadProg{
				{Txns: []Txn{{{Kind: OpIncr, Block: 0, Delta: 1}, {Kind: OpWork, Cycles: 15}}}},
				{Txns: []Txn{{{Kind: OpIncr, Block: 1, Delta: 5}}}},
				{Txns: []Txn{{{Kind: OpIncr, Block: 0, Delta: 9}}}},
			},
		},
	}
}

// ProgramByName resolves a standard program (nil when unknown).
func ProgramByName(name string) *Program {
	for _, p := range StandardPrograms() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Variants are the five evaluated HTM systems, in the paper's order.
var Variants = []string{"TokenTM", "TokenTM_NoFast", "LogTM-SE_Perf", "LogTM-SE_2xH3", "LogTM-SE_4xH3"}

// buildHTM constructs the named variant over m, optionally seeding a
// protocol mutation (TokenTM variants only; mutations target the token
// protocol). The second return is the TokenTM instance for bookkeeping
// checks and paging, nil for the LogTM-SE variants.
func buildHTM(m *sim.Machine, variant string, mut core.Mutation) (htm.System, *core.TokenTM) {
	switch variant {
	case "TokenTM":
		t := core.New(m.Mem, m.Store, core.WithRetryLimit(retryLimit), core.WithMutation(mut))
		return t, t
	case "TokenTM_NoFast":
		t := core.New(m.Mem, m.Store, core.WithoutFastRelease(), core.WithRetryLimit(retryLimit), core.WithMutation(mut))
		return t, t
	case "LogTM-SE_Perf":
		return logtmse.New(m.Mem, m.Store, sig.KindPerfect, retryLimit), nil
	case "LogTM-SE_2xH3":
		return logtmse.New(m.Mem, m.Store, sig.Kind2xH3, retryLimit), nil
	case "LogTM-SE_4xH3":
		return logtmse.New(m.Mem, m.Store, sig.Kind4xH3, retryLimit), nil
	}
	panic("explore: unknown variant " + variant)
}
