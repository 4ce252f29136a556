// Package tokentm is a from-scratch reproduction of "TokenTM: Efficient
// Execution of Large Transactions with Hardware Transactional Memory"
// (Bobba, Goyal, Hill, Swift & Wood, ISCA 2008).
//
// It provides:
//
//   - a cycle-approximate 32-core CMP simulator (private L1s, banked shared
//     L2, MESI directory coherence over a tiled interconnect);
//   - the TokenTM HTM: precise unbounded conflict detection via per-block
//     transactional tokens with double-entry bookkeeping, metastate
//     fission/fusion, in-memory metabits and fast token release;
//   - the LogTM-SE baseline with perfect and Bloom (2xH3/4xH3) signatures;
//   - Table 5-calibrated synthetic STAMP/SPLASH workloads and the lock-based
//     server models of Table 1;
//   - an experiment harness that regenerates every table and figure in the
//     paper's evaluation (see the Figure1With, Figure5With, Table1, Table5
//     and Table6 functions, and cmd/experiments).
//
// Quick start:
//
//	sys := tokentm.New(tokentm.Config{Variant: tokentm.VariantTokenTM, Cores: 4})
//	sys.Spawn(func(tc *tokentm.Ctx) {
//		tc.Atomic(func(tx *tokentm.Tx) {
//			tx.Store(0x1000, tx.Load(0x1000)+1)
//		})
//	})
//	sys.Run()
package tokentm

import (
	"fmt"

	"tokentm/internal/core"
	"tokentm/internal/htm"
	"tokentm/internal/logtmse"
	"tokentm/internal/mem"
	"tokentm/internal/sig"
	"tokentm/internal/sim"
)

// Re-exported simulator types: these aliases are the public names for the
// thread API used by examples and applications.
type (
	// Ctx is a simulated thread's machine interface.
	Ctx = sim.Ctx
	// Tx is the transactional view inside Ctx.Atomic.
	Tx = sim.Tx
	// Addr is a simulated physical byte address.
	Addr = mem.Addr
	// Cycle is simulated time in processor cycles.
	Cycle = mem.Cycle
)

// BlockBytes is the conflict-detection granularity (64-byte blocks).
const BlockBytes = mem.BlockBytes

// Variant names an HTM system evaluated in the paper (§6.1).
type Variant string

// The five evaluated HTM variants.
const (
	VariantTokenTM       Variant = "TokenTM"
	VariantTokenTMNoFast Variant = "TokenTM_NoFast"
	VariantLogTMSEPerf   Variant = "LogTM-SE_Perf"
	VariantLogTMSE2xH3   Variant = "LogTM-SE_2xH3"
	VariantLogTMSE4xH3   Variant = "LogTM-SE_4xH3"
)

// Variants lists all five in the paper's presentation order.
func Variants() []Variant {
	return []Variant{
		VariantTokenTM, VariantTokenTMNoFast,
		VariantLogTMSEPerf, VariantLogTMSE2xH3, VariantLogTMSE4xH3,
	}
}

// Config parameterizes a simulated system.
type Config struct {
	// Variant selects the HTM (default VariantTokenTM).
	Variant Variant
	// Cores is the simulated core count (default 32, the paper's CMP).
	Cores int
	// Seed perturbs conflict backoffs (the paper's error-bar runs).
	Seed int64
	// Quantum enables preemptive time slicing when several threads share
	// a core (0 = run to block, as in the TM workloads).
	Quantum Cycle
	// RetryLimit bounds stalls against an older enemy before self-abort.
	RetryLimit int
}

// System is a configured simulated machine plus its HTM.
type System struct {
	// M is the underlying machine (memory system, scheduler, value store).
	M *sim.Machine
	// HTM is the attached HTM variant.
	HTM htm.System
}

// New builds a system.
func New(cfg Config) *System {
	if cfg.Variant == "" {
		cfg.Variant = VariantTokenTM
	}
	m := sim.New(sim.Config{Cores: cfg.Cores, Seed: cfg.Seed, Quantum: cfg.Quantum})
	var h htm.System
	switch cfg.Variant {
	case VariantTokenTM:
		h = core.New(m.Mem, m.Store, core.WithRetryLimit(retryLimit(cfg)))
	case VariantTokenTMNoFast:
		h = core.New(m.Mem, m.Store, core.WithoutFastRelease(), core.WithRetryLimit(retryLimit(cfg)))
	case VariantLogTMSEPerf:
		h = logtmse.New(m.Mem, m.Store, sig.KindPerfect, retryLimit(cfg))
	case VariantLogTMSE2xH3:
		h = logtmse.New(m.Mem, m.Store, sig.Kind2xH3, retryLimit(cfg))
	case VariantLogTMSE4xH3:
		h = logtmse.New(m.Mem, m.Store, sig.Kind4xH3, retryLimit(cfg))
	default:
		panic(fmt.Sprintf("tokentm: unknown variant %q", cfg.Variant))
	}
	m.SetHTM(h)
	return &System{M: m, HTM: h}
}

// retryLimit resolves the configured stall-retry backstop.
func retryLimit(cfg Config) int {
	if cfg.RetryLimit > 0 {
		return cfg.RetryLimit
	}
	return htm.DefaultRetryLimit
}

// Spawn starts a simulated thread (pinned round-robin to cores).
func (s *System) Spawn(fn func(*Ctx)) { s.M.Spawn(fn) }

// Run simulates until all threads finish, returning the makespan in cycles.
func (s *System) Run() Cycle { return s.M.Run() }

// Load reads a word from the simulated memory image (for inspection after
// Run; simulated threads use Ctx/Tx accessors).
func (s *System) Load(a Addr) uint64 { return s.M.Store.Load(a) }

// StoreWord initializes a word in the simulated memory image before Run.
func (s *System) StoreWord(a Addr, v uint64) { s.M.Store.StoreWord(a, v) }

// TokenTM returns the TokenTM protocol engine when that variant is attached
// (for paging, bookkeeping checks and Table 6 counters), or nil.
func (s *System) TokenTM() *core.TokenTM {
	t, _ := s.HTM.(*core.TokenTM)
	return t
}
