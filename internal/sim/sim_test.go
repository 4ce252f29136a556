package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tokentm/internal/core"
	"tokentm/internal/htm"
	"tokentm/internal/logtmse"
	"tokentm/internal/mem"
	"tokentm/internal/sig"
)

// buildHTM constructs each evaluated variant for a machine.
func buildHTM(m *Machine, name string) htm.System {
	switch name {
	case "TokenTM":
		return core.New(m.Mem, m.Store)
	case "TokenTM_NoFast":
		return core.New(m.Mem, m.Store, core.WithoutFastRelease())
	case "LogTM-SE_Perf":
		return logtmse.New(m.Mem, m.Store, sig.KindPerfect, 8)
	case "LogTM-SE_2xH3":
		return logtmse.New(m.Mem, m.Store, sig.Kind2xH3, 8)
	case "LogTM-SE_4xH3":
		return logtmse.New(m.Mem, m.Store, sig.Kind4xH3, 8)
	}
	panic("unknown variant " + name)
}

var allVariants = []string{"TokenTM", "TokenTM_NoFast", "LogTM-SE_Perf", "LogTM-SE_2xH3", "LogTM-SE_4xH3"}

func newMachine(t *testing.T, cores int, variant string) *Machine {
	t.Helper()
	m := New(Config{Cores: cores})
	m.SetHTM(buildHTM(m, variant))
	return m
}

func TestNonTransactionalExecution(t *testing.T) {
	m := newMachine(t, 2, "TokenTM")
	const addr mem.Addr = 0x1000
	m.Spawn(func(tc *Ctx) {
		tc.Store(addr, 41)
		v := tc.Load(addr)
		tc.Store(addr, v+1)
		tc.Work(100)
	})
	cycles := m.Run()
	if got := m.Store.Load(addr); got != 42 {
		t.Fatalf("value = %d, want 42", got)
	}
	if cycles < 100 {
		t.Fatalf("makespan %d too small", cycles)
	}
}

// TestAtomicCounter is the classic TM smoke test: concurrent increments of
// one shared counter must all be preserved, on every variant.
func TestAtomicCounter(t *testing.T) {
	for _, variant := range allVariants {
		t.Run(variant, func(t *testing.T) {
			m := newMachine(t, 8, variant)
			const addr mem.Addr = 0x2000
			const perThread = 25
			for i := 0; i < 8; i++ {
				m.Spawn(func(tc *Ctx) {
					for k := 0; k < perThread; k++ {
						tc.Atomic(func(tx *Tx) {
							v := tx.Load(addr)
							tx.Work(20)
							tx.Store(addr, v+1)
						})
						tc.Work(50)
					}
				})
			}
			m.Run()
			if got := m.Store.Load(addr); got != 8*perThread {
				t.Fatalf("counter = %d, want %d", got, 8*perThread)
			}
			if len(m.Commits) != 8*perThread {
				t.Fatalf("commits = %d", len(m.Commits))
			}
		})
	}
}

// TestBankConservation is the serializability property test: random
// transfers between accounts must conserve total money under heavy
// contention and aborts, for every HTM variant.
func TestBankConservation(t *testing.T) {
	for _, variant := range allVariants {
		t.Run(variant, func(t *testing.T) {
			m := newMachine(t, 8, variant)
			const accounts = 16
			const initial = 1000
			base := mem.Addr(0x8000)
			acct := func(i int) mem.Addr { return base + mem.Addr(i)*mem.BlockBytes }
			for i := 0; i < accounts; i++ {
				m.Store.StoreWord(acct(i), initial)
			}
			for th := 0; th < 8; th++ {
				seed := int64(th + 1)
				m.Spawn(func(tc *Ctx) {
					rng := rand.New(rand.NewSource(seed))
					for k := 0; k < 30; k++ {
						from, to := rng.Intn(accounts), rng.Intn(accounts)
						if from == to {
							continue
						}
						amt := uint64(1 + rng.Intn(10))
						tc.Atomic(func(tx *Tx) {
							f := tx.Load(acct(from))
							if f < amt {
								return
							}
							tx.Store(acct(from), f-amt)
							tg := tx.Load(acct(to))
							tx.Store(acct(to), tg+amt)
						})
					}
				})
			}
			m.Run()
			var total uint64
			for i := 0; i < accounts; i++ {
				total += m.Store.Load(acct(i))
			}
			if total != accounts*initial {
				t.Fatalf("money not conserved: %d != %d", total, accounts*initial)
			}
			if tok, ok := m.HTM.(*core.TokenTM); ok {
				if err := tok.CheckBookkeeping(); err != nil {
					t.Fatalf("bookkeeping: %v", err)
				}
			}
		})
	}
}

// TestIsolation checks that a reader transaction never observes a torn pair
// of values that writers always update together.
func TestIsolation(t *testing.T) {
	for _, variant := range allVariants {
		t.Run(variant, func(t *testing.T) {
			m := newMachine(t, 4, variant)
			a, b := mem.Addr(0x3000), mem.Addr(0x7000)
			violations := 0
			// Writers keep a == b.
			for w := 0; w < 2; w++ {
				m.Spawn(func(tc *Ctx) {
					for k := 0; k < 40; k++ {
						tc.Atomic(func(tx *Tx) {
							v := tx.Load(a)
							tx.Store(a, v+1)
							tx.Work(30)
							tx.Store(b, tx.Load(b)+1)
						})
					}
				})
			}
			// Readers verify the invariant transactionally.
			for r := 0; r < 2; r++ {
				m.Spawn(func(tc *Ctx) {
					for k := 0; k < 40; k++ {
						tc.Atomic(func(tx *Tx) {
							x := tx.Load(a)
							tx.Work(25)
							y := tx.Load(b)
							if x != y {
								violations++
							}
						})
						tc.Work(75)
					}
				})
			}
			m.Run()
			if violations != 0 {
				t.Fatalf("%d isolation violations", violations)
			}
			if m.Store.Load(a) != 80 || m.Store.Load(b) != 80 {
				t.Fatalf("final values: %d %d", m.Store.Load(a), m.Store.Load(b))
			}
		})
	}
}

// TestFastVsSoftwareRelease: cache-resident transactions commit with fast
// token release; transactions overflowing the L1 fall back to the software
// log walk — and both stay correct.
func TestFastVsSoftwareRelease(t *testing.T) {
	m := newMachine(t, 1, "TokenTM")
	tok := m.HTM.(*core.TokenTM)

	// Small transaction: a handful of blocks.
	m.Spawn(func(tc *Ctx) {
		tc.Atomic(func(tx *Tx) {
			for i := 0; i < 8; i++ {
				tx.Store(mem.Addr(0x10000+i*mem.BlockBytes), uint64(i))
			}
		})
		// Large transaction: write far more blocks than one L1 set holds
		// (same set via stride = sets*blocksize), forcing evictions of
		// transactional lines.
		stride := mem.Addr(128 * mem.BlockBytes)
		tc.Atomic(func(tx *Tx) {
			for i := 0; i < 64; i++ {
				tx.Store(mem.Addr(0x200000)+stride*mem.Addr(i), uint64(i))
			}
		})
	})
	m.Run()
	if tok.FastCommits != 1 || tok.SlowCommits != 1 {
		t.Fatalf("fast=%d slow=%d, want 1 and 1", tok.FastCommits, tok.SlowCommits)
	}
	if err := tok.CheckBookkeeping(); err != nil {
		t.Fatalf("bookkeeping: %v", err)
	}
	// Values must be intact either way.
	stride := mem.Addr(128 * mem.BlockBytes)
	for i := 0; i < 64; i++ {
		if got := m.Store.Load(mem.Addr(0x200000) + stride*mem.Addr(i)); got != uint64(i) {
			t.Fatalf("block %d = %d", i, got)
		}
	}
	// The software-release commit must be recorded with its release time.
	var slow *htm.CommitRecord
	for i := range m.Commits {
		if !m.Commits[i].Fast {
			slow = &m.Commits[i]
		}
	}
	if slow == nil || slow.ReleaseCycles == 0 {
		t.Fatalf("software release not recorded: %+v", m.Commits)
	}
}

// TestNoFastVariantAlwaysWalksLog checks TokenTM_NoFast releases in software
// even for tiny transactions.
func TestNoFastVariantAlwaysWalksLog(t *testing.T) {
	m := newMachine(t, 1, "TokenTM_NoFast")
	tok := m.HTM.(*core.TokenTM)
	m.Spawn(func(tc *Ctx) {
		tc.Atomic(func(tx *Tx) {
			tx.Store(0x5000, 7)
		})
	})
	m.Run()
	if tok.FastCommits != 0 || tok.SlowCommits != 1 {
		t.Fatalf("fast=%d slow=%d", tok.FastCommits, tok.SlowCommits)
	}
}

// TestContextSwitchDuringTransaction runs two transactional threads on one
// core with a small quantum: transactions survive flash-OR context switches
// and still commit correctly (necessarily via software release).
func TestContextSwitchDuringTransaction(t *testing.T) {
	m := New(Config{Cores: 1, Quantum: 500})
	tok := core.New(m.Mem, m.Store)
	m.SetHTM(tok)
	const addr mem.Addr = 0x9000
	for i := 0; i < 2; i++ {
		m.Spawn(func(tc *Ctx) {
			for k := 0; k < 5; k++ {
				tc.Atomic(func(tx *Tx) {
					v := tx.Load(addr)
					tx.Work(1200) // exceed the quantum mid-transaction
					tx.Store(addr, v+1)
				})
			}
		})
	}
	m.Run()
	if got := m.Store.Load(addr); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if err := tok.CheckBookkeeping(); err != nil {
		t.Fatalf("bookkeeping: %v", err)
	}
	if tok.SlowCommits == 0 {
		t.Fatal("context-switched transactions must use software release")
	}
}

// TestQuantumExpiresBetweenWorkCalls: a quantum observes turn boundaries, so
// on a preemptive machine every Work call is its own turn (no deferral) and
// the quantum can expire between two Work calls with no shared operation
// between them.
func TestQuantumExpiresBetweenWorkCalls(t *testing.T) {
	m := New(Config{Cores: 1, Quantum: 100})
	m.SetHTM(core.New(m.Mem, m.Store))
	var started mem.Cycle
	m.Spawn(func(tc *Ctx) {
		for i := 0; i < 3; i++ {
			tc.Work(80)
		}
	})
	m.Spawn(func(tc *Ctx) { started = tc.Now() })
	m.Run()
	if started >= 240 {
		t.Fatalf("second thread started at cycle %d, after all three Work calls; the quantum should expire at the turn ending at 160", started)
	}
}

// TestChooserSeesEveryWorkTurn: a chooser observes turn boundaries, so under
// RunChoosing every Work call is its own turn even without a quantum.
func TestChooserSeesEveryWorkTurn(t *testing.T) {
	m := New(Config{Cores: 1})
	m.SetHTM(core.New(m.Mem, m.Store))
	m.Spawn(func(tc *Ctx) {
		for i := 0; i < 3; i++ {
			tc.Work(80)
		}
	})
	asked := 0
	m.RunChoosing(func(_ []CoreChoice, def int) (int, bool) {
		asked++
		return def, true
	})
	if asked != 4 { // before each Work turn and before the thread's last turn
		t.Fatalf("chooser asked %d times, want 4", asked)
	}
}

// TestLocksAndSyscalls exercises the OS model: lock handoff order and
// blocking syscalls that free the core.
func TestLocksAndSyscalls(t *testing.T) {
	m := newMachine(t, 2, "TokenTM")
	const addr mem.Addr = 0xa000
	for i := 0; i < 4; i++ {
		m.Spawn(func(tc *Ctx) {
			for k := 0; k < 5; k++ {
				tc.Lock(1)
				v := tc.Load(addr)
				tc.Syscall(2000) // blocking call inside the critical section
				tc.Store(addr, v+1)
				tc.Unlock(1)
			}
		})
	}
	cycles := m.Run()
	if got := m.Store.Load(addr); got != 20 {
		t.Fatalf("lock-protected counter = %d, want 20", got)
	}
	if cycles < 20*2000 {
		t.Fatalf("syscalls serialized under the lock should dominate: %d", cycles)
	}
}

// TestDeterminism: identical seeds give identical makespans; different
// seeds perturb them.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) mem.Cycle {
		m := New(Config{Cores: 4, Seed: seed})
		m.SetHTM(core.New(m.Mem, m.Store))
		const addr mem.Addr = 0x2000
		for i := 0; i < 4; i++ {
			m.Spawn(func(tc *Ctx) {
				for k := 0; k < 10; k++ {
					tc.Atomic(func(tx *Tx) {
						tx.Store(addr, tx.Load(addr)+1)
					})
				}
			})
		}
		return m.Run()
	}
	if run(1) != run(1) {
		t.Fatal("same seed must reproduce exactly")
	}
}

// TestAbortsHappenUnderContention: with many threads hammering one block,
// some attempts must abort, and aborted work must be invisible.
func TestAbortsHappenUnderContention(t *testing.T) {
	m := newMachine(t, 8, "TokenTM")
	const a mem.Addr = 0x4000
	for i := 0; i < 8; i++ {
		m.Spawn(func(tc *Ctx) {
			for k := 0; k < 20; k++ {
				tc.Atomic(func(tx *Tx) {
					v := tx.Load(a)
					tx.Work(500)
					tx.Store(a, v+1)
				})
			}
		})
	}
	m.Run()
	if got := m.Store.Load(a); got != 160 {
		t.Fatalf("counter = %d", got)
	}
	if m.HTM.Stats().Aborts == 0 && m.HTM.Stats().Stalls == 0 {
		t.Fatal("expected contention to cause stalls or aborts")
	}
}

// TestFalsePositivesOnlyWithBloom: disjoint working sets never conflict
// under perfect signatures or TokenTM, but 2xH3 sees false conflicts once
// sets are large.
func TestFalsePositivesOnlyWithBloom(t *testing.T) {
	runWith := func(variant string) (falseConf uint64) {
		m := newMachine(t, 4, variant)
		for i := 0; i < 4; i++ {
			base := mem.Addr(0x100000 * (i + 1))
			m.Spawn(func(tc *Ctx) {
				for k := 0; k < 3; k++ {
					tc.Atomic(func(tx *Tx) {
						for j := 0; j < 200; j++ {
							a := base + mem.Addr(j)*mem.BlockBytes
							tx.Store(a, tx.Load(a)+1)
						}
					})
				}
			})
		}
		m.Run()
		return m.HTM.Stats().FalseConflicts
	}
	if fc := runWith("LogTM-SE_Perf"); fc != 0 {
		t.Fatalf("perfect signatures reported %d false conflicts", fc)
	}
	if fc := runWith("TokenTM"); fc != 0 {
		t.Fatalf("TokenTM reported %d false conflicts", fc)
	}
	if fc := runWith("LogTM-SE_2xH3"); fc == 0 {
		t.Fatal("2xH3 with 200-block sets should alias")
	}
}

// TestLargeTransactionDoesNotBlockOthers: the headline TokenTM property — a
// huge transaction in one thread leaves non-conflicting small transactions
// running at full speed (all fast commits).
func TestLargeTransactionDoesNotBlockOthers(t *testing.T) {
	m := newMachine(t, 2, "TokenTM")
	tok := m.HTM.(*core.TokenTM)
	stride := mem.Addr(128 * mem.BlockBytes)
	m.Spawn(func(tc *Ctx) { // the elephant
		tc.Atomic(func(tx *Tx) {
			for i := 0; i < 600; i++ {
				a := mem.Addr(0x4000000) + stride*mem.Addr(i)
				tx.Store(a, uint64(i))
			}
		})
	})
	small := 0
	m.Spawn(func(tc *Ctx) { // the mice
		for k := 0; k < 50; k++ {
			tc.Atomic(func(tx *Tx) {
				a := mem.Addr(0x1000) + mem.Addr(k%4)*mem.BlockBytes
				tx.Store(a, tx.Load(a)+1)
			})
			small++
		}
	})
	m.Run()
	if small != 50 {
		t.Fatalf("small transactions: %d", small)
	}
	var smallFast int
	for _, r := range m.Commits {
		if r.Thread == 1 && r.Fast {
			smallFast++
		}
	}
	if smallFast != 50 {
		t.Fatalf("non-conflicting small transactions should all fast-commit: %d/50", smallFast)
	}
	if err := tok.CheckBookkeeping(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedStressWithInvariant drives random mixed workloads and
// checks the double-entry bookkeeping invariant at the end of every run.
func TestRandomizedStressWithInvariant(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		variant := allVariants[trial%len(allVariants)]
		m := New(Config{Cores: 4, Seed: int64(trial)})
		m.SetHTM(buildHTM(m, variant))
		for i := 0; i < 6; i++ {
			seed := int64(trial*100 + i)
			m.Spawn(func(tc *Ctx) {
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < 15; k++ {
					if rng.Intn(4) == 0 {
						// Non-transactional access.
						a := mem.Addr(0x6000 + rng.Intn(32)*mem.BlockBytes)
						tc.Store(a, tc.Load(a)+1)
						continue
					}
					n := 1 + rng.Intn(12)
					tc.Atomic(func(tx *Tx) {
						for j := 0; j < n; j++ {
							a := mem.Addr(0x6000 + rng.Intn(32)*mem.BlockBytes)
							if rng.Intn(2) == 0 {
								tx.Store(a, tx.Load(a)+1)
							} else {
								tx.Load(a)
							}
						}
					})
				}
			})
		}
		m.Run()
		if tok, ok := m.HTM.(*core.TokenTM); ok {
			if err := tok.CheckBookkeeping(); err != nil {
				t.Fatalf("trial %d (%s): %v", trial, variant, err)
			}
		}
	}
}

// spawnLoaders spawns four threads that each do 1 000 Loads; thread
// panicker panics at its fourth (-1: none does).
func spawnLoaders(m *Machine, panicker int) {
	for id := 0; id < 4; id++ {
		m.Spawn(func(tc *Ctx) {
			for i := 0; i < 1000; i++ {
				if id == panicker && i == 3 {
					panic("boom")
				}
				tc.Load(mem.Addr(0x10000 + (id*1000+i)*mem.BlockBytes))
			}
		})
	}
}

// TestThreadPanicLeavesNoGoroutines: a thread's panic leaves Run on the
// caller, and the machine's other threads have exited by then, with no Kill.
func TestThreadPanicLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := newMachine(t, 4, "TokenTM")
	spawnLoaders(m, 2)
	var p any
	func() {
		defer func() { p = recover() }()
		m.Run()
	}()
	if p != "boom" {
		t.Fatalf("Run panicked with %v, want the thread's panic", p)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after the panicking run, %d before it", got, before)
	}
}

// TestChooserStopThenKillLeavesNoGoroutines: a chooser stop leaves the
// threads suspended until Kill, which returns once they have all exited.
func TestChooserStopThenKillLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := newMachine(t, 4, "TokenTM")
	spawnLoaders(m, -1)
	turns := 0
	m.RunChoosing(func(_ []CoreChoice, def int) (int, bool) {
		turns++
		return def, turns <= 20
	})
	m.Kill()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after stop and Kill, %d before the machine", got, before)
	}
}

func TestSpawnPinning(t *testing.T) {
	m := newMachine(t, 2, "TokenTM")
	done := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn(func(tc *Ctx) {
			done[i] = tc.Core()
			tc.Work(10)
		})
	}
	m.Run()
	want := []int{0, 1, 0, 1}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("thread %d on core %d, want %d", i, done[i], want[i])
		}
	}
}

func ExampleMachine() {
	m := New(Config{Cores: 2})
	m.SetHTM(core.New(m.Mem, m.Store))
	m.Spawn(func(tc *Ctx) {
		tc.Atomic(func(tx *Tx) {
			tx.Store(0x1000, 42)
		})
	})
	m.Run()
	fmt.Println(m.Store.Load(0x1000))
	// Output: 42
}
