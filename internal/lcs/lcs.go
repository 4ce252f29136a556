// Package lcs reproduces the paper's Table 1: an analysis of long-running
// critical sections (LCS) in four lock-based server workloads.
//
// The paper instruments real AOLServer, Apache, BerkeleyDB and BIND binaries
// with DTrace, recording critical sections that make blocking system calls
// or context switch while holding a lock. Those binaries (and Solaris) are
// not reproducible here, so this package substitutes synthetic server models
// whose critical sections perform the same blocking activities the paper
// describes — Apache forks processes under a lock, BIND waits for network
// messages holding a socket lock, AOLServer and BerkeleyDB call the
// allocator ('sbrk') and flush log buffers to disk — calibrated so the
// probe-layer measurements land near the published numbers.
package lcs

import (
	"math/rand"

	"tokentm/internal/core"
	"tokentm/internal/mem"
	"tokentm/internal/sim"
	"tokentm/internal/stats"
)

// CyclesPerMs converts simulated cycles to milliseconds at the modeled
// 1 GHz clock.
const CyclesPerMs = 1_000_000

// Model describes one lock-based server workload.
type Model struct {
	Name string
	// Activity is the blocking activity the paper observed inside the
	// longest critical sections.
	Activity string

	Threads  int
	Cores    int
	Requests int // per thread

	// LCSProb is the probability a request's critical section blocks.
	LCSProb float64
	// BlockBase is the typical blocking time (cycles); BlockJitter a
	// uniform spread; TailP/TailMax a rare long tail.
	BlockBase, BlockJitter mem.Cycle
	TailP                  float64
	TailMax                mem.Cycle
	// OutsideWork is per-request non-critical computation.
	OutsideWork mem.Cycle
	// ShortCS is the duration of the common non-blocking critical
	// section.
	ShortCS mem.Cycle
}

// Models returns the four workloads of Table 1.
//
// Calibration targets (paper): avg / max LCS duration and % of execution
// time: AOLServer 0.1/0.7 ms 0.1%; Apache 49.6/70.5 ms 1.4%; BerkeleyDB
// 0.1/0.2 ms 0.01%; BIND 0.2/1.8 ms 2.2%.
func Models() []Model {
	return []Model{
		{
			Name: "AOLServer", Activity: "allocator sbrk calls, log flushes",
			Threads: 8, Cores: 4, Requests: 500,
			LCSProb: 0.06, BlockBase: 70 * CyclesPerMs / 1000, BlockJitter: 80 * CyclesPerMs / 1000,
			TailP: 0.03, TailMax: 700 * CyclesPerMs / 1000,
			OutsideWork: 3500 * CyclesPerMs / 1000, ShortCS: 2000,
		},
		{
			Name: "Apache", Activity: "forks processes while holding a lock",
			Threads: 8, Cores: 4, Requests: 400,
			LCSProb: 0.01, BlockBase: 41 * CyclesPerMs, BlockJitter: 12 * CyclesPerMs,
			TailP: 0.25, TailMax: 70 * CyclesPerMs,
			OutsideWork: 16 * CyclesPerMs, ShortCS: 3000,
		},
		{
			Name: "BerkeleyDB", Activity: "disk log-buffer flushes",
			Threads: 8, Cores: 4, Requests: 600,
			LCSProb: 0.004, BlockBase: 80 * CyclesPerMs / 1000, BlockJitter: 50 * CyclesPerMs / 1000,
			TailP: 0.12, TailMax: 200 * CyclesPerMs / 1000,
			OutsideWork: 2 * CyclesPerMs, ShortCS: 1500,
		},
		{
			Name: "BIND", Activity: "waits for network messages on a socket lock",
			Threads: 8, Cores: 4, Requests: 500,
			LCSProb: 0.10, BlockBase: 150 * CyclesPerMs / 1000, BlockJitter: 120 * CyclesPerMs / 1000,
			TailP: 0.015, TailMax: 1800 * CyclesPerMs / 1000,
			OutsideWork: 900 * CyclesPerMs / 1000, ShortCS: 1800,
		},
	}
}

// Probes is the DTrace-like instrumentation layer: it records every
// critical section's duration and whether it blocked (syscall or context
// switch) while holding the lock.
type Probes struct {
	durations []mem.Cycle // blocking (long-running) critical sections
	shortCS   int
}

// enter/exit bracket a critical section.
func (p *Probes) record(duration mem.Cycle, blocked bool) {
	if blocked {
		p.durations = append(p.durations, duration)
	} else {
		p.shortCS++
	}
}

// Report is one row of Table 1.
type Report struct {
	Name     string
	Activity string
	// AvgMs and MaxMs are the LCS durations; PctTime is the share of
	// total execution time spent in LCS.
	AvgMs, MaxMs float64
	PctTime      float64
	// Events is the number of long-running critical sections observed.
	Events int
}

// Run executes the model under the probe layer and reports its Table 1 row.
func Run(m Model, seed int64) Report {
	rep, _ := Simulate(m, seed)
	return rep
}

// Simulate is Run that also returns the finished machine, for audits of its
// schedule and books.
func Simulate(m Model, seed int64) (Report, *sim.Machine) {
	mach := sim.New(sim.Config{Cores: m.Cores, Seed: seed, Quantum: 2 * CyclesPerMs})
	mach.SetHTM(core.New(mach.Mem, mach.Store))

	probes := &Probes{}
	const lockID = 1
	counterAddr := mem.Addr(0x1000)

	for t := 0; t < m.Threads; t++ {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(t)))
		mach.Spawn(func(tc *sim.Ctx) {
			for i := 0; i < m.Requests; i++ {
				tc.Work(m.OutsideWork)
				tc.Lock(lockID)
				entered := tc.Now()
				blocked := false
				if rng.Float64() < m.LCSProb {
					// Long-running critical section: blocking activity
					// while holding the lock.
					d := m.BlockBase
					if m.BlockJitter > 0 {
						d += mem.Cycle(rng.Int63n(int64(m.BlockJitter)))
					}
					if m.TailP > 0 && rng.Float64() < m.TailP {
						d = m.TailMax - mem.Cycle(rng.Int63n(int64(m.TailMax/10)))
					}
					tc.Syscall(d)
					blocked = true
				} else {
					tc.Work(m.ShortCS)
				}
				// Shared update under the lock.
				v := tc.Load(counterAddr)
				tc.Store(counterAddr, v+1)
				left := tc.Now()
				tc.Unlock(lockID)
				probes.record(left-entered, blocked)
			}
		})
	}
	makespan := mach.Run()

	rep := Report{Name: m.Name, Activity: m.Activity, Events: len(probes.durations)}
	var sample stats.Sample
	var sum mem.Cycle
	for _, d := range probes.durations {
		sample.Add(float64(d))
		sum += d
	}
	if sample.N() > 0 {
		rep.AvgMs = sample.Mean() / CyclesPerMs
		rep.MaxMs = sample.Max() / CyclesPerMs
	}
	totalTime := float64(makespan) * float64(m.Cores)
	if totalTime > 0 {
		rep.PctTime = 100 * float64(sum) / totalTime
	}
	return rep, mach
}

// Table1 runs all four models and returns their rows in the paper's order.
func Table1(seed int64) []Report {
	var out []Report
	for _, m := range Models() {
		out = append(out, Run(m, seed))
	}
	return out
}
