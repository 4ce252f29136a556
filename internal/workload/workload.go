// Package workload provides synthetic transactional workload generators
// calibrated to the paper's Table 5: the same transaction counts and
// read/write-set size distributions (average and maximum, in 64-byte
// blocks) as the STAMP and SPLASH programs the paper measures, with
// per-workload contention models.
//
// The real benchmarks are not reproducible here (they are C/SPARC programs
// run under Simics), but the performance effects the paper studies depend on
// transaction footprint, frequency and contention, which these generators
// reproduce by construction; the regenerated Table 5 validates the
// calibration.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"tokentm/internal/mem"
	"tokentm/internal/randstream"
	"tokentm/internal/sim"
)

// Spec describes one workload.
type Spec struct {
	Name  string
	Input string
	// Suite is "SPLASH" (small, carefully-tuned critical sections) or
	// "STAMP" (naive TM programs with large transactions).
	Suite string

	// NumXacts is the paper's dynamic transaction count (Table 5).
	NumXacts int
	// AvgRead/AvgWrite and MaxRead/MaxWrite are Table 5's read/write-set
	// sizes in blocks.
	AvgRead, AvgWrite float64
	MaxRead, MaxWrite int

	// TailP is the probability of a heavy-tail transaction whose set size
	// is drawn near the maximum (Raytrace and Genome have rare huge
	// transactions; Delaunay's are uniformly large).
	TailP float64

	// HotBlocks is the size of the contended hot region; SharedFrac is
	// the fraction of accesses directed at it. Together they set the
	// conflict rate.
	HotBlocks  int
	SharedFrac float64

	// PoolBlocks is the size of the weakly-shared main data region.
	PoolBlocks int

	// InsideWork and OutsideWork are compute cycles per transactional
	// access and between transactions: SPLASH programs spend little time
	// in transactions, STAMP programs most of it.
	InsideWork  mem.Cycle
	OutsideWork mem.Cycle

	// ScanTailReads models workloads whose rare huge transactions are
	// read-only scans of shared immutable data (Raytrace's scene BVH,
	// Genome's sequence segments): their reads come from a dedicated
	// region that writes never touch, so they do not serialize writers.
	ScanTailReads bool
}

// heapBase places workload data low in the address space, well below logs.
const heapBase mem.Addr = 1 << 20

// Specs returns the eight workloads of Table 5 in the paper's order.
func Specs() []Spec {
	return []Spec{
		{
			Name: "Barnes", Input: "512 bodies", Suite: "SPLASH",
			NumXacts: 2553, AvgRead: 6.1, AvgWrite: 4.2, MaxRead: 42, MaxWrite: 39,
			TailP: 0.02, HotBlocks: 128, SharedFrac: 0.10, PoolBlocks: 8192,
			InsideWork: 40, OutsideWork: 3000,
		},
		{
			Name: "Cholesky", Input: "tk14.0", Suite: "SPLASH",
			NumXacts: 60203, AvgRead: 2.4, AvgWrite: 1.7, MaxRead: 6, MaxWrite: 4,
			TailP: 0, HotBlocks: 256, SharedFrac: 0.06, PoolBlocks: 16384,
			InsideWork: 25, OutsideWork: 900,
		},
		{
			Name: "Radiosity", Input: "batch", Suite: "SPLASH",
			NumXacts: 21786, AvgRead: 1.8, AvgWrite: 1.5, MaxRead: 25, MaxWrite: 24,
			TailP: 0.01, HotBlocks: 96, SharedFrac: 0.12, PoolBlocks: 8192,
			InsideWork: 45, OutsideWork: 1500,
		},
		{
			Name: "Raytrace", Input: "teapot", Suite: "SPLASH",
			NumXacts: 47783, AvgRead: 5.1, AvgWrite: 2.0, MaxRead: 594, MaxWrite: 4,
			TailP: 0.004, HotBlocks: 192, SharedFrac: 0.08, PoolBlocks: 16384,
			InsideWork: 25, OutsideWork: 1200, ScanTailReads: true,
		},
		{
			Name: "Delaunay", Input: "gen2.2-m30", Suite: "STAMP",
			NumXacts: 16384, AvgRead: 51.4, AvgWrite: 38.8, MaxRead: 507, MaxWrite: 345,
			TailP: 0.05, HotBlocks: 2048, SharedFrac: 0.01, PoolBlocks: 1048576,
			InsideWork: 300, OutsideWork: 400,
		},
		{
			Name: "Genome", Input: "g1024-s32-n65536", Suite: "STAMP",
			NumXacts: 100115, AvgRead: 14.5, AvgWrite: 2.1, MaxRead: 768, MaxWrite: 18,
			TailP: 0.003, HotBlocks: 1024, SharedFrac: 0.03, PoolBlocks: 65536,
			InsideWork: 100, OutsideWork: 300, ScanTailReads: true,
		},
		{
			Name: "Vacation-Low", Input: "low contention", Suite: "STAMP",
			NumXacts: 16399, AvgRead: 70.7, AvgWrite: 18.1, MaxRead: 162, MaxWrite: 75,
			TailP: 0.02, HotBlocks: 4096, SharedFrac: 0.02, PoolBlocks: 524288,
			InsideWork: 150, OutsideWork: 400,
		},
		{
			Name: "Vacation-High", Input: "high contention", Suite: "STAMP",
			NumXacts: 16399, AvgRead: 99.1, AvgWrite: 18.6, MaxRead: 331, MaxWrite: 80,
			TailP: 0.03, HotBlocks: 512, SharedFrac: 0.06, PoolBlocks: 65536,
			InsideWork: 150, OutsideWork: 400,
		},
	}
}

// Names returns the workload names in Table 5 order: the canonical
// workload axis for a harness job grid.
func Names() []string {
	specs := Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// byName is the lazily built name -> Spec index behind ByName, so the
// harness's per-job lookups don't rebuild the spec list each time.
var byName map[string]Spec
var byNameOnce sync.Once

// ByName returns the spec with the given name.
func ByName(name string) (Spec, bool) {
	byNameOnce.Do(func() {
		specs := Specs()
		byName = make(map[string]Spec, len(specs))
		for _, s := range specs {
			byName[s.Name] = s
		}
	})
	s, ok := byName[name]
	return s, ok
}

// setSizer draws read/write-set sizes matching a target mean and max: a
// geometric body plus a uniform heavy tail with probability TailP. The
// geometric's mean is solved so the mixture hits the target.
type setSizer struct {
	mean   float64
	max    int
	tailP  float64
	tailLo float64 // log-uniform tail lower bound
	geomP  float64 // success probability of the geometric body
}

func newSetSizer(mean float64, max int, tailP float64) setSizer {
	if max < 1 {
		max = 1
	}
	if mean < 1 {
		mean = 1
	}
	// The heavy tail is log-uniform on [tailLo, max]: most tail
	// transactions are a few times the mean, rare ones approach the
	// maximum (matching the paper's Table 6, where software-release
	// transactions average well below the Table 5 maxima).
	tailLo := 2 * mean
	if tailLo >= float64(max) {
		tailLo = float64(max) / 2
	}
	if tailLo < 2 {
		tailLo = 2
	}
	tailMean := (float64(max) - tailLo) / math.Log(float64(max)/tailLo)
	bodyMean := mean
	if tailP > 0 && tailMean > mean {
		bodyMean = (mean - tailP*tailMean) / (1 - tailP)
		if bodyMean < 1 {
			bodyMean = 1
		}
	}
	// Solve for the geometric success probability whose max-clamped mean
	// E[min(X,m)] = (1-(1-p)^m)/p equals bodyMean, by bisection.
	clampedMean := func(p float64) float64 {
		return (1 - math.Pow(1-p, float64(max))) / p
	}
	lo, hi := 1e-9, 1.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if clampedMean(mid) > bodyMean {
			lo = mid
		} else {
			hi = mid
		}
	}
	return setSizer{mean: mean, max: max, tailP: tailP, tailLo: tailLo, geomP: (lo + hi) / 2}
}

// draw samples one set size in [1, max], reporting heavy-tail draws.
func (s setSizer) draw(rng *rand.Rand) (int, bool) {
	if s.tailP > 0 && rng.Float64() < s.tailP {
		n := int(s.tailLo * math.Pow(float64(s.max)/s.tailLo, rng.Float64()))
		if n > s.max {
			n = s.max
		}
		if n < 2 {
			n = 2
		}
		return n, true
	}
	// Geometric with success probability geomP, clamped.
	n := 1
	if s.geomP < 1 {
		u := rng.Float64()
		n = 1 + int(math.Log(1-u)/math.Log(1-s.geomP))
	}
	if n > s.max {
		n = s.max
	}
	if n < 1 {
		n = 1
	}
	return n, false
}

// CheckScale is the one rule for a run's scale, the fraction of the
// paper's transaction counts it executes: scale must lie in (0, 1]. Zero,
// negatives, values above 1 and NaN are errors.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("scale %g: need 0 < scale <= 1", scale)
	}
	return nil
}

// Build spawns the workload's threads on machine m. scale shrinks the
// transaction count for fast runs and panics unless CheckScale accepts it;
// seed perturbs the generators.
func (s Spec) Build(m *sim.Machine, threads int, scale float64, seed int64) {
	if err := CheckScale(scale); err != nil {
		panic(fmt.Errorf("workload %s: %w", s.Name, err))
	}
	total := int(float64(s.NumXacts) * scale)
	if total < threads {
		total = threads
	}
	perThread := total / threads

	hotBase := heapBase
	poolBase := hotBase + mem.Addr(s.HotBlocks)*mem.BlockBytes
	scanBase := poolBase + mem.Addr(s.PoolBlocks)*mem.BlockBytes
	scanBlocks := 4 * s.PoolBlocks

	rs := newSetSizer(s.AvgRead, s.MaxRead, s.TailP)
	ws := newSetSizer(s.AvgWrite, s.MaxWrite, s.TailP)

	for t := 0; t < threads; t++ {
		rng := randstream.New(seed*7919 + int64(t)*104729 + 1)
		m.Spawn(func(tc *sim.Ctx) {
			seen := make(map[mem.Addr]bool)
			for i := 0; i < perThread; i++ {
				nr, rTail := rs.draw(rng)
				nw, _ := ws.draw(rng)
				if s.ScanTailReads && rTail {
					// Read-only scan of shared immutable data plus a
					// small ordinary write set.
					start := mem.Addr(rng.Intn(scanBlocks - nr))
					writes := s.pickBlocks(rng, seen, nw, hotBase, poolBase)
					tc.Atomic(func(tx *sim.Tx) {
						for j := 0; j < nr; j++ {
							tx.Load(scanBase + (start+mem.Addr(j))*mem.BlockBytes)
							tx.Work(s.InsideWork)
						}
						for _, a := range writes {
							tx.Store(a, tx.Load(a)+1)
						}
					})
					tc.Work(s.OutsideWork)
					continue
				}
				// Written blocks overlap the read set where possible
				// (read-modify-writes); excess writes hit fresh blocks.
				n := nr
				if nw > n {
					n = nw
				}
				blocks := s.pickBlocks(rng, seen, n, hotBase, poolBase)
				tc.Atomic(func(tx *sim.Tx) {
					for j, a := range blocks {
						var v uint64
						if j < nr {
							v = tx.Load(a)
						}
						tx.Work(s.InsideWork)
						if j < nw {
							tx.Store(a, v+1)
						}
					}
				})
				tc.Work(s.OutsideWork)
			}
		})
	}
}

// pickBlocks selects n distinct block addresses: SharedFrac of them from the
// contended hot region, the rest from the weakly-shared pool. seen is the
// calling thread's scratch set, emptied here.
func (s Spec) pickBlocks(rng *rand.Rand, seen map[mem.Addr]bool, n int, hotBase, poolBase mem.Addr) []mem.Addr {
	out := make([]mem.Addr, 0, n)
	clear(seen)
	for len(out) < n {
		var a mem.Addr
		if rng.Float64() < s.SharedFrac {
			a = hotBase + mem.Addr(rng.Intn(s.HotBlocks))*mem.BlockBytes
		} else {
			a = poolBase + mem.Addr(rng.Intn(s.PoolBlocks))*mem.BlockBytes
		}
		if seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out
}
