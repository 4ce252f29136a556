package logtmse

import (
	"testing"

	"tokentm/internal/coherence"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/sig"
	"tokentm/internal/tmlog"
)

// sinkEnemies keeps the benchmarked checks from being optimized away.
var sinkEnemies []*htm.Xact

// BenchmarkCheckConflict times one conflict check against 32 in-flight
// transactions, each holding 40 blocks in its read set and 8 in its write
// set, disjoint from the others'. Probes cycle over every held block and as
// many untouched ones, alternating reads and writes, from a 33rd
// transaction. Blocks start at 2^14, where the workloads' heap starts.
func BenchmarkCheckConflict(b *testing.B) {
	for _, kind := range []sig.Kind{sig.KindPerfect, sig.Kind4xH3} {
		b.Run(kind.String(), func(b *testing.B) {
			const threads, reads, writes = 32, 40, 8
			se := New(coherence.NewMemSys(4), mem.NewStore(), kind, 8)
			block := func(i int) mem.Addr { return mem.Addr(0x100000 + i*mem.BlockBytes) }
			var probes []mem.BlockAddr
			var self *htm.Thread
			for i := 0; i <= threads; i++ {
				th := &htm.Thread{ID: i, TID: mem.TID(i + 1), Core: i % 4, Log: tmlog.New(mem.Addr(1<<40) + mem.Addr(i)<<24)}
				se.Register(th)
				x := &htm.Xact{TID: th.TID, Core: th.Core, Timestamp: mem.Cycle(i + 1)}
				x.Reset()
				th.Xact = x
				se.Begin(th, 0)
				self = th
				if i == threads {
					break
				}
				for j := 0; j < reads+writes; j++ {
					a := block(i*(reads+writes) + j)
					if j < reads {
						se.Load(th, a, 0)
					} else {
						se.Store(th, a, 1, 0)
					}
					probes = append(probes, a.Block(), block((threads+i)*(reads+writes)+j).Block())
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % len(probes)
				sinkEnemies, _, _ = se.checkConflict(self.TID, probes[p], p/2%2 == 0)
			}
		})
	}
}
