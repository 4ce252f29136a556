package core

// Microbenchmarks for the latency-bearing protocol paths: conflict probes
// (hit = foreign reader tokens present, miss = untouched block), fast vs
// software commit, and abort unroll. They drive the TokenTM system directly,
// without the scheduler, so the numbers isolate the protocol engine.
// Run with -benchmem the output is benchstat-comparable (EXPERIMENTS.md has
// the recipe); `make profile` attaches pprof to the software-commit path.
// Their allocation counts are gated by TestAllocFreeAnnotations, not here.

import (
	"testing"

	"tokentm/internal/coherence"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/tmlog"
)

// benchBlocks is the per-transaction footprint of the commit/abort
// benchmarks: 16 blocks read, 4 written — a small transaction that fits the
// L1 without evictions, so fast-release eligibility survives.
const (
	benchReadBlocks  = 16
	benchWriteBlocks = 4
	benchHeap        = mem.Addr(0x100000)
)

func benchRig(cores int, opts ...Option) (*TokenTM, []*htm.Thread) {
	ms := coherence.NewMemSys(cores)
	tok := New(ms, mem.NewStore(), opts...)
	ths := make([]*htm.Thread, cores)
	for i := range ths {
		th := &htm.Thread{
			ID:   i,
			TID:  mem.TID(i + 1),
			Core: i,
			Log:  tmlog.New(mem.Addr(1<<40) + mem.Addr(i)<<24),
		}
		tok.Register(th)
		tok.RunningOn(i, th)
		ths[i] = th
	}
	return tok, ths
}

func benchBegin(tok *TokenTM, th *htm.Thread, x *htm.Xact) {
	x.Reset()
	x.Attempts++
	th.Xact = x
	tok.RunningOn(th.Core, th)
	tok.Begin(th, 0)
}

// BenchmarkProbe measures the conflict probe that runs on every transactional
// miss and every store: "miss" probes a block no transaction touches, "hit"
// probes a block on which three other cores hold identified reader tokens.
func BenchmarkProbe(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		tok, _ := benchRig(4)
		blk := benchHeap.Block()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p := tok.probe(blk); p.sum != 0 {
				b.Fatal("unexpected tokens")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		tok, ths := benchRig(4)
		blk := benchHeap.Block()
		for _, th := range ths[1:] {
			x := &htm.Xact{TID: th.TID, Core: th.Core}
			benchBegin(tok, th, x)
			if _, acc := tok.Load(th, benchHeap, 0); acc.Outcome != htm.OK {
				b.Fatal("setup load")
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p := tok.probe(blk); p.sum != 3 {
				b.Fatalf("want 3 reader tokens, got %d", p.sum)
			}
		}
	})
}

// BenchmarkCommit measures a full small transaction — attempt reset, 16
// transactional loads, 4 upgrades to stores, then commit — on both release
// paths. "fast" flash-clears; "software" walks the log and releases tokens
// block by block (the path the ordered token walk optimizes).
func BenchmarkCommit(b *testing.B) {
	cases := []struct {
		name     string
		wantFast bool
		opts     []Option
	}{
		{"fast", true, nil},
		{"software", false, []Option{WithoutFastRelease()}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			tok, ths := benchRig(1, tc.opts...)
			th := ths[0]
			x := &htm.Xact{TID: th.TID, Core: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchBegin(tok, th, x)
				for j := 0; j < benchReadBlocks; j++ {
					a := benchHeap + mem.Addr(j*mem.BlockBytes)
					if _, acc := tok.Load(th, a, 0); acc.Outcome != htm.OK {
						b.Fatal("load conflicted")
					}
				}
				for j := 0; j < benchWriteBlocks; j++ {
					a := benchHeap + mem.Addr(j*mem.BlockBytes)
					if acc := tok.Store(th, a, uint64(i), 0); acc.Outcome != htm.OK {
						b.Fatal("store conflicted")
					}
				}
				if _, fast := tok.Commit(th); fast != tc.wantFast {
					b.Fatalf("fast=%v, want %v", fast, tc.wantFast)
				}
				th.Xact = nil
			}
		})
	}
}

// BenchmarkAbortUnroll measures the abort handler: reverse log walk restoring
// pre-transaction block data, then token release.
func BenchmarkAbortUnroll(b *testing.B) {
	tok, ths := benchRig(1)
	th := ths[0]
	x := &htm.Xact{TID: th.TID, Core: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBegin(tok, th, x)
		for j := 0; j < benchWriteBlocks; j++ {
			a := benchHeap + mem.Addr(j*mem.BlockBytes)
			if acc := tok.Store(th, a, uint64(i), 0); acc.Outcome != htm.OK {
				b.Fatal("store conflicted")
			}
		}
		tok.Abort(th)
		th.Xact = nil
	}
}
