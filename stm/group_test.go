package stm

// Group (cross-TM transaction) tests: atomic visibility across shards,
// whole-group rollback when one shard conflicts away, serial bookkeeping,
// and a concurrent transfer stress whose invariant only holds if cross-shard
// commits are truly atomic. Run with -race.

import (
	"errors"
	"sync"
	"testing"
)

func twoShardGroup(t *testing.T, opt Options) (tmA, tmB *TM, g *Group) {
	t.Helper()
	tmA = NewWithOptions(16, 2, 2, opt)
	tmB = NewWithOptions(16, 2, 2, opt)
	return tmA, tmB, NewGroup(tmA.Thread(0), tmB.Thread(0))
}

func TestGroupCommitsAcrossTMs(t *testing.T) {
	tmA, tmB, g := twoShardGroup(t, Options{})
	serials, err := g.Atomically(func(gt *GroupTx) error {
		gt.Tx(0).Store(0, 11)
		gt.Tx(1).Store(0, 22)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if serials[0] == 0 || serials[1] == 0 {
		t.Fatalf("serials = %v, want both nonzero (both shards written)", serials)
	}
	if v := tmA.LoadWord(0); v != 11 {
		t.Errorf("shard A word 0 = %d, want 11", v)
	}
	if v := tmB.LoadWord(0); v != 22 {
		t.Errorf("shard B word 0 = %d, want 22", v)
	}
	if sa, sb := tmA.SerialClock(), tmB.SerialClock(); sa != serials[0] || sb != serials[1] {
		t.Errorf("serial clocks (%d,%d) != returned serials %v", sa, sb, serials)
	}
}

func TestGroupUntouchedShardDrawsNoSerial(t *testing.T) {
	tmA, tmB, g := twoShardGroup(t, Options{})
	serials, err := g.Atomically(func(gt *GroupTx) error {
		gt.Tx(0).Store(0, 1)
		return nil // shard B never touched
	})
	if err != nil {
		t.Fatal(err)
	}
	if serials[0] == 0 || serials[1] != 0 {
		t.Fatalf("serials = %v, want [nonzero, 0]", serials)
	}
	if s := tmB.SerialClock(); s != 0 {
		t.Errorf("untouched shard's serial clock moved to %d", s)
	}
	_ = tmA
}

func TestGroupErrorRollsBackAllShards(t *testing.T) {
	tmA, tmB, g := twoShardGroup(t, Options{})
	boom := errors.New("boom")
	if _, err := g.Atomically(func(gt *GroupTx) error {
		gt.Tx(0).Store(0, 5)
		gt.Tx(1).Store(0, 6)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if v := tmA.LoadWord(0); v != 0 {
		t.Errorf("shard A word 0 = %d after error, want 0", v)
	}
	if v := tmB.LoadWord(0); v != 0 {
		t.Errorf("shard B word 0 = %d after error, want 0", v)
	}
}

// TestGroupConflictRollsBackOtherShard is the 2PL acid test: the group
// writes shard A, then conflicts away on shard B (a parked writer holds the
// block). With MaxAttempts bounding the retries, the group must surface
// ErrAborted with the shard-A write rolled back — a torn cross-shard commit
// is exactly what Group exists to prevent.
func TestGroupConflictRollsBackOtherShard(t *testing.T) {
	tmA, tmB, g := twoShardGroup(t, Options{MaxAttempts: 3})
	release := parkWriter(tmB.Thread(1), 0)

	if _, err := g.Atomically(func(gt *GroupTx) error {
		gt.Tx(0).Store(0, 99)
		gt.Tx(1).Load(0) // conflicts with the parked writer forever
		return nil
	}); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if v := tmA.LoadWord(0); v != 0 {
		t.Errorf("shard A word 0 = %d after group abort, want 0 (rolled back)", v)
	}
	if aborts := tmA.Stats().Aborts; aborts != 3 {
		t.Errorf("shard A aborts = %d, want 3 (every attempt rolled back there too)", aborts)
	}

	// The group is reusable once the conflict clears.
	release()
	serials, err := g.Atomically(func(gt *GroupTx) error {
		gt.Tx(0).Store(0, 1)
		gt.Tx(1).Store(0, 2)
		return nil
	})
	if err != nil || serials[0] == 0 || serials[1] == 0 {
		t.Fatalf("post-conflict group commit: serials=%v err=%v", serials, err)
	}
}

func TestGroupPanics(t *testing.T) {
	tm := New(16, 2, 2)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("empty group", func() { NewGroup() })
	expectPanic("duplicate TM", func() { NewGroup(tm.Thread(0), tm.Thread(1)) })
	expectPanic("raw thread", func() { NewGroup(&Thread{}) })
}

// TestGroupTransferStress moves value between two shards from concurrent
// groups and checks conservation: the sum over both shards is invariant only
// if every cross-shard transfer commits or aborts atomically. Each goroutine
// also snapshots the two cells inside a group transaction and checks the
// invariant mid-flight, which catches a window where one shard's commit is
// visible before the other's.
func TestGroupTransferStress(t *testing.T) {
	const (
		workers = 4
		rounds  = 300
		total   = uint64(1000)
	)
	tmA := New(8, 2, workers)
	tmB := New(8, 2, workers)
	tmA.StoreWord(0, total) // all value starts on shard A

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		g := NewGroup(tmA.Thread(w), tmB.Thread(w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 0xb5297a4d
			for i := 0; i < rounds; i++ {
				amount := nextRand(&rng) % 16
				toB := nextRand(&rng)&1 == 0
				if _, err := g.Atomically(func(gt *GroupTx) error {
					a, b := gt.Tx(0), gt.Tx(1)
					va, vb := a.Load(0), b.Load(0)
					if va+vb != total {
						t.Errorf("mid-transaction sum %d+%d != %d", va, vb, total)
					}
					if toB && va >= amount {
						a.Store(0, va-amount)
						b.Store(0, vb+amount)
					} else if !toB && vb >= amount {
						b.Store(0, vb-amount)
						a.Store(0, va+amount)
					}
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sum := tmA.LoadWord(0) + tmB.LoadWord(0); sum != total {
		t.Errorf("final sum = %d, want %d", sum, total)
	}
	if c := tmA.Stats().Commits; c == 0 {
		t.Error("no commits recorded on shard A")
	}
}

// TestGroupAtomicallyAllocFree: the Group keeps its GroupTx and its serial
// slice, so a warm transaction over four members — two of them touched —
// allocates nothing. The slice handed back is that same storage each time.
func TestGroupAtomicallyAllocFree(t *testing.T) {
	members := make([]*Thread, 4)
	for i := range members {
		members[i] = New(8, 2, 1).Thread(0)
	}
	g := NewGroup(members...)
	fn := func(gt *GroupTx) error {
		a, b := gt.Tx(0), gt.Tx(2)
		b.Store(0, a.Load(0)+b.LoadW(0)+1)
		return nil
	}
	var first []uint64
	run := func() {
		serials, err := g.Atomically(fn)
		if err != nil || serials[0] == 0 || serials[1] != 0 || serials[2] == 0 || serials[3] != 0 {
			t.Fatalf("serials = %v, err = %v; want members 0 and 2 touched", serials, err)
		}
		if first == nil {
			first = serials
		} else if &first[0] != &serials[0] {
			t.Fatal("Atomically returned fresh storage")
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("Group.Atomically allocates %.0f times per call; want 0", n)
	}
}
