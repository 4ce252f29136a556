package coherence

import (
	"runtime"
	"testing"

	"tokentm/internal/cache"
	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// recorder captures listener callbacks.
type recorder struct {
	created []string
	lost    []string
	fills   []FillInfo
}

func (r *recorder) CopyCreated(core int, b mem.BlockAddr, line *cache.Line, info FillInfo) {
	r.created = append(r.created, eventKey(core, b))
	r.fills = append(r.fills, info)
}

func (r *recorder) CopyLost(core int, b mem.BlockAddr, m metastate.L1Meta, reason LossReason) {
	r.lost = append(r.lost, eventKey(core, b))
}

func eventKey(core int, b mem.BlockAddr) string {
	return string(rune('A'+core)) + ":" + b.String()
}

func newSys() (*MemSys, *recorder) {
	m := NewMemSys(4)
	r := &recorder{}
	m.SetListener(r)
	return m, r
}

func TestReadMissThenHit(t *testing.T) {
	m, r := newSys()
	const b mem.BlockAddr = 100
	lat1 := m.Access(0, b, false)
	if lat1 <= L1HitCycles {
		t.Fatalf("miss latency too small: %d", lat1)
	}
	if m.Stats.MemAccesses != 1 || m.Stats.L1Misses != 1 {
		t.Fatalf("stats: %+v", m.Stats)
	}
	if len(r.created) != 1 || r.fills[0].Exclusive {
		t.Fatalf("fill events: %v %v", r.created, r.fills)
	}
	// First reader with no other sharers gets Exclusive (MESI).
	if l := m.LineAt(0, b); l == nil || l.State != cache.Exclusive {
		t.Fatalf("line state: %v", l)
	}
	lat2 := m.Access(0, b, false)
	if lat2 != L1HitCycles {
		t.Fatalf("hit latency: %d", lat2)
	}
	if m.Stats.L1Hits != 1 {
		t.Fatalf("hit not counted")
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	m, _ := newSys()
	const b mem.BlockAddr = 7
	m.Access(0, b, false) // E
	lat := m.Access(0, b, true)
	if lat != L1HitCycles {
		t.Fatalf("E->M should be an L1 hit, got %d", lat)
	}
	if l := m.LineAt(0, b); l.State != cache.Modified {
		t.Fatalf("state after E->M: %v", l.State)
	}
}

func TestSharedReaders(t *testing.T) {
	m, _ := newSys()
	const b mem.BlockAddr = 7
	m.Access(0, b, false)
	m.Access(1, b, false)
	m.Access(2, b, false)
	if got := m.Sharers(b); len(got) != 3 {
		t.Fatalf("sharers: %v", got)
	}
	// Second read should be an L2 hit, not memory.
	if m.Stats.MemAccesses != 1 {
		t.Fatalf("memory touched %d times", m.Stats.MemAccesses)
	}
	for c := 0; c < 3; c++ {
		if l := m.LineAt(c, b); l == nil || !l.State.CanRead() {
			t.Fatalf("core %d lost its copy", c)
		}
	}
	// Core 0's copy was downgraded from E to S when core 1 read.
	if l := m.LineAt(0, b); l.State != cache.Shared {
		t.Fatalf("core 0 state: %v", l.State)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m, r := newSys()
	const b mem.BlockAddr = 9
	m.Access(0, b, false)
	m.Access(1, b, false)
	m.Access(2, b, true) // write: invalidates 0 and 1
	if m.HasCopy(0, b) || m.HasCopy(1, b) {
		t.Fatal("sharers not invalidated")
	}
	if l := m.LineAt(2, b); l == nil || l.State != cache.Modified {
		t.Fatalf("writer state: %v", l)
	}
	if got := m.Sharers(b); len(got) != 1 || got[0] != 2 {
		t.Fatalf("sharers after write: %v", got)
	}
	if len(r.lost) < 2 {
		t.Fatalf("invalidation events: %v", r.lost)
	}
	if m.Stats.Invalidations != 2 {
		t.Fatalf("invalidations: %d", m.Stats.Invalidations)
	}
	// The write fill must be exclusive.
	last := r.fills[len(r.fills)-1]
	if !last.Exclusive {
		t.Fatal("write fill not exclusive")
	}
}

func TestUpgradeKeepsLine(t *testing.T) {
	m, r := newSys()
	const b mem.BlockAddr = 11
	m.Access(0, b, false)
	m.Access(1, b, false) // both shared now
	m.L1s[0].Peek(b).Meta = metastate.L1Meta{R: true, Attr: 1}
	m.Access(0, b, true) // S->M upgrade
	l := m.LineAt(0, b)
	if l == nil || l.State != cache.Modified {
		t.Fatalf("upgrade state: %v", l)
	}
	if !l.Meta.R {
		t.Fatal("upgrade must retain the line's metabits")
	}
	if m.HasCopy(1, b) {
		t.Fatal("other sharer not invalidated on upgrade")
	}
	last := r.fills[len(r.fills)-1]
	if !last.Exclusive || !last.Upgrade {
		t.Fatalf("upgrade fill info: %+v", last)
	}
	if m.Stats.Upgrades != 1 {
		t.Fatal("upgrade not counted")
	}
}

func TestOwnerForwarding(t *testing.T) {
	m, r := newSys()
	const b mem.BlockAddr = 13
	m.Access(0, b, true) // core 0 owns M
	m.Access(1, b, false)
	// Data must have been forwarded from core 0, which downgrades to S.
	if m.Stats.Forwards != 1 {
		t.Fatalf("forwards: %d", m.Stats.Forwards)
	}
	if l := m.LineAt(0, b); l == nil || l.State != cache.Shared {
		t.Fatalf("owner after downgrade: %v", l)
	}
	if m.Stats.Writebacks != 1 {
		t.Fatalf("M downgrade must write back: %d", m.Stats.Writebacks)
	}
	fi := r.fills[len(r.fills)-1]
	if fi.FromOwner != 0 || fi.Exclusive {
		t.Fatalf("fill info: %+v", fi)
	}
}

func TestWriteStealsFromOwner(t *testing.T) {
	m, _ := newSys()
	const b mem.BlockAddr = 15
	m.Access(0, b, true)
	m.Access(1, b, true)
	if m.HasCopy(0, b) {
		t.Fatal("old owner keeps a copy after remote write")
	}
	if l := m.LineAt(1, b); l == nil || l.State != cache.Modified {
		t.Fatalf("new owner: %v", l)
	}
}

// TestNonSilentEviction fills one L1 set beyond capacity and checks the
// victim's CopyLost event fires and the directory forgets the copy.
func TestNonSilentEviction(t *testing.T) {
	m, r := newSys()
	sets := mem.BlockAddr(m.L1s[0].Sets())
	assoc := m.L1s[0].Assoc()
	for i := 0; i <= assoc; i++ {
		m.Access(0, sets*mem.BlockAddr(i)+1, false)
	}
	if got := m.L1s[0].CountValid(); got != assoc {
		t.Fatalf("valid lines: %d", got)
	}
	if len(r.lost) != 1 {
		t.Fatalf("eviction events: %v", r.lost)
	}
	// The victim (LRU: first inserted) is gone from the directory.
	if m.HasCopy(0, sets*0+1) {
		t.Fatal("victim still resident")
	}
	if got := m.Sharers(sets*0 + 1); len(got) != 0 {
		t.Fatalf("directory remembers victim: %v", got)
	}
}

func TestFlushCore(t *testing.T) {
	m, r := newSys()
	for i := 0; i < 5; i++ {
		m.Access(0, mem.BlockAddr(100+i), true)
	}
	m.FlushCore(0)
	if m.L1s[0].CountValid() != 0 {
		t.Fatal("flush incomplete")
	}
	if len(r.lost) != 5 {
		t.Fatalf("flush events: %d", len(r.lost))
	}
	if m.Stats.Writebacks != 5 {
		t.Fatalf("flush writebacks: %d", m.Stats.Writebacks)
	}
}

// TestDirectorySizedByFootprint: blocks scattered 128 apart (as workloads
// touch random blocks) cost the directory what the blocks cost, not what the
// address range would.
func TestDirectorySizedByFootprint(t *testing.T) {
	const blocks, stride, budget = 4096, 128, 256 << 10
	m := NewMemSys(4)
	// Every block below maps to the same L1 set and the same L2 arena
	// chunk; build those first so only the directory grows.
	for c := 0; c < m.NumCores; c++ {
		m.Access(c, 0, false)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= blocks; i++ {
		m.Access(i%m.NumCores, mem.BlockAddr(i*stride), i%2 == 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(m.dir) != blocks+1 {
		t.Fatalf("directory holds %d blocks, want %d", len(m.dir), blocks+1)
	}
	if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got >= budget {
		t.Fatalf("%d accesses to blocks %d apart hold %d B of heap, budget %d", blocks, stride, got, budget)
	}
}

// TestCachesSizedByFootprint: a fresh 32-core machine holds its 20 480 cache
// sets as a 4-byte slot each, with no lines until a block is inserted; a slice
// header per set (24 B each, 480 KiB) would exceed the budget.
func TestCachesSizedByFootprint(t *testing.T) {
	const budget = 128 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMemSys(32)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got > budget {
		t.Fatalf("a fresh NewMemSys(32) holds %d B of heap, budget %d", got, budget)
	}
}

func TestLatencyOrdering(t *testing.T) {
	m, _ := newSys()
	const b mem.BlockAddr = 21
	memLat := m.Access(0, b, false) // memory fetch
	m.FlushCore(0)
	l2Lat := m.Access(0, b, false) // now in L2
	hitLat := m.Access(0, b, false)
	if !(hitLat < l2Lat && l2Lat < memLat) {
		t.Fatalf("latency ordering violated: hit=%d l2=%d mem=%d", hitLat, l2Lat, memLat)
	}
}
