package sim

import "testing"

// TestFingerprintIgnoresLockOrder: the lock table is a map, so the lock walk
// must visit ids in order. Machines whose locks were taken in two orders hold
// one state and must hash equal on every walk.
func TestFingerprintIgnoresLockOrder(t *testing.T) {
	build := func(ids ...int) *Machine {
		m := newMachine(t, 4, "TokenTM")
		for range 4 {
			m.Spawn(func(*Ctx) {})
		}
		m.Run()
		for _, id := range ids {
			l := m.lock(id)
			l.held, l.holder = true, m.threads[id%4]
		}
		return m
	}
	a, b := build(3, 11, 20, 42, 57), build(57, 20, 3, 42, 11)
	want := a.Fingerprint()
	for range 20 {
		if a.Fingerprint() != want || b.Fingerprint() != want {
			t.Fatal("machines holding equal locks fingerprint differently")
		}
	}
	b.lock(42).holder = b.threads[0]
	if b.Fingerprint() == want {
		t.Fatal("machines with different lock holders fingerprint equal")
	}
}
