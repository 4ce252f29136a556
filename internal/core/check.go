package core

import (
	"fmt"
	"sort"

	"tokentm/internal/cache"
	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// sortedBlocks returns m's keys in ascending block order, so checker walks
// (and therefore which violation is reported first when several coexist)
// are deterministic.
func sortedBlocks[V any](m map[mem.BlockAddr]V) []mem.BlockAddr {
	keys := make([]mem.BlockAddr, 0, len(m))
	for b := range m {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// CheckBookkeeping verifies TokenTM's double-entry bookkeeping invariant
// (§3.2): for every block, the tokens debited from the (distributed)
// metastate equal the tokens credited to the active transactions' logs.
// A writer's (T,X) may legally appear on several copies (fission replicates
// it); it is counted once.
//
// The checker is O(total metastate), intended for tests and debug builds.
func (t *TokenTM) CheckBookkeeping() error {
	debits := make(map[mem.BlockAddr]uint32)
	writers := make(map[mem.BlockAddr]mem.TID)

	addMeta := func(b mem.BlockAddr, m metastate.Meta) error {
		switch {
		case m.IsZero():
		case m.IsWriter():
			if w, ok := writers[b]; ok && w != m.TID {
				return fmt.Errorf("block %v: two writers X%d and X%d", b, w, m.TID)
			}
			writers[b] = m.TID
		default:
			debits[b] += m.Sum
		}
		return nil
	}

	for _, b := range sortedBlocks(t.home) {
		if err := addMeta(b, t.home[b]); err != nil {
			return err
		}
	}
	for c := range t.Mem.L1s {
		var err error
		t.Mem.L1s[c].VisitValid(func(l *cache.Line) {
			if !l.Meta.Valid() {
				err = fmt.Errorf("core %d block %v: invalid metabits %v", c, l.Block, l.Meta)
				return
			}
			if e := addMeta(l.Block, l.Meta.Logical()); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
	}
	for _, b := range sortedBlocks(writers) {
		if debits[b] != 0 {
			return fmt.Errorf("block %v: writer X%d coexists with %d reader tokens", b, writers[b], debits[b])
		}
		debits[b] = metastate.T
	}

	credits := make(map[mem.BlockAddr]uint32)
	for _, th := range t.threads {
		if !th.InXact() {
			if th.Log.Len() != 0 {
				return fmt.Errorf("thread X%d: %d log records with no active transaction", th.TID, th.Log.Len())
			}
			continue
		}
		perLog := make(map[mem.BlockAddr]uint32)
		for _, rec := range th.Log.Records() {
			perLog[rec.Block] += rec.Tokens
			credits[rec.Block] += rec.Tokens
		}
		var err error
		th.Xact.Tokens.Visit(func(b mem.BlockAddr, n uint32) {
			if perLog[b] != n && err == nil {
				err = fmt.Errorf("thread X%d block %v: token index %d != log credits %d", th.TID, b, n, perLog[b])
			}
		})
		if err != nil {
			return err
		}
		for _, b := range sortedBlocks(perLog) {
			if th.Xact.Tokens.Get(b) != perLog[b] {
				return fmt.Errorf("thread X%d block %v: log credits %d missing from index", th.TID, b, perLog[b])
			}
		}
	}

	for _, b := range sortedBlocks(debits) {
		if credits[b] != debits[b] {
			return fmt.Errorf("block %v: metastate debits %d != log credits %d", b, debits[b], credits[b])
		}
	}
	for _, b := range sortedBlocks(credits) {
		if debits[b] != credits[b] {
			return fmt.Errorf("block %v: log credits %d != metastate debits %d", b, credits[b], debits[b])
		}
	}
	return nil
}
