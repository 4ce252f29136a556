package kvstore

import (
	"fmt"
	"sort"
)

// This file is the commit-journal serializability oracle, the host-side twin
// of internal/explore's checker: collect every committed transaction's
// observed reads and final writes tagged with its commit serial, then replay
// the merged journal in serial order against a reference map. Every
// journaled read must equal the reference at its serialization point —
// serializability checked end to end. It lives outside the test files so the
// network front end's over-the-wire stress (stm/server) can replay journals
// collected across the socket boundary through the same oracle. A Sharded
// store has one clock, so its journals merge and replay like any other
// store's: one serial order over every shard, with no per-shard argument to
// make.

// JournalOp is one journaled KV observation or effect.
type JournalOp struct {
	Key uint64
	Val uint64
	OK  bool // for reads: present/absent
}

// JournalTxn is one committed transaction's journal entry.
type JournalTxn struct {
	Serial uint64
	Writer bool // drew a write ticket (non-empty write set)
	Reads  []JournalOp
	Writes []JournalOp
}

// ReplayJournals merges per-worker journals into serial order and replays
// them against a reference map, returning the final reference state. Writers
// sort before read-only transactions at equal serial: a read-only
// transaction's ticket is its read clock, which already includes the writer
// that advanced the clock to that value. The first read that disagrees with
// the reference is reported as an error — a serializability violation.
func ReplayJournals(journals [][]JournalTxn) (map[uint64]uint64, error) {
	var all []JournalTxn
	for _, j := range journals {
		all = append(all, j...)
	}
	sort.SliceStable(all, func(i, k int) bool {
		if all[i].Serial != all[k].Serial {
			return all[i].Serial < all[k].Serial
		}
		return all[i].Writer && !all[k].Writer
	})
	ref := make(map[uint64]uint64)
	for ti, rec := range all {
		for _, r := range rec.Reads {
			rv, rok := ref[r.Key]
			if rok != r.OK || rv != r.Val {
				return nil, fmt.Errorf("serializability violation at commit %d (serial %d): read key %d = (%d,%v), serial replay has (%d,%v)",
					ti, rec.Serial, r.Key, r.Val, r.OK, rv, rok)
			}
		}
		for _, w := range rec.Writes {
			ref[w.Key] = w.Val
		}
	}
	return ref, nil
}
