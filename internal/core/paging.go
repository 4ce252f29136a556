package core

import (
	"fmt"

	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// SavedPage is the metastate of a paged-out page. The paper's VM extension
// (§5.3) clears metastates on page initialization, saves them on page-out
// and restores them on page-in, borrowing the AS/400's tagged-storage
// technique. Transactions whose tokens live on the page keep their log
// entries; the tokens travel to disk with the metastate and are intact
// after the page returns.
type SavedPage struct {
	Page  mem.PageAddr
	Metas map[mem.BlockAddr]metastate.Packed
	// OverflowCounts carries the software-maintained counts of any
	// LimitLESS-overflowed blocks on the page.
	OverflowCounts map[mem.BlockAddr]uint32
}

// PageOut evicts every cached copy of the page's blocks (their metastate
// fuses home via the non-silent eviction path, which also revokes affected
// transactions' fast-release eligibility) and packs the home metastate into
// the 16-metabit on-disk representation.
func (t *TokenTM) PageOut(p mem.PageAddr) *SavedPage {
	sp := &SavedPage{
		Page:           p,
		Metas:          make(map[mem.BlockAddr]metastate.Packed),
		OverflowCounts: make(map[mem.BlockAddr]uint32),
	}
	first := p.Block()
	for i := 0; i < mem.BlocksPerPage; i++ {
		b := first + mem.BlockAddr(i)
		t.Mem.EvictAll(b)
		m := t.home[b]
		if m.IsZero() {
			continue
		}
		packed := t.overflow.PackInto(b, m)
		sp.Metas[b] = packed
		if packed.IsOverflow() {
			if n, ok := t.overflow.Count(b); ok {
				sp.OverflowCounts[b] = n
			}
			t.overflow.Set(b, 0)
		}
		delete(t.home, b)
	}
	return sp
}

// PageIn restores a saved page's metastate, walking the page's blocks in
// ascending address order (Metas is a map; iterating it directly would make
// the restore order — and error selection — depend on map iteration order).
func (t *TokenTM) PageIn(sp *SavedPage) error {
	first := sp.Page.Block()
	for i := 0; i < mem.BlocksPerPage; i++ {
		b := first + mem.BlockAddr(i)
		packed, ok := sp.Metas[b]
		if !ok {
			continue
		}
		if packed.IsOverflow() {
			t.overflow.Set(b, sp.OverflowCounts[b])
		}
		m, err := metastate.Unpack(packed, t.overflow, b)
		if err != nil {
			return fmt.Errorf("page-in %v: %w", sp.Page, err)
		}
		if !m.Valid() {
			return fmt.Errorf("page-in %v: invalid metastate %v for %v", sp.Page, m, b)
		}
		t.setHome(b, m)
	}
	return nil
}
