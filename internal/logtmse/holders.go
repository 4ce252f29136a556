package logtmse

import "tokentm/internal/mem"

// holderChunkEntries is the number of holder entries allocated at a time.
const holderChunkEntries = 128

// holderIndex is LogTM-SE_Perf's exact conflict detection. For every block
// a transaction has touched it keeps two bitsets over thread positions (a
// thread's index in LogTMSE.threads, which is sorted by TID): the threads
// whose read set holds the block and those whose write set does. "Who holds
// b" is then one map lookup, where exact per-thread signatures needed a
// probe per in-flight thread.
//
// Like the coherence directory, the index maps each block ever touched to an
// entry in fixed-size chunks and never drops entries, so it allocates once
// per holderChunkEntries blocks, not once per block. A thread clears its
// bits by walking the list of entries it set (threadState.readHeld,
// writeHeld); a set bit is always on its thread's list.
type holderIndex struct {
	entry map[mem.BlockAddr]int32
	// words is the number of uint64s per bitset: one bit per registered
	// thread.
	words int
	// chunks holds holderChunkEntries entries each; an entry is its read
	// bitset followed by its write bitset.
	chunks [][]uint64
}

func newHolderIndex() *holderIndex {
	return &holderIndex{entry: make(map[mem.BlockAddr]int32)}
}

// bits returns entry i's read and write bitsets.
func (h *holderIndex) bits(i int32) (read, write []uint64) {
	c := h.chunks[i/holderChunkEntries]
	o := int(i%holderChunkEntries) * 2 * h.words
	return c[o : o+h.words], c[o+h.words : o+2*h.words]
}

// lookup returns b's read and write bitsets; ok is false when no
// transaction has touched b.
func (h *holderIndex) lookup(b mem.BlockAddr) (read, write []uint64, ok bool) {
	i, ok := h.entry[b]
	if !ok {
		return nil, nil, false
	}
	read, write = h.bits(i)
	return read, write, true
}

// add records that st's write set (or read set) holds b.
func (h *holderIndex) add(st *threadState, b mem.BlockAddr, write bool) {
	i, ok := h.entry[b]
	if !ok {
		i = int32(len(h.entry))
		if i%holderChunkEntries == 0 {
			h.chunks = append(h.chunks, make([]uint64, holderChunkEntries*2*h.words))
		}
		h.entry[b] = i
	}
	h.set(i, st.bit, write)
	if write {
		st.writeHeld = append(st.writeHeld, i)
	} else {
		st.readHeld = append(st.readHeld, i)
	}
}

func (h *holderIndex) set(i int32, bit int, write bool) {
	set, w := h.bits(i)
	if write {
		set = w
	}
	set[bit/64] |= 1 << (bit % 64)
}

// clear drops every bit st has set.
func (h *holderIndex) clear(st *threadState) {
	k, m := st.bit/64, ^(uint64(1) << (st.bit % 64))
	for _, i := range st.readHeld {
		r, _ := h.bits(i)
		r[k] &= m
	}
	for _, i := range st.writeHeld {
		_, w := h.bits(i)
		w[k] &= m
	}
	st.readHeld = st.readHeld[:0]
	st.writeHeld = st.writeHeld[:0]
}

// renumber makes each thread's position in threads its bit and lays the
// entries out for that many threads, carrying over every bit already set.
// Register calls it, which is before any access in a simulated run, so the
// re-layout normally finds no entries.
func (h *holderIndex) renumber(threads []*threadState) {
	h.words = (len(threads) + 63) / 64
	for c := range h.chunks {
		h.chunks[c] = make([]uint64, holderChunkEntries*2*h.words)
	}
	for p, st := range threads {
		st.bit = p
		for _, i := range st.readHeld {
			h.set(i, p, false)
		}
		for _, i := range st.writeHeld {
			h.set(i, p, true)
		}
	}
}
