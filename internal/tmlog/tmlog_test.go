package tmlog

import (
	"testing"
	"testing/quick"
	"unsafe"

	"tokentm/internal/mem"
)

func TestAppendAndAccounting(t *testing.T) {
	l := New(0x10000)
	if l.Base() != 0x10000 || l.Len() != 0 || l.Bytes() != 0 {
		t.Fatal("fresh log state")
	}

	addr, size := l.AppendToken(5, 1)
	if addr != 0x10000 || size != mem.WordBytes {
		t.Fatalf("token record placement: %v %d", addr, size)
	}

	var old [mem.WordsPerBlock]uint64
	old[0] = 42
	addr, size = l.AppendData(9, 1<<16, old)
	if addr != 0x10000+mem.WordBytes {
		t.Fatalf("data record address: %v", addr)
	}
	if size != 2*mem.WordBytes+mem.BlockBytes {
		t.Fatalf("data record size: %d", size)
	}

	if l.Len() != 2 || l.Bytes() != mem.WordBytes+2*mem.WordBytes+mem.BlockBytes {
		t.Fatalf("log accounting: len=%d bytes=%d", l.Len(), l.Bytes())
	}
	if l.Tokens(5) != 1 || l.Tokens(9) != 1<<16 || l.Tokens(7) != 0 {
		t.Fatal("token queries")
	}
	if l.TotalTokens() != 1+1<<16 {
		t.Fatalf("total tokens: %d", l.TotalTokens())
	}
	if r := l.Records(); len(r) != 2 || r[0].Block != 5 || r[1].Block != 9 {
		t.Fatalf("records not oldest-first: %+v", r)
	}
}

func TestResetIsConstantTimeSemantics(t *testing.T) {
	l := New(0)
	for i := 0; i < 100; i++ {
		l.AppendToken(mem.BlockAddr(i), 1)
	}
	l.Reset()
	if l.Len() != 0 || l.Bytes() != 0 || l.TotalTokens() != 0 {
		t.Fatal("reset must empty the log")
	}
	// The log pointer returns to base: next append lands at base.
	addr, _ := l.AppendToken(3, 1)
	if addr != l.Base() {
		t.Fatal("log pointer not reset to base")
	}
}

// TestResetReusesStorage: Reset empties the records and the old blocks
// alike, so a log refilled to the same size after a Reset allocates nothing.
func TestResetReusesStorage(t *testing.T) {
	l := New(0)
	fill := func() {
		for i := 0; i < 100; i++ {
			l.AppendToken(mem.BlockAddr(i), 1)
			l.AppendData(mem.BlockAddr(i), 1, [mem.WordsPerBlock]uint64{uint64(i)})
		}
		if got := l.Old(l.Records()[199])[0]; got != 99 {
			t.Fatalf("last data record's old word 0 is %d, want 99", got)
		}
		l.Reset()
	}
	fill()
	refills := func() {
		for range 10 {
			fill()
		}
	}
	if n := testing.AllocsPerRun(1, refills); n != 0 {
		t.Fatalf("refilling a reset log 10 times allocates %.0f times, want 0", n)
	}
}

// Property: bytes accounting matches the sum of record sizes, and token
// accounting matches the sum of appended tokens.
func TestAccountingProperty(t *testing.T) {
	f := func(ops []bool, blocks []uint16) bool {
		l := New(0x4000)
		wantBytes, wantTokens := 0, uint64(0)
		for i, isData := range ops {
			b := mem.BlockAddr(1)
			if i < len(blocks) {
				b = mem.BlockAddr(blocks[i])
			}
			if isData {
				_, n := l.AppendData(b, 7, [mem.WordsPerBlock]uint64{})
				wantBytes += n
				wantTokens += 7
			} else {
				_, n := l.AppendToken(b, 1)
				wantBytes += n
				wantTokens++
			}
		}
		return l.Bytes() == wantBytes && l.TotalTokens() == wantTokens && l.Len() == len(ops)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordBytes(t *testing.T) {
	if (Record{Kind: TokenRecord}).Bytes() != 8 {
		t.Error("token record is one word")
	}
	if (Record{Kind: DataRecord}).Bytes() != 80 {
		t.Error("data record is 2 words + 64B block")
	}
}

// TestRecordSize: a record holds its kind, block and count; a data record's
// old block lives in the log's side array, not in every record (inline, it
// made each record 88 B).
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got > 24 {
		t.Fatalf("Record is %d B, want at most 24", got)
	}
}
