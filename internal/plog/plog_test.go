package plog

import (
	"bytes"
	"testing"
	"testing/quick"

	"clobbernvm/internal/nvm"
)

func newPool(t *testing.T) *nvm.Pool {
	t.Helper()
	return nvm.New(1<<22, nvm.WithEvictProbability(0))
}

func TestDataLogAppendScan(t *testing.T) {
	p := newPool(t)
	l := FormatDataLog(p, 3, p.HeapBase(), 4096)

	l.Reset()
	if _, err := l.Append(1, 0x1000, []byte("old-value-a"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 0x2000, []byte("b"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if l.EntryCount() != 2 {
		t.Fatalf("EntryCount = %d", l.EntryCount())
	}
	got := l.Scan(1)
	if len(got) != 2 || got[0].Addr != 0x1000 || !bytes.Equal(got[0].Data, []byte("old-value-a")) ||
		got[1].Addr != 0x2000 || !bytes.Equal(got[1].Data, []byte("b")) {
		t.Fatalf("Scan = %+v", got)
	}
	if n := len(l.Scan(2)); n != 0 {
		t.Fatalf("Scan(wrong seq) = %d entries", n)
	}
}

func TestDataLogSequenceIsolation(t *testing.T) {
	p := newPool(t)
	l := FormatDataLog(p, 0, p.HeapBase(), 4096)

	l.Reset()
	l.Append(1, 0x10, []byte("aaaa-tx1-entry"), AppendOptions{})
	l.Append(1, 0x20, []byte("bbbb-tx1-entry"), AppendOptions{})
	l.Append(1, 0x30, []byte("cccc-tx1-entry"), AppendOptions{})

	l.Reset()
	l.Append(2, 0x40, []byte("x"), AppendOptions{})

	got := l.Scan(2)
	if len(got) != 1 || got[0].Addr != 0x40 {
		t.Fatalf("stale entries leaked into new sequence: %+v", got)
	}
}

func TestDataLogSurvivesCrash(t *testing.T) {
	p := newPool(t)
	base := p.HeapBase()
	l := FormatDataLog(p, 1, base, 4096)
	l.Reset()
	l.Append(7, 0x99, []byte("durable"), AppendOptions{})
	p.Crash()

	l2, err := AttachDataLog(p, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	got := l2.Scan(7)
	if len(got) != 1 || !bytes.Equal(got[0].Data, []byte("durable")) {
		t.Fatalf("entries lost on crash: %+v", got)
	}
}

func TestDataLogTornTailIgnored(t *testing.T) {
	p := newPool(t)
	base := p.HeapBase()
	l := FormatDataLog(p, 1, base, 4096)
	l.Reset()
	l.Append(5, 0x10, []byte("complete"), AppendOptions{})
	// Simulate a torn second entry: write a header with a matching seq but
	// garbage checksum directly into the entry area.
	at := base + 16 + uint64((entryHeaderSize+8+entryTrailerSize+7)&^7)
	p.Store64(at, 5)      // seq
	p.Store64(at+8, 0x20) // addr
	p.Store64(at+16, 4)   // len (in low 4 bytes)
	p.Persist(at, 32)     // no valid checksum written
	got := l.Scan(5)
	if len(got) != 1 {
		t.Fatalf("torn tail entry not ignored: %d entries", len(got))
	}
}

func TestDataLogCapacity(t *testing.T) {
	p := newPool(t)
	l := FormatDataLog(p, 0, p.HeapBase(), 128)
	l.Reset()
	if _, err := l.Append(1, 0, make([]byte, 64), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 0, make([]byte, 64), AppendOptions{}); err == nil {
		t.Fatal("over-capacity append succeeded")
	}
}

func TestDataLogFenceAccounting(t *testing.T) {
	p := newPool(t)
	l := FormatDataLog(p, 0, p.HeapBase(), 4096)
	l.Reset()
	s0 := p.Stats()
	l.Append(1, 0x10, []byte("fenced"), AppendOptions{})
	if d := p.Stats().Sub(s0); d.Fences != 1 {
		t.Fatalf("fenced append issued %d fences", d.Fences)
	}
	s0 = p.Stats()
	l.Append(1, 0x20, []byte("nofence"), AppendOptions{NoFence: true})
	if d := p.Stats().Sub(s0); d.Fences != 0 {
		t.Fatalf("NoFence append issued %d fences", d.Fences)
	}
}

func TestAttachDataLogRejectsGarbage(t *testing.T) {
	p := newPool(t)
	if _, err := AttachDataLog(p, 0, p.HeapBase()); err == nil {
		t.Fatal("attached to unformatted area")
	}
}

func TestQuickDataLogRoundTrip(t *testing.T) {
	f := func(payloads [][]byte, seq uint64) bool {
		if seq == 0 {
			seq = 1
		}
		p := nvm.New(1 << 22)
		l := FormatDataLog(p, 0, p.HeapBase(), 1<<20)
		l.Reset()
		kept := 0
		for i, pl := range payloads {
			if len(pl) > 4096 {
				pl = pl[:4096]
			}
			if _, err := l.Append(seq, uint64(i)*64, pl, AppendOptions{}); err != nil {
				break
			}
			payloads[kept] = pl
			kept++
		}
		got := l.Scan(seq)
		if len(got) != kept {
			return false
		}
		for i := 0; i < kept; i++ {
			if got[i].Addr != uint64(i)*64 || !bytes.Equal(got[i].Data, payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
