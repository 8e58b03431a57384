package nvm

import (
	"testing"
	"unsafe"
)

// TestHotStatsStripePadding pins the false-sharing guarantee: each stripe's
// footprint spans two full cache lines, so wherever the runtime places the
// array (Go only promises 8-byte alignment), no two stripes' counters can
// land on the same 64-byte line.
func TestHotStatsStripePadding(t *testing.T) {
	if sz := unsafe.Sizeof(hotStats{}); sz != 2*LineSize {
		t.Fatalf("hotStats is %d bytes, want %d (two cache lines)", sz, 2*LineSize)
	}
	var s Stats
	for i := 1; i < len(s.hot); i++ {
		gap := uintptr(unsafe.Pointer(&s.hot[i])) - uintptr(unsafe.Pointer(&s.hot[i-1]))
		if gap < 2*LineSize {
			t.Fatalf("stripes %d and %d are %d bytes apart, want >= %d", i-1, i, gap, 2*LineSize)
		}
	}
}

// TestStatsStripesAggregate checks that counts striped by address still sum
// correctly in the snapshot.
func TestStatsStripesAggregate(t *testing.T) {
	p := New(1 << 20)
	p.ResetStats()
	const n = 100
	buf := []byte{1, 2, 3, 4}
	for i := 0; i < n; i++ {
		// Touch many different lines so multiple stripes are exercised.
		p.Store(HeaderSize+uint64(i)*LineSize, buf)
	}
	if got := p.Stats().Stores; got != n {
		t.Fatalf("snapshot stores = %d, want %d", got, n)
	}
	if got := p.Stats().BytesStored; got != n*int64(len(buf)) {
		t.Fatalf("snapshot bytesStored = %d, want %d", got, n*len(buf))
	}
}

// TestLineStoresCounter pins what counts as a write-combined line store:
// only line-aligned, whole-line-multiple images, one count per line.
func TestLineStoresCounter(t *testing.T) {
	p := New(1 << 20)
	p.ResetStats()
	base := uint64(HeaderSize) // HeaderSize is line-aligned
	line := make([]byte, LineSize)
	p.Store(base, line)                              // 1 line
	p.Store(base+LineSize, make([]byte, 3*LineSize)) // 3 lines
	p.Store(base+8, line)                            // misaligned: not counted
	p.Store(base, line[:LineSize-8])                 // partial: not counted
	p.Store64(base, 7)                               // word store: not counted
	if got := p.Stats().LineStores; got != 4 {
		t.Fatalf("LineStores = %d, want 4", got)
	}
	s0 := p.Stats()
	p.Store(base, line)
	if d := p.Stats().Sub(s0); d.LineStores != 1 {
		t.Fatalf("Sub LineStores = %d, want 1", d.LineStores)
	}
}
