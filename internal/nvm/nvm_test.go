package nvm

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	p := New(1 << 16)
	addr := p.HeapBase()
	want := []byte("clobber logging")
	p.Store(addr, want)
	got := make([]byte, len(want))
	p.Load(addr, got)
	if string(got) != string(want) {
		t.Fatalf("Load = %q, want %q", got, want)
	}
}

func TestLoad64Store64(t *testing.T) {
	p := New(1 << 16)
	addr := p.HeapBase() + 128
	p.Store64(addr, 0xdeadbeefcafef00d)
	if got := p.Load64(addr); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load64 = %#x", got)
	}
}

func TestUnflushedStoreLostOnCrash(t *testing.T) {
	p := New(1<<16, WithEvictProbability(0), WithSeed(7))
	addr := p.HeapBase()
	p.Store64(addr, 42)
	p.Crash()
	if got := p.Load64(addr); got != 0 {
		t.Fatalf("unflushed store survived crash: %d", got)
	}
}

func TestFlushedStoreSurvivesCrash(t *testing.T) {
	p := New(1<<16, WithEvictProbability(0))
	addr := p.HeapBase()
	p.Store64(addr, 42)
	p.Persist(addr, 8)
	p.Crash()
	if got := p.Load64(addr); got != 42 {
		t.Fatalf("flushed store lost on crash: %d", got)
	}
}

func TestEvictionLuckPersistsSomeDirtyLines(t *testing.T) {
	p := New(1<<20, WithEvictProbability(0.5), WithSeed(99))
	base := p.HeapBase()
	const n = 1000
	for i := uint64(0); i < n; i++ {
		p.Store64(base+i*LineSize, i+1)
	}
	p.Crash()
	survived := 0
	for i := uint64(0); i < n; i++ {
		if p.Load64(base+i*LineSize) == i+1 {
			survived++
		}
	}
	if survived == 0 || survived == n {
		t.Fatalf("eviction model degenerate: %d/%d lines survived", survived, n)
	}
}

func TestFlushIsLineGranular(t *testing.T) {
	p := New(1<<16, WithEvictProbability(0))
	// Two stores on the same line; flushing one address persists the line.
	line := p.HeapBase()
	p.Store64(line, 1)
	p.Store64(line+8, 2)
	p.Persist(line, 8) // covers only first word, but the line carries both
	p.Crash()
	if p.Load64(line) != 1 || p.Load64(line+8) != 2 {
		t.Fatal("line-granular flush did not persist co-located word")
	}
}

func TestFlushSpanningLines(t *testing.T) {
	p := New(1<<16, WithEvictProbability(0))
	addr := p.HeapBase() + LineSize - 8 // straddles two lines
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	p.Store(addr, buf)
	before := p.Stats().Flushes
	p.Persist(addr, 16)
	if got := p.Stats().Flushes - before; got != 2 {
		t.Fatalf("flushes for straddling range = %d, want 2", got)
	}
	p.Crash()
	got := make([]byte, 16)
	p.Load(addr, got)
	for i := range got {
		if got[i] != byte(i+1) {
			t.Fatalf("byte %d lost after crash", i)
		}
	}
}

func TestDirtyLinesTracking(t *testing.T) {
	p := New(1 << 16)
	if n := p.DirtyLines(); n != 0 {
		t.Fatalf("fresh pool has %d dirty lines", n)
	}
	p.Store64(p.HeapBase(), 1)
	p.Store64(p.HeapBase()+4*LineSize, 1)
	if n := p.DirtyLines(); n != 2 {
		t.Fatalf("dirty lines = %d, want 2", n)
	}
	p.Flush(p.HeapBase(), 8)
	if n := p.DirtyLines(); n != 1 {
		t.Fatalf("dirty lines after flush = %d, want 1", n)
	}
}

func TestScheduledCrashPanics(t *testing.T) {
	p := New(1 << 16)
	p.ScheduleCrash(3)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != ErrCrash {
					t.Fatalf("unexpected panic %v", r)
				}
				crashed = true
			}
		}()
		for i := uint64(0); i < 10; i++ {
			p.Store64(p.HeapBase()+i*8, i)
		}
	}()
	if !crashed {
		t.Fatal("scheduled crash did not fire")
	}
	// The crashing store itself was applied to the cache.
	if got := p.Load64(p.HeapBase() + 2*8); got != 2 {
		t.Fatalf("crashing store not applied: %d", got)
	}
}

func TestStatsCounters(t *testing.T) {
	p := New(1 << 16)
	p.ResetStats()
	p.Store64(p.HeapBase(), 7)
	p.Load64(p.HeapBase())
	p.Flush(p.HeapBase(), 8)
	p.Fence()
	s := p.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.BytesStored != 8 || s.BytesLoaded != 8 {
		t.Fatalf("byte counters = %+v", s)
	}
}

func TestRootSlots(t *testing.T) {
	p := New(1 << 16)
	for i := 0; i < NumRootSlots; i++ {
		a := p.RootSlot(i)
		if a+8 > HeaderSize {
			t.Fatalf("root slot %d outside header", i)
		}
		p.Store64(a, uint64(i)*3+1)
	}
	for i := 0; i < NumRootSlots; i++ {
		if got := p.Load64(p.RootSlot(i)); got != uint64(i)*3+1 {
			t.Fatalf("slot %d = %d", i, got)
		}
	}
}

func TestRootSlotOutOfRangePanics(t *testing.T) {
	p := New(1 << 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.RootSlot(NumRootSlots)
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	p := New(1 << 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Load64(p.Size())
}

func TestSaveAndOpenImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.img")

	p := New(1<<16, WithEvictProbability(0))
	p.Store64(p.HeapBase(), 123)
	p.Persist(p.HeapBase(), 8)
	p.Store64(p.HeapBase()+LineSize, 456) // not persisted
	if err := p.SaveImage(path); err != nil {
		t.Fatal(err)
	}

	q, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Load64(q.HeapBase()); got != 123 {
		t.Fatalf("persisted value = %d, want 123", got)
	}
	if got := q.Load64(q.HeapBase() + LineSize); got != 0 {
		t.Fatalf("unpersisted value leaked into image: %d", got)
	}
}

func TestOpenImageRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.img")
	if err := os.WriteFile(path, make([]byte, HeaderSize+LineSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenImage(path); err == nil {
		t.Fatal("OpenImage accepted an image with a bad magic")
	}
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenImage(path); err == nil {
		t.Fatal("OpenImage accepted a truncated image")
	}
}

// Property: persisted data always survives a crash; data never flushed (with
// eviction probability 0) never survives.
func TestQuickPersistSurvives(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 128 {
			vals = vals[:128]
		}
		p := New(1<<20, WithEvictProbability(0))
		base := p.HeapBase()
		for i, v := range vals {
			addr := base + uint64(i)*LineSize
			p.Store64(addr, v)
			if i%2 == 0 {
				p.Persist(addr, 8)
			}
		}
		p.Crash()
		for i, v := range vals {
			got := p.Load64(base + uint64(i)*LineSize)
			if i%2 == 0 && got != v {
				return false
			}
			if i%2 == 1 && got != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStoresDistinctLines(t *testing.T) {
	p := New(1<<22, WithEvictProbability(0))
	const workers = 8
	const perWorker = 200
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			base := p.HeapBase() + uint64(w)*perWorker*LineSize
			for i := 0; i < perWorker; i++ {
				addr := base + uint64(i)*LineSize
				p.Store64(addr, uint64(w*1000+i))
				if rng.Intn(2) == 0 {
					p.Persist(addr, 8)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		base := p.HeapBase() + uint64(w)*perWorker*LineSize
		for i := 0; i < perWorker; i++ {
			if got := p.Load64(base + uint64(i)*LineSize); got != uint64(w*1000+i) {
				t.Fatalf("worker %d slot %d = %d", w, i, got)
			}
		}
	}
}

// TestPoolFootprint pins the pool to one array: creating a 64 MiB pool, or
// rebuilding one from a 64 MiB image, may allocate the array and its
// tracking bitmaps but not a second copy of the pool.
func TestPoolFootprint(t *testing.T) {
	const size = 64 << 20
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	limit := uint64(size) * 11 / 10
	var p, q *Pool
	if n := allocated(func() { p = New(size) }); n > limit {
		t.Fatalf("New(%d) allocated %d bytes, want <= %d", size, n, limit)
	}
	img := p.Snapshot()
	var err error
	if n := allocated(func() { q, err = NewFromImage(img) }); n > limit {
		t.Fatalf("NewFromImage of %d bytes allocated %d bytes, want <= %d", size, n, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(q)
}

// TestPreImagesLiveOnlyWhileDirty pins the pre-image store to the dirty
// lines: stores keep one pre-image per line they turn dirty, and a strong
// flush, a Fence drain and a Crash each leave none behind.
func TestPreImagesLiveOnlyWhileDirty(t *testing.T) {
	p := New(1 << 20)
	base := p.HeapBase()
	const lines = 200 // spans several bitmap words and shards
	dirty := func() {
		buf := make([]byte, lines*LineSize)
		rand.New(rand.NewSource(1)).Read(buf)
		p.Store(base+8, buf[:len(buf)-16]) // partial first and last lines
		p.Store64(base+3*LineSize, 7)      // an already-dirty line
		if n, d := p.preImages(), p.DirtyLines(); n != lines || d != lines {
			t.Fatalf("%d pre-images for %d dirty lines, want %d of each", n, d, lines)
		}
	}
	dirty()
	p.Flush(base, lines*LineSize)
	if n := p.preImages(); n != 0 {
		t.Fatalf("%d pre-images left after Flush", n)
	}
	dirty()
	p.FlushOpt(base, lines*LineSize)
	if n := p.preImages(); n != lines {
		t.Fatalf("FlushOpt dropped pre-images before the fence: %d left", n)
	}
	p.Fence()
	if n, d := p.preImages(), p.DirtyLines(); n != 0 || d != 0 {
		t.Fatalf("%d pre-images and %d dirty lines left after the drain", n, d)
	}
	dirty()
	p.Crash()
	if n := p.preImages(); n != 0 {
		t.Fatalf("%d pre-images left after Crash", n)
	}
}

// TestConcurrentNeighboursKeepPersistedWords has eight goroutines share
// every line, one 8-byte word each, storing and persisting their own word
// while the others store and flush the rest of the line. Each pre-image is
// kept and dropped under the line's shard lock, so after a crash that
// evicts nothing each word holds its owner's last persisted value, or the
// one unpersisted store that followed it if a neighbour's flush carried
// that along — never an older value.
func TestConcurrentNeighboursKeepPersistedWords(t *testing.T) {
	p := New(1<<20, WithEviction(EvictNone))
	const lines, rounds = 130, 20 // lines span three bitmap words
	base := p.HeapBase()
	var wg sync.WaitGroup
	for w := uint64(0); w < LineSize/8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint64(1); r <= rounds; r++ {
				for l := uint64(0); l < lines; l++ {
					addr := base + l*LineSize + w*8
					p.Store64(addr, r)
					p.Persist(addr, 8)
				}
			}
			for l := uint64(0); l < lines; l++ {
				p.Store64(base+l*LineSize+w*8, ^uint64(0)) // never persisted
			}
		}()
	}
	wg.Wait()
	p.Crash()
	for l := uint64(0); l < lines; l++ {
		for w := uint64(0); w < LineSize/8; w++ {
			if got := p.Load64(base + l*LineSize + w*8); got != rounds && got != ^uint64(0) {
				t.Fatalf("line %d word %d = %#x after crash, want %d or the unpersisted store", l, w, got, rounds)
			}
		}
	}
}
