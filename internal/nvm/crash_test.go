package nvm

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

// expectCrash runs fn and reports whether it panicked with ErrCrash.
func expectCrash(t *testing.T, fn func()) (fired bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrCrash) {
				panic(r)
			}
			fired = true
		}
	}()
	fn()
	return false
}

func TestScheduleCrashAtFlushFiresBeforeDurability(t *testing.T) {
	p := New(1<<20, WithEviction(EvictNone))
	addr := p.HeapBase()
	p.Store64(addr, 42)
	p.ScheduleCrashAt(CrashAtFlush, 1)
	if !expectCrash(t, func() { p.Flush(addr, 8) }) {
		t.Fatal("crash at flush did not fire")
	}
	p.Crash()
	if got := p.Load64(addr); got != 0 {
		t.Fatalf("line durable despite crash landing on its flush: %d", got)
	}
	if s := p.Stats(); s.CrashesAtFlush != 1 {
		t.Fatalf("CrashesAtFlush = %d, want 1", s.CrashesAtFlush)
	}
}

func TestScheduleCrashAtFenceFiresBeforeDrain(t *testing.T) {
	p := New(1<<20, WithEviction(EvictNone))
	addr := p.HeapBase()
	p.Store64(addr, 42)
	p.FlushOpt(addr, 8)
	p.ScheduleCrashAt(CrashAtFence, 1)
	if !expectCrash(t, p.Fence) {
		t.Fatal("crash at fence did not fire")
	}
	p.Crash()
	if got := p.Load64(addr); got != 0 {
		t.Fatalf("pending line drained despite crash landing on the fence: %d", got)
	}
	if s := p.Stats(); s.CrashesAtFence != 1 {
		t.Fatalf("CrashesAtFence = %d, want 1", s.CrashesAtFence)
	}
}

// TestFlushOptIsWeaklyOrdered is the regression test for the satellite fix:
// FlushOpt alone must NOT make a line durable; the following Fence must.
func TestFlushOptIsWeaklyOrdered(t *testing.T) {
	p := New(1<<20, WithEviction(EvictNone))
	addr := p.HeapBase()
	p.Store64(addr, 7)
	p.FlushOpt(addr, 8)
	if p.PendingLines() != 1 {
		t.Fatalf("PendingLines = %d, want 1", p.PendingLines())
	}
	p.Crash()
	if got := p.Load64(addr); got != 0 {
		t.Fatalf("un-fenced FlushOpt line survived EvictNone crash: %d", got)
	}

	p.Store64(addr, 7)
	p.FlushOpt(addr, 8)
	p.Fence()
	if p.PendingLines() != 0 {
		t.Fatalf("PendingLines after fence = %d, want 0", p.PendingLines())
	}
	p.Crash()
	if got := p.Load64(addr); got != 7 {
		t.Fatalf("fenced FlushOpt line lost: %d", got)
	}
}

func TestFlushOptCountersDistinct(t *testing.T) {
	p := New(1 << 20)
	addr := p.HeapBase()
	p.Store64(addr, 1)
	s0 := p.Stats()
	p.FlushOpt(addr, 8)
	p.Flush(addr, 8)
	d := p.Stats().Sub(s0)
	if d.Flushes != 2 || d.FlushOpts != 1 {
		t.Fatalf("Flushes = %d (want 2), FlushOpts = %d (want 1)", d.Flushes, d.FlushOpts)
	}
}

// A strong Flush of a pending line must clear its pending mark (the line is
// already durable; a later fence draining it again would be harmless but the
// accounting would drift).
func TestStrongFlushClearsPending(t *testing.T) {
	p := New(1 << 20)
	addr := p.HeapBase()
	p.Store64(addr, 1)
	p.FlushOpt(addr, 8)
	p.Flush(addr, 8)
	if p.PendingLines() != 0 {
		t.Fatalf("PendingLines = %d, want 0", p.PendingLines())
	}
}

func TestEvictNoneAndAll(t *testing.T) {
	for _, tc := range []struct {
		policy EvictPolicy
		want   uint64
	}{{EvictNone, 0}, {EvictAll, 99}} {
		p := New(1<<20, WithEviction(tc.policy))
		addr := p.HeapBase()
		p.Store64(addr, 99)
		p.Crash()
		if got := p.Load64(addr); got != tc.want {
			t.Fatalf("%v: survived value = %d, want %d", tc.policy, got, tc.want)
		}
	}
}

// TestEvictTornWordPrefix checks the adversary's contract: after a torn
// crash, every dirty line's durable content is the coherent content for a
// prefix of 8-byte words and the old durable content for the suffix.
func TestEvictTornWordPrefix(t *testing.T) {
	p := New(1<<20, WithEviction(EvictTorn), WithSeed(7))
	base := p.HeapBase()
	const lines = 64
	// Make lines durable with pattern A, then overwrite with pattern B
	// without flushing.
	for i := uint64(0); i < lines*LineSize/8; i++ {
		p.Store64(base+i*8, 0xAAAA0000+i)
	}
	p.Persist(base, lines*LineSize)
	for i := uint64(0); i < lines*LineSize/8; i++ {
		p.Store64(base+i*8, 0xBBBB0000+i)
	}
	coherent := p.CoherentSnapshot()
	p.Crash()
	durable := p.Snapshot()

	torn, full, none := 0, 0, 0
	for l := uint64(0); l < lines; l++ {
		off := base + l*LineSize
		k := uint64(0)
		for k < LineSize/8 {
			got := binary.LittleEndian.Uint64(durable[off+k*8:])
			want := binary.LittleEndian.Uint64(coherent[off+k*8:])
			if got != want {
				break
			}
			k++
		}
		// Words past the prefix must hold the OLD durable value.
		for j := k; j < LineSize/8; j++ {
			got := binary.LittleEndian.Uint64(durable[off+j*8:])
			idx := (l*LineSize/8 + j)
			if got != 0xAAAA0000+idx {
				t.Fatalf("line %d word %d: %#x is neither old nor a prefix continuation", l, j, got)
			}
		}
		switch k {
		case 0:
			none++
		case LineSize / 8:
			full++
		default:
			torn++
		}
	}
	if torn == 0 {
		t.Fatal("no line was torn across 64 lines; adversary degenerate")
	}
	if s := p.Stats(); s.TornLines != int64(torn) {
		t.Fatalf("TornLines stat = %d, observed %d", s.TornLines, torn)
	}
	t.Logf("torn=%d full=%d none=%d", torn, full, none)
}

func TestPersistPointCounters(t *testing.T) {
	p := New(1 << 20)
	addr := p.HeapBase()
	p.ResetPersistPoints()
	p.Store64(addr, 1)  // 1 store
	p.Flush(addr, 8)    // 1 flush
	p.FlushOpt(addr, 8) // 1 flush
	p.Fence()           // 1 fence
	if got := p.PersistPoints(CrashAtStore); got != 1 {
		t.Fatalf("store points = %d", got)
	}
	if got := p.PersistPoints(CrashAtFlush); got != 2 {
		t.Fatalf("flush points = %d", got)
	}
	if got := p.PersistPoints(CrashAtFence); got != 1 {
		t.Fatalf("fence points = %d", got)
	}
	if got := p.PersistPointCount(); got != 4 {
		t.Fatalf("total points = %d", got)
	}
	p.ResetPersistPoints()
	if got := p.PersistPointCount(); got != 0 {
		t.Fatalf("points after reset = %d", got)
	}
}

// TestCrashAtAnyEnumeratesEverySite schedules a crash at every persist point
// of a fixed sequence and checks each one fires — the enumeration a sweep
// relies on.
func TestCrashAtAnyEnumeratesEverySite(t *testing.T) {
	workload := func(p *Pool) {
		addr := p.HeapBase()
		p.Store64(addr, 1)
		p.Store64(addr+64, 2)
		p.FlushOpt(addr, 8)
		p.FlushOpt(addr+64, 8)
		p.Fence()
		p.Store64(addr+128, 3)
		p.Persist(addr+128, 8)
	}
	p := New(1 << 20)
	p.ResetPersistPoints()
	workload(p)
	n := p.PersistPointCount()
	if n != 8 { // 3 stores + 3 flushes + 2 fences
		t.Fatalf("persist points = %d, want 8", n)
	}
	for i := int64(1); i <= n; i++ {
		q := New(1 << 20)
		q.ScheduleCrashAt(CrashAtAny, i)
		if !expectCrash(t, func() { workload(q) }) {
			t.Fatalf("crash at any-point %d did not fire", i)
		}
		if q.CrashScheduled() {
			t.Fatalf("point %d: still scheduled after firing", i)
		}
	}
	// One past the end must not fire.
	q := New(1 << 20)
	q.ScheduleCrashAt(CrashAtAny, n+1)
	if expectCrash(t, func() { workload(q) }) {
		t.Fatal("crash fired past the last persist point")
	}
	if !q.CrashScheduled() {
		t.Fatal("unfired schedule should still report scheduled")
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := New(1<<20, WithEviction(EvictNone))
	addr := p.HeapBase()
	p.Store64(addr, 5)
	p.Persist(addr, 8)
	base := p.Snapshot()

	p.Store64(addr, 6)
	p.Persist(addr, 8)
	p.Store64(addr+64, 7) // left dirty
	p.ScheduleCrashAt(CrashAtStore, 100)

	if err := p.Restore(base); err != nil {
		t.Fatal(err)
	}
	if got := p.Load64(addr); got != 5 {
		t.Fatalf("restored value = %d, want 5", got)
	}
	if got := p.Load64(addr + 64); got != 0 {
		t.Fatalf("dirty line leaked across restore: %d", got)
	}
	if p.DirtyLines() != 0 || p.PendingLines() != 0 {
		t.Fatalf("cache not clean after restore: dirty=%d pending=%d", p.DirtyLines(), p.PendingLines())
	}
	if p.CrashScheduled() {
		t.Fatal("crash schedule survived restore")
	}
	// Restore of a wrong-size or corrupt image must fail cleanly.
	if err := p.Restore(base[:len(base)-LineSize]); err == nil {
		t.Fatal("short image accepted")
	}
	bad := make([]byte, len(base))
	if err := p.Restore(bad); err == nil {
		t.Fatal("zero-magic image accepted")
	}
}

func TestNewFromImage(t *testing.T) {
	p := New(1 << 20)
	addr := p.HeapBase()
	p.Store64(addr, 11)
	p.Persist(addr, 8)
	q, err := NewFromImage(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Load64(addr); got != 11 {
		t.Fatalf("value through image = %d, want 11", got)
	}
	if _, err := NewFromImage(make([]byte, HeaderSize)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestParseHelpers(t *testing.T) {
	for _, s := range []string{"store", "flush", "fence", "any"} {
		k, err := ParseCrashKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseCrashKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParseCrashKind("bogus"); err == nil {
		t.Fatal("bogus crash kind accepted")
	}
	for _, s := range []string{"random", "none", "all", "torn"} {
		e, err := ParseEvictPolicy(s)
		if err != nil || e.String() != s {
			t.Fatalf("ParseEvictPolicy(%q) = %v, %v", s, e, err)
		}
	}
	if _, err := ParseEvictPolicy("bogus"); err == nil {
		t.Fatal("bogus evict policy accepted")
	}
}

// TestCrashLatchAllGoroutinesObserve hammers the latch from many goroutines
// at once: one of them trips the armed ordinal, and every store issued by
// any goroutine after that instant must panic with ErrCrash. This is the
// property the online supervisor leans on — all in-flight handlers fail
// within one persistence event of the power failure, so draining terminates.
func TestCrashLatchAllGoroutinesObserve(t *testing.T) {
	const workers = 8
	p := New(1<<20, WithEviction(EvictAll))
	p.ScheduleCrashAt(CrashAtStore, 50)

	var wg sync.WaitGroup
	crashes := make([]int, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(HeaderSize) + uint64(g)*4*LineSize
			for i := 0; ; i++ {
				fired := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							err, ok := r.(error)
							if !ok || !errors.Is(err, ErrCrash) {
								panic(r)
							}
							fired = true
						}
					}()
					p.Store64(base+uint64(i%4)*LineSize, uint64(i+1))
				}()
				if fired {
					crashes[g]++
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every worker loops until it observes the crash, so each must have
	// recorded exactly one ErrCrash — none may still be storing after the
	// latch fired.
	for g, n := range crashes {
		if n != 1 {
			t.Fatalf("worker %d observed %d crashes, want 1", g, n)
		}
	}
	if !p.Crashed() {
		t.Fatal("latch not set after concurrent crash")
	}
}

// TestNewFromImageFreshLatch pins the reboot contract the supervisor's
// rebuild path depends on: a pool reconstructed from a crashed pool's image
// starts with the latch clear, no armed schedule, zeroed persist-point
// counters, and working persistence primitives.
func TestNewFromImageFreshLatch(t *testing.T) {
	p := New(1<<16, WithEviction(EvictAll))
	a := uint64(HeaderSize)
	p.Store64(a, 41)
	p.Persist(a, 8)
	p.ScheduleCrashAt(CrashAtStore, 1)
	if !expectCrash(t, func() { p.Store64(a, 42) }) {
		t.Fatal("armed crash did not fire")
	}
	if !p.Crashed() {
		t.Fatal("latch not set")
	}
	p.Crash()

	q, err := NewFromImage(p.Snapshot(), WithEviction(EvictAll))
	if err != nil {
		t.Fatal(err)
	}
	if q.Crashed() {
		t.Fatal("latch carried over into the rebuilt pool")
	}
	if q.CrashScheduled() {
		t.Fatal("crash schedule carried over into the rebuilt pool")
	}
	if n := q.PersistPointCount(); n != 0 {
		t.Fatalf("rebuilt pool starts with %d persist points, want 0", n)
	}
	// Normal service on the fresh incarnation.
	q.Store64(a, 43)
	q.Persist(a, 8)
	if got := q.Load64(a); got != 43 {
		t.Fatalf("store on rebuilt pool = %d, want 43", got)
	}
}

// TestPrefaultPreservesContents guards the benchmark warm-up against data
// loss: whatever Prefault does to pages, it must not alter either view —
// the header magic lives on page zero, and a pool rebuilt from a durable
// image carries live data on every page.
func TestPrefaultPreservesContents(t *testing.T) {
	p := New(1 << 20)
	const stride = 4096
	for off := uint64(HeaderSize); off+8 <= p.Size(); off += stride {
		p.Store64(off, off^0xABCD)
		p.Persist(off, 8)
	}
	p.Prefault()
	for off := uint64(HeaderSize); off+8 <= p.Size(); off += stride {
		if got := p.Load64(off); got != off^0xABCD {
			t.Fatalf("Prefault corrupted mem at %#x: %#x", off, got)
		}
	}
	// The durable view (and its magic) must survive too: the snapshot must
	// still parse as a valid image with the data intact.
	q, err := NewFromImage(p.Snapshot())
	if err != nil {
		t.Fatalf("snapshot of a prefaulted pool rejected: %v", err)
	}
	q.Prefault() // setups call it on rebuilt pools that carry live data
	for off := uint64(HeaderSize); off+8 <= q.Size(); off += stride {
		if got := q.Load64(off); got != off^0xABCD {
			t.Fatalf("Prefault corrupted rebuilt pool at %#x: %#x", off, got)
		}
	}
}

// TestCrashLatchStopsAllThreads pins the powered-off latch: once a scheduled
// crash fires, every later persistence event — from any goroutine — panics
// with ErrCrash, stores are refused before touching even the cache, and
// Crash() restores service. Multi-threaded fault injection depends on this:
// without the latch, workers that did not hit the ordinal would keep writing
// "after" the power failure.
func TestCrashLatchStopsAllThreads(t *testing.T) {
	p := New(1<<16, WithEviction(EvictAll))
	a := uint64(HeaderSize)

	p.ScheduleCrashAt(CrashAtStore, 1)
	if !expectCrash(t, func() { p.Store64(a, 1) }) {
		t.Fatal("armed crash did not fire")
	}
	if !p.Crashed() {
		t.Fatal("latch not set after the crash fired")
	}

	// Every primitive must now refuse service, from this or any goroutine.
	if !expectCrash(t, func() { p.Store64(a+LineSize, 2) }) {
		t.Fatal("Store64 succeeded while powered off")
	}
	done := make(chan bool)
	go func() {
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, ErrCrash) {
						panic(r)
					}
					fired = true
				}
			}()
			p.Store(a+2*LineSize, []byte("late"))
		}()
		done <- fired
	}()
	if !<-done {
		t.Fatal("Store from another goroutine succeeded while powered off")
	}
	if !expectCrash(t, func() { p.Flush(a, 8) }) {
		t.Fatal("Flush succeeded while powered off")
	}
	if !expectCrash(t, func() { p.Fence() }) {
		t.Fatal("Fence succeeded while powered off")
	}

	// The refused stores must not have leaked into the cache: even the
	// persist-everything eviction policy cannot resurrect them.
	p.Crash()
	if p.Crashed() {
		t.Fatal("latch survives Crash()")
	}
	if got := p.Load64(a + LineSize); got != 0 {
		t.Fatalf("post-failure store leaked into the durable image: %d", got)
	}

	// Power restored: normal service resumes.
	p.Store64(a+LineSize, 3)
	p.Persist(a+LineSize, 8)
	if got := p.Load64(a + LineSize); got != 3 {
		t.Fatalf("store after Crash() = %d, want 3", got)
	}

	// Re-arming also clears the latch.
	p.ScheduleCrashAt(CrashAtStore, 1)
	expectCrash(t, func() { p.Store64(a, 9) })
	p.ScheduleCrashAt(CrashAtStore, 0)
	if p.Crashed() {
		t.Fatal("latch survives re-arming")
	}
	p.Store64(a, 4) // must not panic
}
