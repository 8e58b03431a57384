package pmem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"clobbernvm/internal/nvm"
)

func newAlloc(t *testing.T, size uint64) (*nvm.Pool, *Allocator) {
	t.Helper()
	p := nvm.New(size, nvm.WithEvictProbability(0))
	a, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, a
}

func TestAllocBasic(t *testing.T) {
	p, a := newAlloc(t, 1<<22)
	addr, err := a.Alloc(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 || addr%8 != 0 {
		t.Fatalf("bad address %#x", addr)
	}
	us, err := a.UsableSize(addr)
	if err != nil {
		t.Fatal(err)
	}
	if us < 100 {
		t.Fatalf("usable size %d < requested 100", us)
	}
	p.Store64(addr, 7) // block is writable
}

func TestAllocDistinct(t *testing.T) {
	_, a := newAlloc(t, 1<<22)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		addr, err := a.Alloc(i%3, uint64(8+i%300))
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("address %#x returned twice", addr)
		}
		seen[addr] = true
	}
}

func TestFreeAndReuse(t *testing.T) {
	_, a := newAlloc(t, 1<<22)
	a1, _ := a.Alloc(0, 64)
	if err := a.Free(a1); err != nil {
		t.Fatal(err)
	}
	a2, _ := a.Alloc(0, 64)
	if a1 != a2 {
		t.Fatalf("free list not reused: %#x then %#x", a1, a2)
	}
}

func TestFreeBadAddress(t *testing.T) {
	p, a := newAlloc(t, 1<<22)
	if err := a.Free(p.HeapBase() + 1<<20); err == nil {
		t.Fatal("Free of never-allocated address succeeded")
	}
	if err := a.Free(4); err == nil {
		t.Fatal("Free of tiny address succeeded")
	}
}

func TestHugeAlloc(t *testing.T) {
	p, a := newAlloc(t, 1<<24)
	addr, err := a.Alloc(0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	us, _ := a.UsableSize(addr)
	if us < 200_000 {
		t.Fatalf("huge usable = %d", us)
	}
	p.Store64(addr+199_992, 1)
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	// Reuse through the huge free list.
	addr2, err := a.Alloc(0, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 != addr {
		t.Fatalf("huge block not reused: %#x vs %#x", addr2, addr)
	}
}

func TestOutOfMemory(t *testing.T) {
	_, a := newAlloc(t, 1<<20) // 1 MiB pool
	var err error
	for i := 0; i < 100_000; i++ {
		if _, err = a.Alloc(0, 1024); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("allocator never ran out of a 1 MiB pool")
	}
}

func TestAttachAfterCleanShutdown(t *testing.T) {
	p, a := newAlloc(t, 1<<22)
	addr, _ := a.Alloc(0, 64)
	p.Store64(addr, 0x1234)
	p.Persist(addr, 8)

	b, err := Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Load64(addr); got != 0x1234 {
		t.Fatalf("data lost across attach: %#x", got)
	}
	// New allocations must not overlap the old one.
	for i := 0; i < 100; i++ {
		na, err := b.Alloc(0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if na == addr {
			t.Fatal("Attach reissued a live block")
		}
	}
}

func TestAttachRequiresCreate(t *testing.T) {
	p := nvm.New(1 << 20)
	if _, err := Attach(p); err == nil {
		t.Fatal("Attach succeeded on unformatted pool")
	}
}

// TestCrashDuringAllocMetadata sweeps crash points through a sequence of
// alloc/free operations and verifies that after crash + Attach the allocator
// metadata is consistent: it can keep allocating, never double-allocates
// against blocks persisted as live by the pre-crash run, and free lists are
// not corrupt.
func TestCrashDuringAllocMetadata(t *testing.T) {
	for crashAt := int64(1); crashAt <= 120; crashAt += 4 {
		func() {
			p := nvm.New(1<<22, nvm.WithEvictProbability(0.5), nvm.WithSeed(crashAt))
			a, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			// Allocate some long-lived blocks and persist their addresses in
			// root slot 1 region so the post-crash run can check them.
			live := make([]uint64, 0, 8)
			for i := 0; i < 8; i++ {
				addr, err := a.Alloc(0, 64)
				if err != nil {
					t.Fatal(err)
				}
				p.Store64(addr, uint64(1000+i))
				p.Persist(addr, 8)
				live = append(live, addr)
			}

			p.ScheduleCrash(crashAt)
			func() {
				defer func() { recover() }()
				for i := 0; i < 40; i++ {
					addr, err := a.Alloc(i, 48)
					if err != nil {
						t.Error(err)
						return
					}
					if i%2 == 0 {
						if err := a.Free(addr); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			p.Crash()

			b, err := Attach(p)
			if err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
			seen := map[uint64]bool{}
			for _, l := range live {
				seen[l] = true
				if got := p.Load64(l); got < 1000 || got > 1007 {
					t.Fatalf("crashAt=%d: live block %#x corrupted: %d", crashAt, l, got)
				}
			}
			for i := 0; i < 200; i++ {
				addr, err := b.Alloc(i%5, 48)
				if err != nil {
					t.Fatalf("crashAt=%d: post-crash alloc: %v", crashAt, err)
				}
				if seen[addr] {
					t.Fatalf("crashAt=%d: post-crash alloc reissued %#x", crashAt, addr)
				}
				seen[addr] = true
			}
		}()
	}
}

// Property: random alloc/free interleavings never hand out overlapping live
// blocks.
func TestQuickNoOverlap(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
		Hint  uint8
	}
	f := func(ops []op) bool {
		_, a := func() (*nvm.Pool, *Allocator) {
			p := nvm.New(1 << 22)
			al, _ := Create(p)
			return p, al
		}()
		type blk struct{ addr, size uint64 }
		var liveList []blk
		for _, o := range ops {
			if o.Alloc || len(liveList) == 0 {
				size := uint64(o.Size%2048) + 1
				addr, err := a.Alloc(int(o.Hint), size)
				if err != nil {
					return true // OOM acceptable
				}
				for _, l := range liveList {
					if addr < l.addr+l.size && l.addr < addr+size {
						return false // overlap!
					}
				}
				liveList = append(liveList, blk{addr, size})
			} else {
				i := int(o.Size) % len(liveList)
				if err := a.Free(liveList[i].addr); err != nil {
					return false
				}
				liveList = append(liveList[:i], liveList[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAlloc(t *testing.T) {
	_, a := newAlloc(t, 1<<24)
	const workers = 8
	results := make(chan map[uint64]bool, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			mine := map[uint64]bool{}
			for i := 0; i < 500; i++ {
				addr, err := a.Alloc(w, uint64(16+rng.Intn(256)))
				if err != nil {
					break
				}
				mine[addr] = true
			}
			results <- mine
		}(w)
	}
	all := map[uint64]bool{}
	for w := 0; w < workers; w++ {
		for addr := range <-results {
			if all[addr] {
				t.Fatalf("address %#x allocated by two workers", addr)
			}
			all[addr] = true
		}
	}
}

// Free and UsableSize must reject addresses no Alloc could have returned
// before reading a header there.
func TestBadAddressesRejected(t *testing.T) {
	p, a := newAlloc(t, 1<<22)
	for _, addr := range []uint64{0, 7, p.Size(), ^uint64(0)} {
		if err := a.Free(addr); !errors.Is(err, ErrBadFree) {
			t.Errorf("Free(%#x) = %v, want ErrBadFree", addr, err)
		}
		if _, err := a.UsableSize(addr); !errors.Is(err, ErrBadFree) {
			t.Errorf("UsableSize(%#x) = %v, want ErrBadFree", addr, err)
		}
		if err := a.Tx(0).Free(addr); !errors.Is(err, ErrBadFree) {
			t.Errorf("Tx.Free(%#x) = %v, want ErrBadFree", addr, err)
		}
		a.Tx(0).Abort()
	}
}

// heapState is what a reservation must leave unchanged until it is applied.
type heapState struct {
	FreeBlocks, HugeFreeBlocks             int
	FreeBytes, BumpReserve, CentralReserve uint64
}

func heapStateOf(t *testing.T, a *Allocator) heapState {
	t.Helper()
	rep, err := a.Check()
	if err != nil {
		t.Fatal(err)
	}
	return heapState{rep.FreeBlocks, rep.HugeFreeBlocks, rep.FreeBytes, rep.BumpReserve, rep.CentralReserve}
}

// statusWord allocates a block to stand in for an engine's status word and
// binds arena ar to it.
func statusWord(t *testing.T, a *Allocator, ar int) uint64 {
	t.Helper()
	w, err := a.Alloc(ar+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	a.pool.Store64(w, 0)
	a.pool.Persist(w, 8)
	if err := a.Tx(ar).Bind(w, 16); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTxAbortDropsReservation(t *testing.T) {
	_, a := newAlloc(t, 1<<22)
	statusWord(t, a, 0)
	tx := a.Tx(0)
	// Put blocks of two classes on the free lists, so the reservation
	// below both pops and bumps.
	for _, size := range []uint64{40, 100} {
		addr, _ := a.Alloc(0, size)
		if err := a.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	before := heapStateOf(t, a)
	for i := 0; i < 100; i++ {
		for _, size := range []uint64{40, 40, 100, 500, 100_000, 100_000} {
			if _, err := tx.Alloc(size); err != nil {
				t.Fatal(err)
			}
		}
		tx.Abort()
		if i == 0 {
			// The two huge spans were grabbed once and stay on the books.
			before.HugeFreeBlocks += 2
			before.CentralReserve -= 2 * hugeNeed(100_000)
		}
	}
	if after := heapStateOf(t, a); after != before {
		t.Fatalf("aborted reservations changed the heap:\nbefore %+v\nafter  %+v", before, after)
	}
}

// A published record takes effect exactly when the bound status word says
// its transaction committed, whatever the crash left of the apply: at the
// record's sequence every phase but ongoing (1) is a commit — idle (0), a
// redo engine's applying (2) — and so is any later sequence.
func TestTxRecordCommitsWithStatusWord(t *testing.T) {
	const seq = 7
	for _, status := range []uint64{seq<<2 | 1, seq << 2, seq<<2 | 2, (seq+1)<<2 | 1} {
		committed := status != seq<<2|1
		p := nvm.New(1<<22, nvm.WithEviction(nvm.EvictNone))
		a, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		w := statusWord(t, a, 0)
		tx := a.Tx(0)
		keep, _ := a.Alloc(0, 40)
		gone, _ := a.Alloc(0, 40)
		before := heapStateOf(t, a)

		p.Store64(w, seq<<2|1) // ongoing
		p.Persist(w, 8)
		addr, err := tx.Alloc(40)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Free(gone); err != nil {
			t.Fatal(err)
		}
		tx.Publish(seq)
		p.Fence()
		p.Store64(w, status)
		p.Persist(w, 8)
		// Power fails before Apply: only the record is durable.
		p.Crash()

		b, err := Attach(p)
		if err != nil {
			t.Fatal(err)
		}
		after := heapStateOf(t, b)
		if !committed {
			if after != before {
				t.Fatalf("status %#x: uncommitted record changed the heap:\nbefore %+v\nafter  %+v", status, before, after)
			}
			// The discarded record must stay dead when the status word
			// moves on.
			p.Store64(w, (seq+1)<<2|1)
			p.Persist(w, 8)
			p.Crash()
			if b, err = Attach(p); err != nil {
				t.Fatal(err)
			}
			if again := heapStateOf(t, b); again != before {
				t.Fatalf("discarded record came back:\nbefore %+v\nafter  %+v", before, again)
			}
			continue
		}
		if after.FreeBlocks != before.FreeBlocks+1 || after.BumpReserve >= before.BumpReserve {
			t.Fatalf("status %#x: committed record not applied:\nbefore %+v\nafter  %+v", status, before, after)
		}
		// The freed block is handed out again; the committed ones are not.
		seen := map[uint64]bool{keep: true, addr: true}
		reused := false
		for i := 0; i < 50; i++ {
			n, err := b.Alloc(0, 40)
			if err != nil {
				t.Fatal(err)
			}
			if seen[n] {
				t.Fatalf("block %#x handed out twice", n)
			}
			seen[n] = true
			reused = reused || n == gone
		}
		if !reused {
			t.Fatal("freed block never reused")
		}
	}
}

// A plain operation after a transaction shares the arena's record sequence,
// so re-applying the transaction's record at Attach cannot undo it.
func TestPlainOpAfterTxSurvivesAttach(t *testing.T) {
	p := nvm.New(1<<22, nvm.WithEviction(nvm.EvictNone))
	a, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	w := statusWord(t, a, 0)
	tx := a.Tx(0)
	p.Store64(w, 1<<2|1)
	p.Persist(w, 8)
	first, _ := tx.Alloc(40)
	tx.Publish(1)
	p.Fence()
	p.Store64(w, 1<<2)
	p.Persist(w, 8)
	tx.Apply()
	second, err := a.Alloc(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	p.Crash()

	b, err := Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		n, _ := b.Alloc(0, 40)
		if n == first || n == second {
			t.Fatalf("live block %#x handed out again", n)
		}
	}
}

// Sweep a crash over every persist point of a reserve/publish/apply cycle
// under every eviction policy: the heap must audit clean, and hold either
// the cycle's whole effect or none of it, as the status word says.
func TestTxCrashAtEveryPoint(t *testing.T) {
	for _, policy := range []nvm.EvictPolicy{nvm.EvictNone, nvm.EvictAll, nvm.EvictTorn, nvm.EvictRandom} {
		for point := int64(1); ; point++ {
			p := nvm.New(1<<22, nvm.WithEviction(policy), nvm.WithSeed(point))
			a, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			w := statusWord(t, a, 0)
			tx := a.Tx(0)
			// Two blocks for the cycles to free, two on a free list for them
			// to pop (last freed first).
			var live, pops []uint64
			for i := 0; i < 2; i++ {
				addr, _ := a.Alloc(0, 40)
				live = append(live, addr)
				addr, _ = a.Alloc(0, 100)
				pops = append(pops, addr)
			}
			for _, addr := range []uint64{pops[1], pops[0]} {
				if err := a.Free(addr); err != nil {
					t.Fatal(err)
				}
			}
			before := heapStateOf(t, a)

			cycle := func(seq uint64, free uint64) {
				p.Store64(w, seq<<2|1)
				p.Persist(w, 8) // begin fence
				if _, err := tx.Alloc(100); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Alloc(200); err != nil {
					t.Fatal(err)
				}
				if err := tx.Free(free); err != nil {
					t.Fatal(err)
				}
				tx.Retired()
				tx.Publish(seq)
				p.Fence() // commit fence
				p.Store64(w, seq<<2)
				p.Persist(w, 8)
				tx.Apply()
			}
			p.ScheduleCrashAt(nvm.CrashAtAny, point)
			fired := func() (fired bool) {
				defer func() {
					if r := recover(); r != nil {
						fired = true
					}
					tx.Abort()
				}()
				cycle(1, live[0])
				cycle(2, live[1])
				return false
			}()
			if !fired {
				if point < 20 {
					t.Fatalf("only %d persist points", point)
				}
				break
			}
			p.Crash()
			b, err := Attach(p)
			if err != nil {
				t.Fatalf("%v point %d: %v", policy, point, err)
			}
			rep, err := b.Check()
			if err != nil {
				t.Fatalf("%v point %d: %v", policy, point, err)
			}
			done := int(p.Load64(w) >> 2)
			if p.Load64(w)&3 != 0 {
				done--
			}
			if want := before.BumpReserve - uint64(done)*224; rep.BumpReserve != want {
				t.Fatalf("%v point %d: bump reserve %d after %d committed cycles, want %d",
					policy, point, rep.BumpReserve, done, want)
			}
			for i := range live {
				if free := rep.IsFree(live[i]); free != (i < done) {
					t.Fatalf("%v point %d: freed block %d free = %v after %d committed cycles", policy, point, i, free, done)
				}
				if free := rep.IsFree(pops[i]); free != (i >= done) {
					t.Fatalf("%v point %d: popped block %d free = %v after %d committed cycles", policy, point, i, free, done)
				}
			}
		}
	}
}

// A plain Alloc or Free that returned is durable: its apply is fenced before
// the next operation's record overwrites its own.
func TestCompletedPlainOpsSurviveCrash(t *testing.T) {
	for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictRandom} {
		for point := int64(1); point <= 150; point++ {
			p := nvm.New(1<<22, nvm.WithEviction(policy), nvm.WithSeed(point))
			a, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			// A free list for the window's allocations to pop from.
			var warm []uint64
			for i := 0; i < 8; i++ {
				addr, _ := a.Alloc(0, 40)
				warm = append(warm, addr)
			}
			for _, addr := range warm {
				if err := a.Free(addr); err != nil {
					t.Fatal(err)
				}
			}
			live := map[uint64]bool{}
			p.ScheduleCrashAt(nvm.CrashAtAny, point)
			func() {
				defer func() { recover() }()
				for i := 0; i < 12; i++ {
					addr, err := a.Alloc(0, 40)
					if err != nil {
						t.Error(err)
						return
					}
					live[addr] = true
				}
			}()
			p.Crash()
			b, err := Attach(p)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.Check()
			if err != nil {
				t.Fatalf("%v point %d: %v", policy, point, err)
			}
			for addr := range live {
				if rep.IsFree(addr) {
					t.Fatalf("%v point %d: block %#x returned by Alloc is free after the crash", policy, point, addr)
				}
			}
		}
	}
}

// Huge blocks ride the redo record like class blocks: at every crash point of
// two cycles that each allocate and free one — the first from the huge free
// list, the second by growing it — the heap holds each cycle's whole effect
// or none of it, and leaks at most the one span being grabbed.
func TestTxHugeCrashAtEveryPoint(t *testing.T) {
	const size = 150_000
	unowned := func(rep *CheckReport, pool uint64) uint64 {
		return pool - rep.FreeBytes - rep.HugeFreeBytes - rep.BumpReserve - rep.CentralReserve
	}
	for _, policy := range []nvm.EvictPolicy{nvm.EvictNone, nvm.EvictAll, nvm.EvictTorn, nvm.EvictRandom} {
		leaks := 0
		for point := int64(1); ; point++ {
			p := nvm.New(1<<22, nvm.WithEviction(policy), nvm.WithSeed(point))
			a, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			w := statusWord(t, a, 0)
			tx := a.Tx(0)
			var live []uint64
			for i := 0; i < 2; i++ {
				addr, _ := a.Alloc(0, 100_000)
				live = append(live, addr)
			}
			spare, _ := a.Alloc(0, size)
			if err := a.Free(spare); err != nil {
				t.Fatal(err)
			}
			rep, err := a.Check()
			if err != nil {
				t.Fatal(err)
			}
			before := unowned(rep, p.Size())

			var got [2]uint64
			cycle := func(seq uint64) {
				p.Store64(w, seq<<2|1)
				p.Persist(w, 8) // begin fence
				addr, err := tx.Alloc(size)
				if err != nil {
					t.Fatal(err)
				}
				got[seq-1] = addr
				if err := tx.Free(live[seq-1]); err != nil {
					t.Fatal(err)
				}
				tx.Retired()
				tx.Publish(seq)
				p.Fence() // commit fence
				p.Store64(w, seq<<2)
				p.Persist(w, 8)
				tx.Apply()
			}
			p.ScheduleCrashAt(nvm.CrashAtAny, point)
			fired := func() (fired bool) {
				defer func() {
					if r := recover(); r != nil {
						fired = true
					}
					tx.Abort()
				}()
				cycle(1)
				cycle(2)
				return false
			}()
			if !fired {
				if got[0] != spare || got[1] == spare {
					t.Fatalf("cycles allocated %#x and %#x, want the spare %#x and a grown block", got[0], got[1], spare)
				}
				if point < 20 {
					t.Fatalf("only %d persist points", point)
				}
				break
			}
			p.Crash()
			b, err := Attach(p)
			if err != nil {
				t.Fatalf("%v point %d: %v", policy, point, err)
			}
			if rep, err = b.Check(); err != nil {
				t.Fatalf("%v point %d: %v", policy, point, err)
			}
			done := int(p.Load64(w) >> 2)
			if p.Load64(w)&3 != 0 {
				done--
			}
			for i := range live {
				if free := rep.IsFree(live[i]); free != (i < done) {
					t.Fatalf("%v point %d: freed block %d free = %v after %d committed cycles", policy, point, i, free, done)
				}
				if i < done && rep.IsFree(got[i]) {
					t.Fatalf("%v point %d: block allocated by committed cycle %d is free", policy, point, i+1)
				}
			}
			if free := rep.IsFree(spare); free != (done == 0) {
				t.Fatalf("%v point %d: spare block free = %v after %d committed cycles", policy, point, free, done)
			}
			want := before + uint64(done)*(hugeNeed(size)-hugeNeed(100_000))
			switch leaked := unowned(rep, p.Size()) - want; leaked {
			case 0:
			case hugeNeed(size):
				leaks++
			default:
				t.Fatalf("%v point %d: %d bytes leaked after %d committed cycles", policy, point, int64(leaked), done)
			}
		}
		// Only a crash inside the grab itself may leak its span: between the
		// central cursor's store and the fence of the record that puts the
		// span on the arena's list.
		if leaks > 12 {
			t.Errorf("%v: %d crash points leaked the grown span", policy, leaks)
		}
	}
}

// A block can be on a free list once: freeing it again is rejected, whether
// the first free is queued in the same reservation, applied by an earlier
// one, or was a plain Free.
func TestDoubleFreeRejected(t *testing.T) {
	for _, size := range []uint64{40, 100_000} {
		p, a := newAlloc(t, 1<<22)
		w := statusWord(t, a, 0)
		tx := a.Tx(0)
		commit := func(seq uint64) {
			tx.Publish(seq)
			p.Fence()
			p.Store64(w, seq<<2)
			p.Persist(w, 8)
			tx.Apply()
		}
		var addrs [3]uint64
		for i := range addrs {
			addrs[i], _ = a.Alloc(0, size)
		}

		// Twice in one reservation.
		if err := tx.Free(addrs[0]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Free(addrs[0]); !errors.Is(err, ErrBadFree) {
			t.Fatalf("size %d: second Tx.Free in one reservation = %v, want ErrBadFree", size, err)
		}
		commit(1)
		// Again in the next one, and plainly.
		if err := tx.Free(addrs[0]); !errors.Is(err, ErrBadFree) {
			t.Fatalf("size %d: Tx.Free of a block freed by an earlier reservation = %v, want ErrBadFree", size, err)
		}
		tx.Abort()
		if err := a.Free(addrs[0]); !errors.Is(err, ErrBadFree) {
			t.Fatalf("size %d: Free of a freed block = %v, want ErrBadFree", size, err)
		}
		// Plain free twice.
		if err := a.Free(addrs[1]); err != nil {
			t.Fatal(err)
		}
		if err := a.Free(addrs[1]); !errors.Is(err, ErrBadFree) {
			t.Fatalf("size %d: second Free = %v, want ErrBadFree", size, err)
		}
		if _, err := a.UsableSize(addrs[1]); !errors.Is(err, ErrBadFree) {
			t.Fatalf("size %d: UsableSize of a freed block = %v, want ErrBadFree", size, err)
		}

		// A block taken from the free list and freed by the same reservation
		// is legitimate, once.
		again, err := tx.Alloc(size)
		if err != nil || (again != addrs[0] && again != addrs[1]) {
			t.Fatalf("size %d: Tx.Alloc = %#x, %v; want a freed block back", size, again, err)
		}
		if err := tx.Free(again); err != nil {
			t.Fatalf("size %d: freeing a block the reservation allocated: %v", size, err)
		}
		if err := tx.Free(again); !errors.Is(err, ErrBadFree) {
			t.Fatalf("size %d: freeing it twice = %v, want ErrBadFree", size, err)
		}
		commit(2)

		rep, err := a.Check()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if n := rep.FreeBlocks + rep.HugeFreeBlocks; n != 2 {
			t.Fatalf("size %d: %d free blocks, want the 2 freed ones", size, n)
		}
		// Every free block comes back exactly once.
		seen := map[uint64]bool{addrs[2]: true}
		for i := 0; i < 4; i++ {
			n, err := a.Alloc(0, size)
			if err != nil {
				t.Fatal(err)
			}
			if seen[n] {
				t.Fatalf("size %d: block %#x handed out twice", size, n)
			}
			seen[n] = true
		}
	}
}

// Invariant 3 without a begin fence: reservations that commit on their own
// fence (Publish(0)) and never vouch for another leave their apply to be
// retired by the next Publish, before it overwrites the record that could
// redo it. A crash anywhere must leave whole cycles only.
func TestUnretiredApplyFencedBeforeNextRecord(t *testing.T) {
	for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictRandom} {
		for point := int64(1); ; point++ {
			p := nvm.New(1<<22, nvm.WithEviction(policy), nvm.WithSeed(point))
			a, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			statusWord(t, a, 0)
			tx := a.Tx(0)
			// Four blocks for the cycles to free, and four of another class on
			// a free list for them to pop.
			var live, spare []uint64
			for i := 0; i < 4; i++ {
				addr, _ := a.Alloc(0, 40)
				live = append(live, addr)
				addr, _ = a.Alloc(0, 100)
				spare = append(spare, addr)
			}
			for _, addr := range spare {
				if err := a.Free(addr); err != nil {
					t.Fatal(err)
				}
			}
			committed := 0
			p.ScheduleCrashAt(nvm.CrashAtAny, point)
			fired := func() (fired bool) {
				defer func() {
					if r := recover(); r != nil {
						fired = true
					}
					tx.Abort()
				}()
				for _, addr := range live {
					if _, err := tx.Alloc(100); err != nil {
						t.Fatal(err)
					}
					if err := tx.Free(addr); err != nil {
						t.Fatal(err)
					}
					tx.Publish(0)
					p.Fence()
					committed++
					tx.Apply()
				}
				return false
			}()
			if !fired {
				break
			}
			p.Crash()
			b, err := Attach(p)
			if err != nil {
				t.Fatalf("%v point %d: %v", policy, point, err)
			}
			rep, err := b.Check()
			if err != nil {
				t.Fatalf("%v point %d: %v", policy, point, err)
			}
			// Each cycle pops one block and pushes one.
			if rep.FreeBlocks != 4 {
				t.Fatalf("%v point %d: %d free blocks, want 4", policy, point, rep.FreeBlocks)
			}
			for i, addr := range live {
				// The cycle in flight at the crash may have landed or not.
				if free := rep.IsFree(addr); free != (i < committed) && i != committed {
					t.Fatalf("%v point %d: block %d free = %v after %d committed cycles", policy, point, i, free, committed)
				}
			}
		}
	}
}
