package clobber

import (
	"errors"
	"fmt"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// listHeadSlot is the pool root slot the test list anchors its head in.
const listHeadSlot = 2

// registerPush registers a linked-list push txfunc equivalent to the paper's
// Figure 2 list insertion: one clobber write (the head pointer).
func registerPush(e txn.Engine, headAddr uint64) {
	e.Register("push", func(m txn.Mem, args *txn.Args) error {
		return push(m, headAddr, args.Uint64(0))
	})
}

func push(m txn.Mem, headAddr, val uint64) error {
	node, err := m.Alloc(16)
	if err != nil {
		return err
	}
	m.Store64(node, val)
	next := m.Load64(headAddr) // head is read here ...
	m.Store64(node+8, next)
	m.Store64(headAddr, node) // ... and clobbered here
	return nil
}

func listValues(p *nvm.Pool, headAddr uint64) []uint64 {
	var out []uint64
	for n := p.Load64(headAddr); n != 0; n = p.Load64(n + 8) {
		out = append(out, p.Load64(n))
		if len(out) > 1_000_000 {
			panic("list cycle")
		}
	}
	return out
}

func newEngine(t *testing.T, opts Options) (*nvm.Pool, *Engine) {
	t.Helper()
	p := nvm.New(1<<24, nvm.WithEvictProbability(0.5), nvm.WithSeed(42))
	a, err := pmem.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Slots == 0 {
		opts.Slots = 4
	}
	e, err := Create(p, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, e
}

func TestCommitDurable(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	for i := uint64(1); i <= 5; i++ {
		if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Crash() // committed transactions must survive
	got := listValues(p, head)
	want := []uint64{5, 4, 3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("list after crash = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list after crash = %v, want %v", got, want)
		}
	}
	if c := e.Stats().Committed.Load(); c != 5 {
		t.Fatalf("Committed = %d", c)
	}
}

func TestClobberDetectionMinimal(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)

	if err := e.Run(0, "push", txn.NewArgs().PutUint64(7)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().Snapshot()
	// Only the head pointer is a clobbered input: writes to the fresh node
	// must NOT be logged.
	if s.LogEntries != 1 {
		t.Fatalf("clobber_log entries = %d, want 1", s.LogEntries)
	}
	if s.VLogEntries != 1 {
		t.Fatalf("v_log entries = %d, want 1", s.VLogEntries)
	}
}

func TestShadowedWritesLoggedOnce(t *testing.T) {
	p, e := newEngine(t, Options{})
	cell := p.RootSlot(3)
	e.Register("loop", func(m txn.Mem, args *txn.Args) error {
		for i := uint64(0); i < 10; i++ {
			v := m.Load64(cell)
			m.Store64(cell, v+1)
		}
		return nil
	})
	if err := e.Run(0, "loop", txn.NoArgs); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().LogEntries.Load(); n != 1 {
		t.Fatalf("loop clobber entries = %d, want 1 (shadowed refinement)", n)
	}
	if got := p.Load64(cell); got != 10 {
		t.Fatalf("cell = %d", got)
	}
}

func TestConservativeModeLogsMore(t *testing.T) {
	// Write-then-read-then-write: refined analysis knows the read is not an
	// input (unexposed); conservative logs the second write.
	run := func(conservative bool) int64 {
		p, e := newEngine(t, Options{Conservative: conservative})
		cell := p.RootSlot(3)
		e.Register("wrw", func(m txn.Mem, args *txn.Args) error {
			m.Store64(cell, 1)
			v := m.Load64(cell)
			m.Store64(cell, v+1)
			return nil
		})
		if err := e.Run(0, "wrw", txn.NoArgs); err != nil {
			t.Fatal(err)
		}
		return e.Stats().LogEntries.Load()
	}
	refined, conservative := run(false), run(true)
	if refined != 0 {
		t.Fatalf("refined logged %d entries for write-read-write, want 0", refined)
	}
	if conservative < 1 {
		t.Fatalf("conservative logged %d entries, want >= 1", conservative)
	}
}

func TestAbortBeforeStore(t *testing.T) {
	p, e := newEngine(t, Options{})
	boom := errors.New("validation failed")
	e.Register("fail", func(m txn.Mem, args *txn.Args) error {
		_ = m.Load64(p.RootSlot(3))
		return boom
	})
	if err := e.Run(0, "fail", txn.NoArgs); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c := e.Stats().Committed.Load(); c != 0 {
		t.Fatalf("Committed = %d", c)
	}
	// The slot must be reusable.
	registerPush(e, p.RootSlot(listHeadSlot))
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(1)); err != nil {
		t.Fatal(err)
	}
}

func TestAbortAfterStorePanics(t *testing.T) {
	p, e := newEngine(t, Options{})
	e.Register("dirty-fail", func(m txn.Mem, args *txn.Args) error {
		m.Store64(p.RootSlot(3), 9)
		return errors.New("too late")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected ErrDirtyAbort panic")
		} else if err, ok := r.(error); !ok || !errors.Is(err, ErrDirtyAbort) {
			t.Fatalf("panic = %v", r)
		}
	}()
	_ = e.Run(0, "dirty-fail", txn.NoArgs)
}

func TestUnknownTxFunc(t *testing.T) {
	_, e := newEngine(t, Options{})
	if err := e.Run(0, "nope", txn.NoArgs); !errors.Is(err, txn.ErrUnknownTxFunc) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadSlot(t *testing.T) {
	_, e := newEngine(t, Options{})
	e.Register("noop", func(txn.Mem, *txn.Args) error { return nil })
	if err := e.Run(-1, "noop", txn.NoArgs); !errors.Is(err, txn.ErrBadSlot) {
		t.Fatalf("err = %v", err)
	}
	if err := e.Run(99, "noop", txn.NoArgs); !errors.Is(err, txn.ErrBadSlot) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRO(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(11)); err != nil {
		t.Fatal(err)
	}
	var got uint64
	err := e.RunRO(0, func(m txn.Mem) error {
		node := m.Load64(head)
		got = m.Load64(node)
		return nil
	})
	if err != nil || got != 11 {
		t.Fatalf("RunRO got %d, err %v", got, err)
	}
	// Stores in RO operations are programming errors.
	defer func() {
		if recover() == nil {
			t.Fatal("RO store did not panic")
		}
	}()
	_ = e.RunRO(0, func(m txn.Mem) error { m.Store64(head, 0); return nil })
}

// reopen simulates a restart: crash the pool, re-attach allocator and engine.
func reopen(t *testing.T, p *nvm.Pool) *Engine {
	t.Helper()
	p.Crash()
	a, err := pmem.Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Attach(p, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecoverReexecutesInterrupted(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)

	for i := uint64(1); i <= 3; i++ {
		if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Crash mid-transaction: the txfunc performs several stores; crash on
	// the last one (the clobbering head update).
	crashDuring(t, p, func() error {
		return e.Run(0, "push", txn.NewArgs().PutUint64(4))
	}, pushStores(t, 3))

	e2 := reopen(t, p)
	registerPush(e2, head)
	n, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Recover returned %d, want 1", n)
	}
	got := listValues(p, head)
	want := []uint64{4, 3, 2, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("list after recovery = %v, want %v", got, want)
	}
	if r := e2.Stats().Recovered.Load(); r != 1 {
		t.Fatalf("Recovered = %d", r)
	}
}

// pushStores replays prior pushes on a scratch pool and returns the ordinal,
// among the next push's Store events, of the txfunc's last store: the
// clobbering head update. Crash-placement tests derive their ordinals from
// it, so store-batching changes in the engine move the crash point with the
// layout instead of sliding it past the end of the transaction.
func pushStores(t *testing.T, prior uint64) int64 {
	t.Helper()
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	var last int64
	e.Register("push", func(m txn.Mem, args *txn.Args) error {
		err := push(m, head, args.Uint64(0))
		last = p.PersistPoints(nvm.CrashAtStore)
		return err
	})
	for i := uint64(1); i <= prior; i++ {
		if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.ResetPersistPoints()
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(prior+1)); err != nil {
		t.Fatal(err)
	}
	return last
}

// crashDuring arms the crash at the nth store and runs f, requiring the
// crash panic to fire.
func crashDuring(t *testing.T, p *nvm.Pool, f func() error, nthStore int64) {
	t.Helper()
	p.ScheduleCrash(nthStore)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !errors.Is(asErr(r), nvm.ErrCrash) {
					panic(r)
				}
				crashed = true
			}
		}()
		_ = f()
	}()
	if !crashed {
		t.Fatalf("crash at store %d did not fire", nthStore)
	}
}

func asErr(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("%v", r)
}

// TestCrashSweep crashes at every store ordinal within a push transaction
// and verifies recovery always completes the interrupted push exactly once.
func TestCrashSweep(t *testing.T) {
	for n := int64(1); n <= 40; n++ {
		p, e := newEngine(t, Options{})
		head := p.RootSlot(listHeadSlot)
		registerPush(e, head)
		if err := e.Run(0, "push", txn.NewArgs().PutUint64(100)); err != nil {
			t.Fatal(err)
		}

		p.ScheduleCrash(n)
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !errors.Is(asErr(r), nvm.ErrCrash) {
						panic(r)
					}
					fired = true
				}
			}()
			_ = e.Run(1, "push", txn.NewArgs().PutUint64(200))
		}()
		if !fired {
			// The whole transaction finished in fewer than n stores: from
			// here on there is nothing to sweep.
			p.ScheduleCrash(0)
			break
		}

		e2 := reopen(t, p)
		registerPush(e2, head)
		rec, err := e2.Recover()
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		got := fmt.Sprint(listValues(p, head))
		absent, complete := fmt.Sprint([]uint64{100}), fmt.Sprint([]uint64{200, 100})
		// All-or-nothing: after recovery the push either never happened
		// (begin record not yet durable, rec==0) or fully happened (rec==1,
		// or the commit was already durable before the crash). Anything
		// else is a torn state.
		switch {
		case rec == 1 && got != complete:
			t.Fatalf("crash@%d: re-executed but list = %v", n, got)
		case rec == 0 && got != absent && got != complete:
			t.Fatalf("crash@%d: torn state %v", n, got)
		}
	}
}

func TestRecoverIdleNoop(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(1)); err != nil {
		t.Fatal(err)
	}
	e2 := reopen(t, p)
	registerPush(e2, head)
	n, err := e2.Recover()
	if err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	if got := listValues(p, head); len(got) != 1 || got[0] != 1 {
		t.Fatalf("list = %v", got)
	}
}

func TestVLogDisabledVariant(t *testing.T) {
	p, e := newEngine(t, Options{DisableVLog: true})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(5)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().Snapshot()
	if s.VLogEntries != 0 {
		t.Fatalf("VLogEntries = %d with v_log disabled", s.VLogEntries)
	}
	if s.LogEntries != 1 {
		t.Fatalf("LogEntries = %d", s.LogEntries)
	}
}

func TestClobberLogDisabledVariant(t *testing.T) {
	p, e := newEngine(t, Options{DisableClobberLog: true})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(5)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats().Snapshot()
	if s.LogEntries != 0 {
		t.Fatalf("LogEntries = %d with clobber_log disabled", s.LogEntries)
	}
	if s.VLogEntries != 1 {
		t.Fatalf("VLogEntries = %d", s.VLogEntries)
	}
}

func TestFenceAccountingPerTransaction(t *testing.T) {
	p, e := newEngine(t, Options{})
	cell := p.RootSlot(3)
	e.Register("bump", func(m txn.Mem, args *txn.Args) error {
		v := m.Load64(cell)
		m.Store64(cell, v+1) // exactly one clobber write, no allocs
		return nil
	})
	if err := e.Run(0, "bump", txn.NoArgs); err != nil {
		t.Fatal(err)
	}
	s0 := p.Stats()
	if err := e.Run(0, "bump", txn.NoArgs); err != nil {
		t.Fatal(err)
	}
	d := p.Stats().Sub(s0)
	// begin(1) + clobber append(1) + output flush(1) + commit status(1) = 4
	if d.Fences != 4 {
		t.Fatalf("fences per bump tx = %d, want 4", d.Fences)
	}
}

func TestFreeDeferredToCommit(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	e.Register("pop", func(m txn.Mem, args *txn.Args) error {
		node := m.Load64(head)
		if node == 0 {
			return nil
		}
		next := m.Load64(node + 8)
		m.Store64(head, next)
		return m.Free(node)
	})
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(9)); err != nil {
		t.Fatal(err)
	}
	node := p.Load64(head)
	if err := e.Run(0, "pop", txn.NoArgs); err != nil {
		t.Fatal(err)
	}
	if got := p.Load64(head); got != 0 {
		t.Fatalf("head = %#x after pop", got)
	}
	// The freed block must be reusable now.
	addr, err := e.Allocator().Alloc(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if addr != node {
		// Not guaranteed to be the same block in general, but with one free
		// it lands on the same free list: a mismatch suggests the deferred
		// free never happened.
		t.Fatalf("freed block not recycled: alloc=%#x node=%#x", addr, node)
	}
}

func TestCrashDuringPopRecovers(t *testing.T) {
	// Pop frees a node and clobbers head; crash inside, then verify
	// re-execution completes and the list is intact.
	for n := int64(1); n <= 20; n++ {
		p, e := newEngine(t, Options{})
		head := p.RootSlot(listHeadSlot)
		registerPush(e, head)
		e.Register("pop", func(m txn.Mem, args *txn.Args) error {
			node := m.Load64(head)
			if node == 0 {
				return nil
			}
			next := m.Load64(node + 8)
			m.Store64(head, next)
			return m.Free(node)
		})
		for i := uint64(1); i <= 3; i++ {
			if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		p.ScheduleCrash(n)
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !errors.Is(asErr(r), nvm.ErrCrash) {
						panic(r)
					}
					fired = true
				}
			}()
			_ = e.Run(0, "pop", txn.NoArgs)
		}()
		if !fired {
			break
		}
		e2 := reopen(t, p)
		registerPush(e2, head)
		e2.Register("pop", func(m txn.Mem, args *txn.Args) error {
			node := m.Load64(head)
			if node == 0 {
				return nil
			}
			next := m.Load64(node + 8)
			m.Store64(head, next)
			return m.Free(node)
		})
		rec, err := e2.Recover()
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		got := fmt.Sprint(listValues(p, head))
		absent, complete := fmt.Sprint([]uint64{3, 2, 1}), fmt.Sprint([]uint64{2, 1})
		switch {
		case rec == 1 && got != complete:
			t.Fatalf("crash@%d: re-executed but list = %v", n, got)
		case rec == 0 && got != absent && got != complete:
			t.Fatalf("crash@%d: torn state %v", n, got)
		}
	}
}

func TestAttachRejectsForeignPool(t *testing.T) {
	p := nvm.New(1 << 22)
	a, err := pmem.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(p, a, Options{}); err == nil {
		t.Fatal("Attach succeeded on a pool without an engine")
	}
}

func TestConcurrentSlots(t *testing.T) {
	p, e := newEngine(t, Options{Options: chassis.Options{Slots: 8}})
	// Each worker pushes onto its own list (disjoint lock sets per the
	// programming model).
	heads := make([]uint64, 4)
	for i := range heads {
		heads[i] = p.RootSlot(10 + i)
	}
	e.Register("pushN", func(m txn.Mem, args *txn.Args) error {
		head := args.Uint64(0)
		val := args.Uint64(1)
		node, err := m.Alloc(16)
		if err != nil {
			return err
		}
		m.Store64(node, val)
		m.Store64(node+8, m.Load64(head))
		m.Store64(head, node)
		return nil
	})
	done := make(chan error, len(heads))
	for w := range heads {
		go func(w int) {
			var err error
			for i := uint64(0); i < 100 && err == nil; i++ {
				err = e.Run(w, "pushN", txn.NewArgs().PutUint64(heads[w]).PutUint64(i))
			}
			done <- err
		}(w)
	}
	for range heads {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for w := range heads {
		if got := len(listValues(p, heads[w])); got != 100 {
			t.Fatalf("worker %d list has %d nodes", w, got)
		}
	}
}

// A txfunc that allocates and then fails before its first store aborts
// trivially; the blocks it reserved must go back, whichever path they came
// from (free list, bump, huge).
func TestAbortAfterAllocDoesNotLeak(t *testing.T) {
	_, e := newEngine(t, Options{})
	errNope := errors.New("nope")
	e.Register("allocfail", func(m txn.Mem, args *txn.Args) error {
		for _, size := range []uint64{16, 16, 300, 5000, 70000} {
			if _, err := m.Alloc(size); err != nil {
				return err
			}
		}
		return errNope
	})
	e.Register("churn", func(m txn.Mem, args *txn.Args) error {
		a, err := m.Alloc(16)
		if err != nil {
			return err
		}
		m.Store64(a, 1)
		return m.Free(a)
	})
	// Leave a block on slot 0's free list and take the first refill, so the
	// aborts below start from a settled heap.
	if err := e.Run(0, "churn", txn.NoArgs); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0, "allocfail", txn.NoArgs); !errors.Is(err, errNope) {
		t.Fatal(err)
	}
	reserve := func() uint64 {
		rep, err := e.Allocator().Check()
		if err != nil {
			t.Fatal(err)
		}
		return rep.FreeBytes + rep.BumpReserve + rep.HugeFreeBytes + rep.CentralReserve
	}
	before := reserve()
	for i := 0; i < 1000; i++ {
		if err := e.Run(0, "allocfail", txn.NoArgs); !errors.Is(err, errNope) {
			t.Fatal(err)
		}
	}
	if after := reserve(); after != before {
		t.Fatalf("1000 aborted transactions leaked %d bytes", before-after)
	}
	if err := e.Run(0, "churn", txn.NoArgs); err != nil {
		t.Fatalf("slot unusable after aborts: %v", err)
	}
}

// A block freed twice — inside one transaction, or again by a later one —
// goes on its free list once: the second Free fails with pmem.ErrBadFree and
// the heap stays sound.
func TestDoubleFreeRejected(t *testing.T) {
	_, e := newEngine(t, Options{})
	var second error
	e.Register("freeTwice", func(m txn.Mem, args *txn.Args) error {
		addr := args.Uint64(0)
		if err := m.Free(addr); err != nil {
			second = err
			return nil
		}
		second = m.Free(addr)
		return nil
	})
	for _, size := range []uint64{16, 70000} {
		addr, err := e.Allocator().Alloc(0, size)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if err := e.Run(0, "freeTwice", txn.NewArgs().PutUint64(addr)); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(second, pmem.ErrBadFree) {
				t.Fatalf("size %d round %d: repeated Free = %v, want ErrBadFree", size, round, second)
			}
		}
		if _, err := e.Allocator().Check(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		// The block comes back once.
		first, _ := e.Allocator().Alloc(0, size)
		again, _ := e.Allocator().Alloc(0, size)
		if first != addr || again == addr {
			t.Fatalf("size %d: freed block %#x then allocated %#x and %#x", size, addr, first, again)
		}
	}
}

// Huge blocks are reserved, published and applied like small ones: a crash
// at any persist point of a transaction that allocates one and frees another
// leaves the old blob or the new one, the other block free, and at most the
// span being grabbed from the central region at that instant leaked.
func TestCrashSweepHugeBlocks(t *testing.T) {
	const size = 70000
	registerSwap := func(e *Engine, root uint64) {
		e.Register("swap", func(m txn.Mem, args *txn.Args) error {
			old := m.Load64(root)
			blob, err := m.Alloc(size)
			if err != nil {
				return err
			}
			m.Store64(blob, args.Uint64(0))
			m.Store64(blob+size-8, args.Uint64(0))
			m.Store64(root, blob)
			if old == 0 {
				return nil
			}
			return m.Free(old)
		})
	}
	unowned := func(e *Engine, p *nvm.Pool) (uint64, *pmem.CheckReport) {
		rep, err := e.Allocator().Check()
		if err != nil {
			t.Fatal(err)
		}
		return p.Size() - rep.FreeBytes - rep.HugeFreeBytes - rep.BumpReserve - rep.CentralReserve, rep
	}
	leaks := 0
	for n := int64(1); ; n++ {
		p, e := newEngine(t, Options{})
		root := p.RootSlot(listHeadSlot)
		registerSwap(e, root)
		if err := e.Run(0, "swap", txn.NewArgs().PutUint64(1)); err != nil {
			t.Fatal(err)
		}
		before, _ := unowned(e, p)

		p.ScheduleCrashAt(nvm.CrashAtAny, n)
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !errors.Is(asErr(r), nvm.ErrCrash) {
						panic(r)
					}
					fired = true
				}
			}()
			_ = e.Run(0, "swap", txn.NewArgs().PutUint64(2))
		}()
		if !fired {
			p.ScheduleCrash(0)
			if n < 20 {
				t.Fatalf("only %d persist points", n)
			}
			// The grab is a handful of persist points among them: the
			// central cursor's store up to the fence of the record that
			// lists the span.
			if leaks > 8 {
				t.Fatalf("%d of %d crash points leaked a huge block", leaks, n-1)
			}
			break
		}

		e2 := reopen(t, p)
		registerSwap(e2, root)
		if _, err := e2.Recover(); err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		blob := p.Load64(root)
		if v := p.Load64(blob); (v != 1 && v != 2) || p.Load64(blob+size-8) != v {
			t.Fatalf("crash@%d: blob holds %d / %d", n, v, p.Load64(blob+size-8))
		}
		after, rep := unowned(e2, p)
		if rep.IsFree(blob) {
			t.Fatalf("crash@%d: the reachable blob is free", n)
		}
		switch leaked := after - before; leaked {
		case 0:
		case roundUpLine(size + 16):
			leaks++
		default:
			t.Fatalf("crash@%d: %d bytes leaked", n, int64(leaked))
		}
		// Recovery done, nothing more leaks.
		if err := e2.Run(0, "swap", txn.NewArgs().PutUint64(3)); err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		if again, _ := unowned(e2, p); again != after {
			t.Fatalf("crash@%d: a swap after recovery leaked %d bytes", n, int64(again-after))
		}
	}
}

func roundUpLine(n uint64) uint64 { return (n + nvm.LineSize - 1) / nvm.LineSize * nvm.LineSize }
