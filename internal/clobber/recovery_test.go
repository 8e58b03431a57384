package clobber

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/txn"
)

// TestRecoverIsIdempotent runs Recover twice; the second pass must be a
// no-op (re-running recovery after a clean recovery is a normal operational
// mistake the engine has to tolerate).
func TestRecoverIsIdempotent(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	crashDuring(t, p, func() error {
		return e.Run(0, "push", txn.NewArgs().PutUint64(1))
	}, pushStores(t, 0))

	e2 := reopen(t, p)
	registerPush(e2, head)
	n1, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("second Recover recovered %d transactions", n2)
	}
	want := n1
	if got := len(listValues(p, head)); got != want {
		t.Fatalf("list has %d nodes, want %d", got, want)
	}
}

// TestCrashDuringRecoveryReexecution crashes the machine a second time while
// recovery is re-executing the interrupted transaction, then recovers again.
// The final state must still be all-or-nothing.
func TestCrashDuringRecoveryReexecution(t *testing.T) {
	for second := int64(1); second <= 25; second += 2 {
		p, e := newEngine(t, Options{})
		head := p.RootSlot(listHeadSlot)
		registerPush(e, head)
		if err := e.Run(0, "push", txn.NewArgs().PutUint64(1)); err != nil {
			t.Fatal(err)
		}
		// First crash mid-push.
		crashDuring(t, p, func() error {
			return e.Run(0, "push", txn.NewArgs().PutUint64(2))
		}, pushStores(t, 1))

		// First recovery attempt, crashed again mid-way.
		e2 := reopen(t, p)
		registerPush(e2, head)
		p.ScheduleCrash(second)
		secondFired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !errors.Is(asErr(r), nvm.ErrCrash) {
						panic(r)
					}
					secondFired = true
				}
			}()
			_, _ = e2.Recover()
		}()
		p.ScheduleCrash(0)

		// Second recovery must complete regardless.
		e3 := reopen(t, p)
		registerPush(e3, head)
		if _, err := e3.Recover(); err != nil {
			t.Fatalf("second crash at %d (fired=%v): %v", second, secondFired, err)
		}
		got := fmt.Sprint(listValues(p, head))
		absent := fmt.Sprint([]uint64{1})
		complete := fmt.Sprint([]uint64{2, 1})
		if got != absent && got != complete {
			t.Fatalf("second crash at %d: torn state %v", second, got)
		}
		// Engine stays usable.
		if err := e3.Run(0, "push", txn.NewArgs().PutUint64(3)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryRequiresRegistration checks the operational contract: if the
// txfunc was not re-registered before Recover, the engine reports a clear
// error instead of silently dropping the transaction.
func TestRecoveryRequiresRegistration(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	crashDuring(t, p, func() error {
		return e.Run(0, "push", txn.NewArgs().PutUint64(1))
	}, pushStores(t, 0))

	e2 := reopen(t, p) // deliberately no registerPush
	if _, err := e2.Recover(); !errors.Is(err, txn.ErrUnknownTxFunc) {
		t.Fatalf("Recover without registration: err = %v", err)
	}
	// Registering and retrying succeeds.
	registerPush(e2, head)
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeTransactionManyClobbers stresses log capacity accounting with a
// transaction that clobbers hundreds of distinct words.
func TestLargeTransactionManyClobbers(t *testing.T) {
	p, e := newEngine(t, Options{Options: chassis.Options{DataLogCap: 1 << 20}})
	base := p.RootSlot(3)
	arrSlot := base
	e.Register("initarr", func(m txn.Mem, args *txn.Args) error {
		arr, err := m.Alloc(8 * 512)
		if err != nil {
			return err
		}
		for i := uint64(0); i < 512; i++ {
			m.Store64(arr+i*8, i)
		}
		m.Store64(arrSlot, arr)
		return nil
	})
	e.Register("incrall", func(m txn.Mem, args *txn.Args) error {
		arr := m.Load64(arrSlot)
		for i := uint64(0); i < 512; i++ {
			m.Store64(arr+i*8, m.Load64(arr+i*8)+1)
		}
		return nil
	})
	if err := e.Run(0, "initarr", txn.NoArgs); err != nil {
		t.Fatal(err)
	}
	s0 := e.Stats().Snapshot()
	if err := e.Run(0, "incrall", txn.NoArgs); err != nil {
		t.Fatal(err)
	}
	d := e.Stats().Snapshot().Sub(s0)
	if d.LogEntries != 512 {
		t.Fatalf("clobber entries = %d, want 512", d.LogEntries)
	}
	// Crash mid-transaction and verify recovery restores + re-executes.
	crashDuring(t, p, func() error {
		return e.Run(0, "incrall", txn.NoArgs)
	}, 900)
	e2 := reopen(t, p)
	e2.Register("incrall", func(m txn.Mem, args *txn.Args) error {
		arr := m.Load64(arrSlot)
		for i := uint64(0); i < 512; i++ {
			m.Store64(arr+i*8, m.Load64(arr+i*8)+1)
		}
		return nil
	})
	rec, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	arr := p.Load64(arrSlot)
	wantDelta := uint64(1 + rec) // first incr + recovered incr (if begun)
	for i := uint64(0); i < 512; i++ {
		if got := p.Load64(arr + i*8); got != i+wantDelta {
			t.Fatalf("slot %d = %d, want %d", i, got, i+wantDelta)
		}
	}
}

// TestTxTooLargeSurfaces ensures log exhaustion panics with ErrTxTooLarge
// (the transaction cannot abort, so this is a deliberate hard failure).
func TestTxTooLargeSurfaces(t *testing.T) {
	p, e := newEngine(t, Options{Options: chassis.Options{DataLogCap: 512}})
	cell := p.RootSlot(3)
	e.Register("huge", func(m txn.Mem, args *txn.Args) error {
		for i := uint64(0); i < 64; i++ {
			v := m.Load64(cell + i*8)
			m.Store64(cell+i*8, v+1) // clobber per word: overflows 512 B log
		}
		return nil
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected ErrTxTooLarge panic")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrTxTooLarge) {
			t.Fatalf("panic = %v", r)
		}
	}()
	_ = e.Run(0, "huge", txn.NoArgs)
}

// TestSlotStatuses inspects persistent slot state before and after recovery.
func TestSlotStatuses(t *testing.T) {
	p, e := newEngine(t, Options{})
	head := p.RootSlot(listHeadSlot)
	registerPush(e, head)
	crashDuring(t, p, func() error {
		return e.Run(1, "push", txn.NewArgs().PutUint64(9))
	}, pushStores(t, 0))

	e2 := reopen(t, p)
	registerPush(e2, head)
	sts := e2.SlotStatuses()
	var ongoing *SlotStatus
	for i := range sts {
		if sts[i].Phase == "ongoing" {
			if ongoing != nil {
				t.Fatal("multiple ongoing slots from a single crash")
			}
			ongoing = &sts[i]
		}
	}
	if ongoing == nil {
		t.Fatal("no ongoing slot visible before recovery")
	}
	if ongoing.Slot != 1 || ongoing.TxFunc != "push" || ongoing.ArgBytes == 0 {
		t.Fatalf("ongoing slot = %+v", *ongoing)
	}

	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, st := range e2.SlotStatuses() {
		if st.Phase != "idle" {
			t.Fatalf("slot %d still %s after recovery", st.Slot, st.Phase)
		}
	}
}

// TestRangeStoreLogsHullOfClobberedInputs pins what a range store costs and
// that it is enough. A txfunc reads words 1, 3 and 5 of a ten-word range and
// then overwrites all ten with one Store: the clobber_log gets ONE entry
// spanning words 1–5 (not the ten words stored, not three entries; words 2
// and 4 ride along), in refined and conservative mode alike, and a crash
// after the store reached media recovers to the committed result — the
// re-execution reads the three restored inputs.
func TestRangeStoreLogsHullOfClobberedInputs(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		p, e := newEngine(t, Options{Conservative: conservative})
		base := p.RootSlot(20) // root slots 20–29: ten contiguous words
		word := func(i int) uint64 { return base + uint64(8*i) }
		var storeOrdinal int64
		register := func(e *Engine) {
			e.Register("fill", func(m txn.Mem, _ *txn.Args) error {
				for i := 0; i < 10; i++ {
					m.Store64(word(i), uint64(100+i))
				}
				return nil
			})
			e.Register("mix", func(m txn.Mem, _ *txn.Args) error {
				sum := m.Load64(word(1)) + m.Load64(word(3)) + m.Load64(word(5))
				img := make([]byte, 80)
				for i := 0; i < 10; i++ {
					binary.LittleEndian.PutUint64(img[8*i:], sum+uint64(i))
				}
				m.Store(base, img)
				storeOrdinal = p.PersistPoints(nvm.CrashAtStore)
				return nil
			})
		}
		register(e)
		run := func(name string) {
			t.Helper()
			if err := e.Run(0, name, txn.NoArgs); err != nil {
				t.Fatal(err)
			}
		}

		// A clean pass measures the entry and the range store's ordinal.
		run("fill")
		before := e.Stats().Snapshot()
		p.ResetPersistPoints()
		run("mix")
		if d := e.Stats().Snapshot().LogEntries - before.LogEntries; d != 1 {
			t.Fatalf("conservative=%v: range store wrote %d clobber entries, want 1", conservative, d)
		}

		// Same transaction again, power lost right after the range store,
		// with every dirty line written back first.
		run("fill")
		p.SetEviction(nvm.EvictAll)
		crashDuring(t, p, func() error { return e.Run(0, "mix", txn.NoArgs) }, storeOrdinal)
		e2 := reopen(t, p)
		register(e2)
		if got := p.Load64(word(9)); got != 309+9 {
			t.Fatalf("the range store did not reach media before the crash: word 9 = %d", got)
		}
		entries, err := e2.Slots()[0].Log.ScanStrict(e2.SlotStatuses()[0].Seq)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("conservative=%v: clobber_log holds %d entries, want 1", conservative, len(entries))
		}
		if en := entries[0]; en.Addr != word(1) || len(en.Data) != 5*8 {
			t.Fatalf("conservative=%v: entry covers [%#x,+%d), want words 1-5 [%#x,+40)",
				conservative, en.Addr, len(en.Data), word(1))
		}
		if n, err := e2.Recover(); err != nil || n != 1 {
			t.Fatalf("Recover = %d, %v; want 1 re-executed transaction", n, err)
		}
		for i := 0; i < 10; i++ {
			if got, want := p.Load64(word(i)), uint64(101+103+105+i); got != want {
				t.Fatalf("conservative=%v: word %d = %d after recovery, want %d", conservative, i, got, want)
			}
		}
	}
}
