package clobber

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// registerTorn registers a two-clobber txfunc; with explode it simulates a
// power loss after both clobber stores, leaving the slot mid-transaction
// with a persisted v_log and two clobber_log entries.
func registerTorn(e *Engine, head uint64, explode bool) {
	e.Register("torn", func(m txn.Mem, args *txn.Args) error {
		v := m.Load64(head)
		m.Store64(head, v+args.Uint64(0)) // clobber entry 1
		w := m.Load64(head + 8)
		m.Store64(head+8, w+1) // clobber entry 2
		if explode {
			panic(fmt.Errorf("injected power loss: %w", nvm.ErrCrash))
		}
		return nil
	})
}

// tornState cuts power mid-transaction with full eviction (so every log
// byte the engine wrote is durable) and returns the pool and slot 0's base
// address for targeted corruption.
func tornState(t *testing.T) (*nvm.Pool, uint64, uint64) {
	t.Helper()
	p := nvm.New(1<<22, nvm.WithEviction(nvm.EvictAll), nvm.WithSeed(1))
	a, err := pmem.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Create(p, a, Options{Options: chassis.Options{Slots: 2, DataLogCap: 1 << 16, FreeLogCap: 64}, ArgsCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	head := p.RootSlot(listHeadSlot)
	p.Store64(head, 5)
	p.Store64(head+8, 6)
	p.Persist(head, 16)
	registerTorn(e, head, true)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("torn txfunc did not crash")
			}
			if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrCrash) {
				panic(r)
			}
		}()
		_ = e.Run(0, "torn", txn.NewArgs().PutUint64(100))
	}()
	p.Crash()
	anchor := p.Load64(p.RootSlot(rootSlot))
	base := p.Load64(anchor + 24)
	argsCap := p.Load64(anchor + 16)
	return p, base, argsCap
}

// reattach reopens the engine stack post-crash with a benign torn txfunc
// (so legitimate re-execution completes instead of re-crashing).
func reattach(t *testing.T, p *nvm.Pool) *Engine {
	t.Helper()
	a, err := pmem.Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Attach(p, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	registerTorn(e, p.RootSlot(listHeadSlot), false)
	registerPush(e, p.RootSlot(listHeadSlot))
	return e
}

// flip durably inverts one byte.
func flip(p *nvm.Pool, addr uint64) {
	var b [1]byte
	p.Load(addr, b[:])
	p.Store(addr, []byte{b[0] ^ 0xff})
	p.Persist(addr, 1)
}

func expectQuarantine(t *testing.T, e *Engine, what string) {
	t.Helper()
	rep, err := e.RecoverReport()
	if err != nil {
		t.Fatalf("%s: RecoverReport returned hard error: %v", what, err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("%s: quarantined = %d, want 1 (report %+v)", what, rep.Quarantined, rep)
	}
	if len(rep.Errors) != 1 || !errors.Is(rep.Errors[0], txn.ErrCorruptLog) {
		t.Fatalf("%s: errors = %v, want one ErrCorruptLog", what, rep.Errors)
	}
	if rep.Recovered != 0 {
		t.Fatalf("%s: recovered = %d from a corrupt slot", what, rep.Recovered)
	}
	// The poisoned slot refuses transactions ...
	if err := e.Run(0, "push", txn.NewArgs().PutUint64(1)); !errors.Is(err, txn.ErrSlotQuarantined) {
		t.Fatalf("%s: Run on quarantined slot = %v, want ErrSlotQuarantined", what, err)
	}
	// ... while healthy slots keep working.
	if err := e.Run(1, "push", txn.NewArgs().PutUint64(2)); err != nil {
		t.Fatalf("%s: Run on healthy slot: %v", what, err)
	}
	if e.Stats().Snapshot().Quarantined != 1 {
		t.Fatalf("%s: stats.Quarantined = %d, want 1", what, e.Stats().Snapshot().Quarantined)
	}
}

func TestRecoveryQuarantinesCorruptVLogArgs(t *testing.T) {
	p, base, _ := tornState(t)
	flip(p, base+offArgs) // first byte of the encoded v_log arguments
	expectQuarantine(t, reattach(t, p), "vlog args")
}

func TestRecoveryQuarantinesCorruptVLogChecksum(t *testing.T) {
	p, base, _ := tornState(t)
	flip(p, base+offVLogChecksum)
	expectQuarantine(t, reattach(t, p), "vlog checksum")
}

func TestRecoveryQuarantinesTornClobberLog(t *testing.T) {
	p, base, argsCap := tornState(t)
	head := p.RootSlot(listHeadSlot)
	headAtCrash := p.Load64(head) // in-place value the crash left behind

	// First clobber_log entry: [hdr 24][payload 8][crc 8] starting at the
	// data log's entry area. Corrupting its payload while the second entry
	// stays valid is exactly the valid-beyond-torn pattern ScanStrict
	// rejects on a fence-ordered log.
	dlogBase := base + align8(offArgs+argsCap)
	flip(p, dlogBase+16+24)

	e := reattach(t, p)
	if _, err := e.RecoverReport(); err != nil {
		t.Fatal(err)
	}
	// Quarantine must happen before ANY input restore: a partial undo of
	// the clobber log would tear the very state it claims to repair.
	if got := p.Load64(head); got != headAtCrash {
		t.Fatalf("quarantined recovery modified user data: head = %d, want %d", got, headAtCrash)
	}
	// RecoverReport is idempotent; the full quarantine contract holds on
	// re-inspection.
	expectQuarantine(t, e, "clobber log")
}

func TestRecoveryTreatsTornBeginAsIdle(t *testing.T) {
	// A crash between the v_log write and its fence can tear the v_log
	// itself; with no clobber_log entries for the sequence this is a torn
	// begin (the transaction provably made no stores), not corruption.
	p := nvm.New(1<<22, nvm.WithEviction(nvm.EvictAll), nvm.WithSeed(1))
	a, err := pmem.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Create(p, a, Options{Options: chassis.Options{Slots: 2, DataLogCap: 1 << 16, FreeLogCap: 64}, ArgsCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	e.Register("stall", func(m txn.Mem, args *txn.Args) error {
		panic(fmt.Errorf("injected power loss: %w", nvm.ErrCrash))
	})
	func() {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrCrash) {
					panic(r)
				}
			}
		}()
		_ = e.Run(0, "stall", txn.NewArgs().PutUint64(9))
	}()
	p.Crash()
	anchor := p.Load64(p.RootSlot(rootSlot))
	base := p.Load64(anchor + 24)
	flip(p, base+offArgs) // tear the v_log of the store-less transaction

	e2 := reattach(t, p)
	rep, err := e2.RecoverReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("torn begin quarantined: %+v", rep)
	}
	if err := e2.Run(0, "push", txn.NewArgs().PutUint64(3)); err != nil {
		t.Fatalf("slot unusable after torn begin: %v", err)
	}
}

// TestRecoverNeverPanicsOnGarbage splats random bytes over the slot region
// and requires the whole attach+recover path to fail softly: typed errors
// or quarantines, never a panic — the "arbitrary log bytes" acceptance bar.
func TestRecoverNeverPanicsOnGarbage(t *testing.T) {
	p, base, argsCap := tornState(t)
	img := p.Snapshot()
	span := align8(offArgs+argsCap) + 1<<14 // header + v_log + clobber_log prefix
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := p.Restore(img); err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 1+rng.Intn(64))
		rng.Read(junk)
		at := base + uint64(rng.Intn(int(span-uint64(len(junk)))))
		p.Store(at, junk)
		p.Persist(at, uint64(len(junk)))

		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: recovery panicked on garbage at %#x: %v", seed, at, r)
				}
			}()
			a, err := pmem.Attach(p)
			if err != nil {
				return // soft failure is acceptable
			}
			e, err := Attach(p, a, Options{})
			if err != nil {
				return
			}
			registerTorn(e, p.RootSlot(listHeadSlot), false)
			_, _ = e.RecoverReport()
		}()
	}
}
