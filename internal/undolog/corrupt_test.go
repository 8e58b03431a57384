package undolog

import (
	"errors"
	"fmt"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// TestRecoveryQuarantinesTruncatedUndoLog cuts power mid-transaction with
// two undo entries persisted, then destroys the first entry in place (the
// torn-write shape a real truncation leaves: a later valid entry after a
// mangled earlier one). Recovery must quarantine the slot with
// ErrCorruptLog, roll back NOTHING (a partial undo tears data), and keep
// the other slot usable.
func TestRecoveryQuarantinesTruncatedUndoLog(t *testing.T) {
	p := nvm.New(1<<22, nvm.WithEviction(nvm.EvictAll), nvm.WithSeed(1))
	a, err := pmem.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Create(p, a, Options{Slots: 2, DataLogCap: 1 << 16, FreeLogCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	cellA, cellB := p.RootSlot(10), p.RootSlot(12)
	p.Store64(cellA, 5)
	p.Store64(cellB, 6)
	p.Persist(cellA, 8)
	p.Persist(cellB, 8)
	e.Register("wreck", func(m txn.Mem, args *txn.Args) error {
		m.Store64(cellA, 500) // undo entry 1
		m.Store64(cellB, 600) // undo entry 2
		panic(fmt.Errorf("injected power loss: %w", nvm.ErrCrash))
	})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("wreck txfunc did not crash")
			}
			if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrCrash) {
				panic(r)
			}
		}()
		_ = e.Run(0, "wreck", txn.NoArgs)
	}()
	p.Crash()

	// Undo log of slot 0: entries start after the 64-byte slot header and
	// the 16-byte log header; entry 1 is [hdr 24][payload 8][crc 8]. Zero
	// its payload and checksum — a truncation-shaped hole before a valid
	// second entry.
	anchor := p.Load64(p.RootSlot(rootSlot))
	base := p.Load64(anchor + 16)
	entry1 := base + hdrSize + 16
	p.Store(entry1+24, make([]byte, 16))
	p.Persist(entry1+24, 16)

	a2, err := pmem.Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Attach(p, a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2.Register("wreck", func(m txn.Mem, args *txn.Args) error { return nil })
	rep, err := e2.RecoverReport()
	if err != nil {
		t.Fatalf("RecoverReport returned hard error: %v", err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (report %+v)", rep.Quarantined, rep)
	}
	if len(rep.Errors) != 1 || !errors.Is(rep.Errors[0], txn.ErrCorruptLog) {
		t.Fatalf("errors = %v, want one ErrCorruptLog", rep.Errors)
	}
	if rep.RolledBack != 0 {
		t.Fatalf("rolled back %d transactions from a corrupt log", rep.RolledBack)
	}
	// No partial rollback: the in-place values the crash left stay put.
	if got := p.Load64(cellA); got != 500 {
		t.Fatalf("cellA = %d after quarantine, want untouched 500", got)
	}
	if got := p.Load64(cellB); got != 600 {
		t.Fatalf("cellB = %d after quarantine, want untouched 600", got)
	}
	if err := e2.Run(0, "wreck", txn.NoArgs); !errors.Is(err, txn.ErrSlotQuarantined) {
		t.Fatalf("Run on quarantined slot = %v, want ErrSlotQuarantined", err)
	}
	if err := e2.Run(1, "wreck", txn.NoArgs); err != nil {
		t.Fatalf("healthy slot: %v", err)
	}
}
