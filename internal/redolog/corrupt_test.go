package redolog

import (
	"errors"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// TestRecoveryQuarantinesCorruptRedoLog forges the worst redo-log failure:
// a committed transaction (phaseApplying marker durable) whose log was
// corrupted before replay finished. Recovery must quarantine the slot with
// ErrCorruptLog and replay NOTHING — applying the surviving suffix of a
// corrupt redo log would tear the committed state it claims to complete.
func TestRecoveryQuarantinesCorruptRedoLog(t *testing.T) {
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
	e.Register("blast", func(m txn.Mem, args *txn.Args) error {
		m.Store64(cellA, 111) // redo entry 1
		m.Store64(cellB, 222) // redo entry 2
		return nil
	})
	if err := e.Run(0, "blast", txn.NoArgs); err != nil {
		t.Fatal(err)
	}

	// Rewind the status word to phaseApplying — the state a crash between
	// the commit marker and the idle marker leaves — then corrupt the
	// first redo entry while the second stays valid.
	anchor := p.Load64(p.RootSlot(rootSlot))
	base := p.Load64(anchor + 16)
	seq := p.Load64(base+offStatus) >> 2
	p.Store64(base+offStatus, seq<<2|phaseApplying)
	p.Persist(base+offStatus, 8)
	entry1 := base + hdrSize + 16
	var b [1]byte
	p.Load(entry1+24, b[:])
	p.Store(entry1+24, []byte{b[0] ^ 0xff})
	p.Persist(entry1+24, 1)

	// Sentinels: if recovery replays any surviving entry despite the
	// corruption, these get clobbered back to 111/222.
	p.Store64(cellA, 7777)
	p.Store64(cellB, 8888)
	p.Persist(cellA, 8)
	p.Persist(cellB, 8)
	p.Crash()

	a2, err := pmem.Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Attach(p, a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2.Register("blast", func(m txn.Mem, args *txn.Args) error { return nil })
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
	if rep.RolledForward != 0 {
		t.Fatalf("rolled forward %d transactions from a corrupt log", rep.RolledForward)
	}
	// No partial replay: the sentinels survive.
	if got := p.Load64(cellA); got != 7777 {
		t.Fatalf("cellA = %d, want sentinel 7777 (partial replay!)", got)
	}
	if got := p.Load64(cellB); got != 8888 {
		t.Fatalf("cellB = %d, want sentinel 8888 (partial replay!)", got)
	}
	if err := e2.Run(0, "blast", txn.NoArgs); !errors.Is(err, txn.ErrSlotQuarantined) {
		t.Fatalf("Run on quarantined slot = %v, want ErrSlotQuarantined", err)
	}
	if err := e2.Run(1, "blast", txn.NoArgs); err != nil {
		t.Fatalf("healthy slot: %v", err)
	}
}
