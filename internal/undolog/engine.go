// Package undolog implements a PMDK-v1.6-style failure-atomicity engine:
// hybrid undo logging for data (every first store to a location snapshots the
// old value, with a flush+fence per log entry) and redo-style allocation,
// mirroring libpmemobj's hybrid transactions (PMDK PR #2716). It is the
// primary industrial baseline of the paper ("PMDK" in every figure).
//
// The engine runs on the same chassis as the clobber engine (package
// chassis: slots, data log, allocator protocol, recovery loop), exactly as
// the paper's clobber_log is built over PMDK's undo-log API and both call the
// same libpmemobj allocator — so measured differences between the two come
// only from *what* they log and how they recover, not from implementation
// quality.
//
// What gets logged: every store to a not-yet-logged location, including
// stores that initialize freshly allocated objects. This matches the PMDK
// programming idiom the paper benchmarks against (Figure 2(b) TX_ADDs the
// fields of the brand-new node before writing them), and is what makes PMDK
// log 1.1x–42.6x more bytes than clobber logging. Begin persists the ongoing
// status word; an abort, and the recovery of an interrupted transaction,
// restore the logged values in reverse order (the traditional undo recovery,
// in contrast to clobber's re-execution).
package undolog

import (
	"fmt"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

const (
	anchorMagic = 0x554e444f // "UNDO"
	hdrSize     = 64

	// rootSlot is the pool root slot anchoring this engine.
	rootSlot = 3
)

// Options configures engine creation.
type Options = chassis.Options

// ErrTxTooLarge reports per-transaction log exhaustion.
var ErrTxTooLarge = chassis.ErrTxTooLarge

// Engine is the PMDK-style undo-logging engine.
type Engine struct{ *chassis.Chassis }

var spec = chassis.Spec{
	Name: "pmdk", Pkg: "undolog", Root: rootSlot, Magic: anchorMagic, Header: hdrSize,
	NewMem: newMem, Recover: recoverSlot,
}

// Create formats a fresh engine on the pool (anchor in root slot 3).
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	c, err := chassis.Create(p, a, opts, spec, nil)
	if err != nil {
		return nil, err
	}
	return &Engine{c}, nil
}

// Attach opens a previously created engine.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	c, _, err := chassis.Attach(p, a, spec)
	if err != nil {
		return nil, err
	}
	return &Engine{c}, nil
}

// recoverSlot rolls an interrupted transaction back. Undo entries are fenced
// per append, so the log is strict-scanned: corruption quarantines the slot
// instead of replaying garbage old values.
func recoverSlot(s *chassis.Slot, seq, phase uint64) (chassis.Outcome, error) {
	switch phase {
	case chassis.PhaseIdle:
		return chassis.Idle, nil
	case chassis.PhaseOngoing:
		entries, err := s.Log.ScanStrict(seq)
		if err != nil {
			return s.Quarantine(fmt.Errorf("undo log: %w", err))
		}
		return s.Rollback(entries), nil
	}
	return s.Corrupt("undefined phase %d", phase)
}

// mem is the undo-logging transactional memory view.
type mem struct {
	s   *chassis.Slot
	p   *nvm.Pool
	t   *chassis.Lines
	seq uint64
}

func newMem(s *chassis.Slot, seq uint64) chassis.Mem {
	return &mem{s: s, p: s.Pool(), t: &s.Lines, seq: seq}
}

// Begin persists the ongoing marker so recovery knows to roll back.
func (m *mem) Begin(string, *txn.Args) error {
	m.s.SetStatus(m.seq, chassis.PhaseOngoing)
	return nil
}

// Abort rolls the transaction back in place: undo logging supports true
// aborts.
func (m *mem) Abort(err error) error {
	m.s.Rollback(m.s.Log.Scan(m.seq))
	return err
}

// Commit invalidates the log with the idle status.
func (m *mem) Commit() { m.s.Commit(true) }

func (m *mem) Load(addr uint64, buf []byte) { m.p.Load(addr, buf) }
func (m *mem) Load64(addr uint64) uint64    { return m.p.Load64(addr) }

func (m *mem) Store(addr uint64, data []byte) {
	m.preStore(addr, uint64(len(data)))
	m.p.Store(addr, data)
}

func (m *mem) Store64(addr uint64, v uint64) {
	m.preStore(addr, 8)
	m.p.Store64(addr, v)
}

// preStore undo-logs the old value of any not-yet-logged word the store
// covers — the classic "log before write" discipline with its per-entry
// flush+fence, applied to every store (not only clobber writes).
func (m *mem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	need := false
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		w := chassis.Words(l, u1, u2)
		if w&^(m.t.MarkStored(l, w)>>chassis.LoggedShift) != 0 {
			need = true
		}
	}
	if need {
		m.s.LogUndo(addr, n, obs.KindLogAppend)
		for l := u1 >> 3; l <= u2>>3; l++ {
			m.t.MarkLogged(l, chassis.Words(l, u1, u2))
		}
	}
}

func (m *mem) Alloc(size uint64) (txn.Addr, error) { return m.s.Alloc(size) }
func (m *mem) Free(addr txn.Addr) error            { return m.s.Free(addr) }
