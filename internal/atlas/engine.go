// Package atlas implements an Atlas-style (HP, OOPSLA '14) failure-atomicity
// engine: undo logging with lock-inferred failure-atomic sections (FASEs)
// and cross-FASE dependency tracking.
//
// Atlas permits arbitrary locking inside FASEs; the price is that it cannot
// know at commit whether a FASE's effects are safe to declare durable — a
// later-crashing FASE holding a dependent lock might force rollback of
// completed FASEs. It therefore (a) logs every store (log elision is unsound
// without a global consistency analysis), (b) appends every FASE completion
// to a global dependency log, and (c) periodically computes a consistent
// snapshot over that log to prune it ("helper thread" work). Those three
// costs — per-store log entries with fences, a globally serialized
// dependency append, and periodic snapshot scans — are the runtime overheads
// the paper measures as Atlas's 4.3x average deficit against Clobber-NVM.
//
// In this reproduction Run corresponds to one FASE (its boundaries inferred
// from the caller's lock acquire/release around Run, per our locking
// contract), the dependency log is a persistent ring whose base the anchor
// keeps, and the snapshot scan runs inline every SnapshotInterval commits.
// Everything else — slots, begin status, rollback, allocation — is the
// chassis's (package chassis), exactly as in the PMDK-style engine.
package atlas

import (
	"fmt"
	"sync"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

const (
	anchorMagic = 0x41544c41 // "ATLA"
	hdrSize     = 64

	// rootSlot is the pool root slot anchoring this engine.
	rootSlot = 5

	// ringEntries is the dependency-log ring capacity.
	ringEntries = 4096
	ringEntrySz = 24 // slot(8) seq(8) epoch(8)

	// SnapshotInterval is how many FASE commits elapse between consistent
	// snapshot computations (the helper-thread pruning work).
	SnapshotInterval = 64
)

// Options configures engine creation.
type Options = chassis.Options

// ErrTxTooLarge reports per-transaction log exhaustion.
var ErrTxTooLarge = chassis.ErrTxTooLarge

// Engine is the Atlas-style engine.
type Engine struct {
	*chassis.Chassis

	// Global dependency tracking state.
	depMu    sync.Mutex
	ringBase uint64
	ringIdx  uint64
	epoch    uint64
	commits  uint64
}

func (e *Engine) spec() chassis.Spec {
	return chassis.Spec{
		Name: "atlas", Pkg: "atlas", Root: rootSlot, Magic: anchorMagic, Words: 1, Header: hdrSize,
		NewMem: e.newMem, Recover: recoverSlot,
	}
}

// Create formats a fresh engine on the pool (anchor in root slot 5): the
// anchor, then the dependency ring, then the slots.
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	e := &Engine{}
	c, err := chassis.Create(p, a, opts, e.spec(), func() ([]uint64, error) {
		ring, err := a.Alloc(0, ringEntries*ringEntrySz)
		if err != nil {
			return nil, fmt.Errorf("atlas: create dependency ring: %w", err)
		}
		e.ringBase = ring
		return []uint64{ring}, nil
	})
	if err != nil {
		return nil, err
	}
	e.Chassis = c
	return e, nil
}

// Attach opens a previously created engine.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	e := &Engine{}
	c, words, err := chassis.Attach(p, a, e.spec())
	if err != nil {
		return nil, err
	}
	e.Chassis, e.ringBase = c, words[0]
	return e, nil
}

// recordDependency appends the FASE's completion record to the global
// dependency log and periodically computes the consistent snapshot — the
// globally serialized bookkeeping that dominates Atlas's runtime cost.
func (e *Engine) recordDependency(s *chassis.Slot) {
	e.depMu.Lock()
	defer e.depMu.Unlock()
	p := e.Pool()
	e.epoch++
	at := e.ringBase + (e.ringIdx%ringEntries)*ringEntrySz
	p.Store64(at, uint64(s.ID))
	p.Store64(at+8, s.Seq)
	p.Store64(at+16, e.epoch)
	p.CommitPersist(at, ringEntrySz)
	e.ringIdx++
	e.commits++
	if e.commits%SnapshotInterval == 0 {
		e.snapshotScan()
	}
}

// snapshotScan models the helper thread's consistent-snapshot computation:
// a full read pass over the dependency ring followed by a fence that
// publishes the new snapshot boundary.
func (e *Engine) snapshotScan() {
	p := e.Pool()
	var sink uint64
	limit := e.ringIdx
	if limit > ringEntries {
		limit = ringEntries
	}
	for i := uint64(0); i < limit; i++ {
		at := e.ringBase + i*ringEntrySz
		sink ^= p.Load64(at) ^ p.Load64(at+8) ^ p.Load64(at+16)
	}
	_ = sink
	p.Fence()
}

// recoverSlot rolls an uncommitted FASE back. Atlas fences every undo
// append before the corresponding store, so the log is fence-ordered at
// recovery and the strict scan's valid-after-invalid corruption test is
// sound.
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

// mem is Atlas's transactional view: per-store undo logging without elision.
type mem struct {
	e   *Engine
	s   *chassis.Slot
	p   *nvm.Pool
	seq uint64
}

func (e *Engine) newMem(s *chassis.Slot, seq uint64) chassis.Mem {
	return &mem{e: e, s: s, p: e.Pool(), seq: seq}
}

// Begin persists the ongoing marker.
func (m *mem) Begin(string, *txn.Args) error {
	m.s.SetStatus(m.seq, chassis.PhaseOngoing)
	return nil
}

// Abort rolls the FASE back in place.
func (m *mem) Abort(err error) error {
	m.s.Rollback(m.s.Log.Scan(m.seq))
	return err
}

// Commit commits like the PMDK-style engine, then records the FASE's
// dependency.
func (m *mem) Commit() {
	m.s.Commit(true)
	m.e.recordDependency(m.s)
}

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

// preStore logs every store: without a whole-program dependency analysis,
// Atlas cannot elide a log entry even for a location it logged moments ago
// (a dependent FASE on another thread may have observed the intermediate
// value).
func (m *mem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	m.s.LogUndo([]txn.Range{{Addr: addr, Len: n}}, obs.KindLogAppend)
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		m.s.Lines.MarkStored(l, chassis.Words(l, u1, u2))
	}
}

func (m *mem) Alloc(size uint64) (txn.Addr, error) { return m.s.Alloc(size) }
func (m *mem) Free(addr txn.Addr) error            { return m.s.Free(addr) }

// WillStore implements txn.Mem: Atlas logs every store as it runs.
func (m *mem) WillStore([]txn.Range) {}
