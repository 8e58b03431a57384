// Package undolog implements a PMDK-v1.6-style failure-atomicity engine:
// hybrid undo logging for data (every first store to a location snapshots the
// old value, with a flush+fence per log entry) and redo-style allocation,
// mirroring libpmemobj's hybrid transactions (PMDK PR #2716). It is the
// primary industrial baseline of the paper ("PMDK" in every figure).
//
// The engine shares the log subsystem (package plog) and the allocator
// protocol (pmem.Tx) with the clobber engine, exactly as the paper's
// clobber_log is built over PMDK's undo-log API and both call the same
// libpmemobj allocator — so measured differences between the two come only
// from *what* they log and how they recover, not from implementation quality.
//
// Allocation has no log here. Alloc reserves from the allocator's volatile
// mirror of the slot's arena and Free only queues; commit publishes one
// allocator redo record ahead of the commit fence, conditioned on this slot's
// status word, and applies it after the idle status is durable. A rolled-back
// transaction never touched the persistent heap, so neither abort nor
// recovery has anything to reclaim (see package pmem).
//
// What gets logged: every store to a not-yet-logged location, including
// stores that initialize freshly allocated objects. This matches the PMDK
// programming idiom the paper benchmarks against (Figure 2(b) TX_ADDs the
// fields of the brand-new node before writing them), and is what makes PMDK
// log 1.1x–42.6x more bytes than clobber logging.
package undolog

import (
	"errors"
	"fmt"
	"sync"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

const (
	// phaseIdle is the committed state of the slot's last transaction, and
	// phaseOngoing (1) the one phase pmem's commit condition reads as "not
	// committed".
	phaseIdle    = 0
	phaseOngoing = 1

	anchorMagic = 0x554e444f // "UNDO"

	offStatus = 0
	hdrSize   = 64
)

// rootSlot is the pool root slot anchoring this engine.
const rootSlot = 3

// Options configures engine creation.
type Options struct {
	Slots      int
	DataLogCap uint64
	// FreeLogCap bounds the frees of one transaction (default 4096): it
	// sizes the slot's allocator redo record.
	FreeLogCap int
	// LineLog formats the data log with the write-combined line writer
	// (see plog.FormatDataLogLine). Attach detects the mode from the log
	// magic, so only Create needs the flag.
	LineLog bool
}

func (o *Options) fill() {
	if o.Slots <= 0 || o.Slots > txn.MaxSlots {
		o.Slots = txn.MaxSlots
	}
	if o.DataLogCap == 0 {
		o.DataLogCap = 1 << 20
	}
	if o.FreeLogCap == 0 {
		o.FreeLogCap = 4096
	}
}

// ErrTxTooLarge reports per-transaction log exhaustion.
var ErrTxTooLarge = errors.New("undolog: transaction exceeds log capacity")

// Engine is the PMDK-style undo-logging engine.
type Engine struct {
	pool  *nvm.Pool
	alloc *pmem.Allocator
	reg   txn.Registry
	stats txn.Stats
	opts  Options
	slots []*slot
	probe *obs.Probe
}

var (
	_ txn.Engine           = (*Engine)(nil)
	_ txn.RecoveryReporter = (*Engine)(nil)
)

type slot struct {
	mu   sync.Mutex
	id   int
	hdr  uint64
	dlog *plog.DataLog
	tx   *pmem.Tx // the slot's arena: reservations of the running transaction
	seq  uint64

	// ltab is the per-slot undo-log tracking table, reused across
	// transactions (the slot lock covers the whole Run).
	ltab *lineTable
	// old stages an undo entry's pre-store bytes.
	old []byte

	// quarantined records why attach/recovery set this slot aside.
	quarantined error
}

// Create formats a fresh engine on the pool (anchor in root slot 3).
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.fill()
	e := &Engine{pool: p, alloc: a, opts: opts}
	e.probe = obs.NewProbe(e.Name())

	anchorSize := uint64(16 + opts.Slots*8)
	anchor, err := a.Alloc(0, anchorSize)
	if err != nil {
		return nil, fmt.Errorf("undolog: create anchor: %w", err)
	}
	p.Store64(anchor, anchorMagic)
	p.Store64(anchor+8, uint64(opts.Slots))

	slotSize := hdrSize + plog.DataLogSize(opts.DataLogCap)

	for i := 0; i < opts.Slots; i++ {
		base, err := a.Alloc(i, slotSize)
		if err != nil {
			return nil, fmt.Errorf("undolog: create slot %d: %w", i, err)
		}
		p.Store(base, make([]byte, hdrSize))
		p.Persist(base, hdrSize)
		s := &slot{
			id:   i,
			hdr:  base,
			dlog: plog.FormatDataLogMode(p, i, base+hdrSize, opts.DataLogCap, opts.LineLog),
			tx:   a.Tx(i),
		}
		if err := s.tx.Bind(base+offStatus, opts.FreeLogCap); err != nil {
			return nil, fmt.Errorf("undolog: create slot %d: %w", i, err)
		}
		e.slots = append(e.slots, s)
		p.Store64(anchor+16+uint64(i)*8, base)
	}
	p.Persist(anchor, anchorSize)
	p.Store64(p.RootSlot(rootSlot), anchor)
	p.Persist(p.RootSlot(rootSlot), 8)
	return e, nil
}

// Attach opens a previously created engine. Per-slot log corruption
// quarantines the slot instead of failing the attach; only a damaged anchor
// is fatal.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.fill()
	anchor := p.Load64(p.RootSlot(rootSlot))
	if anchor == 0 || anchor+16 > p.Size() || p.Load64(anchor) != anchorMagic {
		return nil, errors.New("undolog: pool has no undo engine")
	}
	n := int(p.Load64(anchor + 8))
	if n <= 0 || n > txn.MaxSlots {
		return nil, fmt.Errorf("undolog: corrupt anchor: %d slots", n)
	}
	if anchor+16+uint64(n)*8 > p.Size() {
		return nil, errors.New("undolog: corrupt anchor: slot table outside pool")
	}
	opts.Slots = n
	e := &Engine{pool: p, alloc: a, opts: opts}
	e.probe = obs.NewProbe(e.Name())
	for i := 0; i < n; i++ {
		base := p.Load64(anchor + 16 + uint64(i)*8)
		s := &slot{id: i, hdr: base, tx: a.Tx(i)}
		e.slots = append(e.slots, s)
		dlog, err := plog.AttachDataLog(p, i, base+hdrSize)
		if err != nil {
			e.quarantine(s, fmt.Errorf("undolog: slot %d: %w", i, err))
			continue
		}
		s.dlog = dlog
		s.seq = p.Load64(base+offStatus) >> 2
	}
	return e, nil
}

// quarantine sets a slot aside with the given cause (first cause wins).
func (e *Engine) quarantine(s *slot, err error) {
	if s.quarantined == nil {
		s.quarantined = err
		e.stats.Quarantined.Add(1)
	}
}

// Name implements txn.Engine.
func (e *Engine) Name() string { return "pmdk" }

// Register implements txn.Engine.
func (e *Engine) Register(name string, fn txn.TxFunc) { e.reg.Register(name, fn) }

// Stats implements txn.Engine.
func (e *Engine) Stats() *txn.Stats { return &e.stats }

// Pool returns the engine's pool.
func (e *Engine) Pool() *nvm.Pool { return e.pool }

// Allocator returns the engine's allocator.
func (e *Engine) Allocator() *pmem.Allocator { return e.alloc }

// Run implements txn.Engine.
func (e *Engine) Run(slotID int, name string, args *txn.Args) error {
	fn, err := e.reg.Lookup(name)
	if err != nil {
		return err
	}
	if err := txn.CheckSlot(slotID); err != nil || slotID >= len(e.slots) {
		return fmt.Errorf("%w: %d", txn.ErrBadSlot, slotID)
	}
	s := e.slots[slotID]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined != nil {
		return fmt.Errorf("%w: undolog slot %d: %v", txn.ErrSlotQuarantined, s.id, s.quarantined)
	}

	if args == nil {
		args = txn.NoArgs
	}
	sp := e.probe.Start(s.id, name)
	seq := s.seq + 1
	p := e.pool

	// Begin: persist the ongoing marker so recovery knows to roll back.
	e.setStatus(s, seq, phaseOngoing)
	sp.BeginDone(seq)
	s.seq = seq
	s.dlog.Reset()

	if s.ltab == nil {
		s.ltab = newLineTable()
	} else {
		s.ltab.reset()
	}
	m := &mem{e: e, s: s, seq: seq, t: s.ltab}
	// Whatever way the txfunc leaves without committing — error, panic,
	// simulated crash — its reservations are dropped and the arena released.
	defer s.tx.Abort()
	if err := fn(m, args); err != nil {
		// Undo logging supports true aborts: roll back in place.
		e.rollback(s, seq)
		sp.Aborted()
		return err
	}
	sp.ExecDone()

	// Commit: outputs and the allocator record durable under one fence, then
	// the idle status, which invalidates the log and commits the record, then
	// the record's apply, unfenced — the next begin's fence retires it, as
	// this one's retired the last.
	p.FlushOptLines(m.t.dirty)
	s.tx.Retired()
	s.tx.Publish(seq)
	p.CommitFence()
	sp.FlushFence(len(m.t.dirty))
	e.setStatus(s, seq, phaseIdle)
	s.tx.Apply()
	e.stats.Committed.Add(1)
	sp.Committed(false)
	return nil
}

func (e *Engine) setStatus(s *slot, seq, phase uint64) {
	e.pool.Store64(s.hdr+offStatus, seq<<2|phase)
	e.pool.CommitPersist(s.hdr+offStatus, 8)
}

// rollback restores all undo-logged values in reverse order and marks the
// slot idle. The transaction's allocations and frees were only reserved, so
// the heap has nothing to undo.
func (e *Engine) rollback(s *slot, seq uint64) {
	e.rollbackEntries(s, seq, s.dlog.Scan(seq))
}

func (e *Engine) rollbackEntries(s *slot, seq uint64, entries []plog.Entry) {
	p := e.pool
	for i := len(entries) - 1; i >= 0; i-- {
		p.Store(entries[i].Addr, entries[i].Data)
		p.FlushOpt(entries[i].Addr, uint64(len(entries[i].Data)))
	}
	if len(entries) > 0 {
		p.Fence()
	}
	e.setStatus(s, seq, phaseIdle)
}

// RunRO implements txn.Engine: undo systems read directly (no interposition).
func (e *Engine) RunRO(slotID int, fn txn.ROFunc) error {
	if err := txn.CheckSlot(slotID); err != nil {
		return err
	}
	return fn(roMem{e.pool})
}

// Recover implements txn.Engine: interrupted transactions roll back (the
// traditional undo recovery, in contrast to clobber's re-execution).
func (e *Engine) Recover() (int, error) {
	rep, err := e.RecoverReport()
	return rep.Recovered, err
}

// RecoverReport implements txn.RecoveryReporter. Undo entries are fenced per
// append, so the log is strict-scanned: corruption quarantines the slot (its
// persistent state kept for forensics, Run returning txn.ErrSlotQuarantined)
// instead of replaying garbage old values or panicking. The heap needs no
// step: pmem.Attach has already settled every arena by its redo record,
// discarding a rolled-back transaction's and completing a committed one's.
func (e *Engine) RecoverReport() (txn.RecoveryReport, error) {
	var rep txn.RecoveryReport
	rep.Slots = len(e.slots)
	for _, s := range e.slots {
		e.recoverSlot(s, &rep)
	}
	for _, s := range e.slots {
		if s.quarantined != nil {
			rep.Quarantined++
			rep.Errors = append(rep.Errors, s.quarantined)
		}
	}
	return rep, nil
}

func (e *Engine) recoverSlot(s *slot, rep *txn.RecoveryReport) {
	defer func() {
		if r := recover(); r != nil {
			// Simulated crash injections propagate to the harness; any
			// other panic on a slot's recovery path means damaged state.
			if err, ok := r.(error); ok && errors.Is(err, nvm.ErrCrash) {
				panic(r)
			}
			e.quarantine(s, fmt.Errorf("%w: undolog slot %d: recovery panic: %v", txn.ErrCorruptLog, s.id, r))
		}
	}()
	if s.quarantined != nil {
		return
	}
	p := e.pool
	status := p.Load64(s.hdr + offStatus)
	seq, phase := status>>2, status&3
	s.seq = seq
	switch phase {
	case phaseIdle:
	case phaseOngoing:
		entries, err := s.dlog.ScanStrict(seq)
		if err != nil {
			e.quarantine(s, fmt.Errorf("undolog: slot %d: undo log: %w", s.id, err))
			return
		}
		for _, en := range entries {
			if end := en.Addr + uint64(len(en.Data)); end > p.Size() || end < en.Addr {
				e.quarantine(s, fmt.Errorf("%w: undolog slot %d: log entry addresses [%#x,%#x) outside pool",
					txn.ErrCorruptLog, s.id, en.Addr, end))
				return
			}
		}
		e.rollbackEntries(s, seq, entries)
		e.stats.Recovered.Add(1)
		e.probe.RecoveryEvent(s.id, seq, "")
		rep.Recovered++
		rep.RolledBack++
	default:
		e.quarantine(s, fmt.Errorf("%w: undolog slot %d: undefined phase %d", txn.ErrCorruptLog, s.id, phase))
	}
}

// mem is the undo-logging transactional memory view.
type mem struct {
	e   *Engine
	s   *slot
	seq uint64

	t *lineTable // per-line logged-word + dirty tracking
}

var _ txn.Mem = (*mem)(nil)

func (m *mem) Load(addr uint64, buf []byte) { m.e.pool.Load(addr, buf) }
func (m *mem) Load64(addr uint64) uint64    { return m.e.pool.Load64(addr) }

func (m *mem) Store(addr uint64, data []byte) {
	m.preStore(addr, uint64(len(data)))
	m.e.pool.Store(addr, data)
}

func (m *mem) Store64(addr uint64, v uint64) {
	m.preStore(addr, 8)
	m.e.pool.Store64(addr, v)
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
		if lineWords(l, u1, u2)&^m.t.touch(l) != 0 {
			need = true
		}
	}
	if need {
		if uint64(cap(m.s.old)) < n {
			m.s.old = make([]byte, n, 2*n)
		}
		old := m.s.old[:n]
		m.e.pool.Load(addr, old)
		// Fence through CommitFence: the undo entry is still durable
		// before the protected store runs (CommitFence blocks), but the
		// fence itself can be amortized across concurrent transactions.
		nbytes, err := m.s.dlog.Append(m.seq, addr, old, plog.AppendOptions{NoFence: true})
		if err != nil {
			panic(fmt.Errorf("%w: %v", ErrTxTooLarge, err))
		}
		m.e.pool.CommitFence()
		m.e.stats.LogEntries.Add(1)
		m.e.stats.LogBytes.Add(int64(nbytes))
		m.e.probe.LogAppend(obs.KindLogAppend, m.s.id, m.seq, nbytes)
		for l := u1 >> 3; l <= u2>>3; l++ {
			m.t.markLogged(l, lineWords(l, u1, u2))
		}
	}
}

// Alloc reserves in the slot's arena; the block is persistent only once the
// transaction commits.
func (m *mem) Alloc(size uint64) (txn.Addr, error) {
	addr, err := m.s.tx.Alloc(size)
	return addr, tooLarge(err)
}

// Free queues the block: it goes on the free list when the commit is applied.
func (m *mem) Free(addr txn.Addr) error {
	return tooLarge(m.s.tx.Free(addr))
}

// tooLarge reports an overflowing allocator record as the engine's own
// capacity error.
func tooLarge(err error) error {
	if errors.Is(err, pmem.ErrRecordFull) {
		return fmt.Errorf("%w: %v", ErrTxTooLarge, err)
	}
	return err
}

type roMem struct{ pool *nvm.Pool }

var _ txn.Mem = roMem{}

func (r roMem) Load(addr uint64, buf []byte)   { r.pool.Load(addr, buf) }
func (r roMem) Load64(addr uint64) uint64      { return r.pool.Load64(addr) }
func (r roMem) Store(addr uint64, data []byte) { panic("undolog: store in read-only op") }
func (r roMem) Store64(addr uint64, v uint64)  { panic("undolog: store in read-only op") }
func (r roMem) Alloc(size uint64) (txn.Addr, error) {
	return 0, errors.New("undolog: alloc in read-only op")
}
func (r roMem) Free(addr txn.Addr) error { return errors.New("undolog: free in read-only op") }
