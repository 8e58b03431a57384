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
// contract), the dependency log is a persistent ring, and the snapshot scan
// runs inline every SnapshotInterval commits.
//
// Allocation goes through the slot's pmem.Tx exactly as in the other engines:
// reserve during the FASE, publish one redo record ahead of the commit fence,
// apply after the idle status is durable. A rolled-back FASE never touched
// the persistent heap.
package atlas

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
	// phaseIdle is the committed state of the slot's last FASE, and
	// phaseOngoing (1) the one phase pmem's commit condition reads as "not
	// committed".
	phaseIdle    = 0
	phaseOngoing = 1

	anchorMagic = 0x41544c41 // "ATLA"

	offStatus = 0
	hdrSize   = 64

	// ringEntries is the dependency-log ring capacity.
	ringEntries = 4096
	ringEntrySz = 24 // slot(8) seq(8) epoch(8)

	// SnapshotInterval is how many FASE commits elapse between consistent
	// snapshot computations (the helper-thread pruning work).
	SnapshotInterval = 64
)

// rootSlot is the pool root slot anchoring this engine.
const rootSlot = 5

// Options configures engine creation.
type Options struct {
	Slots      int
	DataLogCap uint64
	// FreeLogCap bounds the frees of one FASE (default 4096): it sizes the
	// slot's allocator redo record.
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
var ErrTxTooLarge = errors.New("atlas: transaction exceeds log capacity")

// Engine is the Atlas-style engine.
type Engine struct {
	pool  *nvm.Pool
	alloc *pmem.Allocator
	reg   txn.Registry
	stats txn.Stats
	opts  Options
	slots []*slot
	probe *obs.Probe

	// Global dependency tracking state.
	depMu    sync.Mutex
	ringBase uint64
	ringIdx  uint64
	epoch    uint64
	commits  uint64
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
	tx   *pmem.Tx // the slot's arena: reservations of the running FASE
	seq  uint64

	// lset is the per-slot dirty-line set, reused across transactions (the
	// slot lock covers the whole Run).
	lset *lineSet
	// old stages an undo entry's pre-store bytes.
	old []byte

	// quarantined is set (volatile) when recovery found this slot's logs
	// corrupt; the slot refuses transactions until recreated.
	quarantined error
}

// Create formats a fresh engine on the pool (anchor in root slot 5).
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.fill()
	e := &Engine{pool: p, alloc: a, opts: opts}
	e.probe = obs.NewProbe(e.Name())

	anchorSize := uint64(24 + opts.Slots*8)
	anchor, err := a.Alloc(0, anchorSize)
	if err != nil {
		return nil, fmt.Errorf("atlas: create anchor: %w", err)
	}
	ring, err := a.Alloc(0, ringEntries*ringEntrySz)
	if err != nil {
		return nil, fmt.Errorf("atlas: create dependency ring: %w", err)
	}
	e.ringBase = ring
	p.Store64(anchor, anchorMagic)
	p.Store64(anchor+8, uint64(opts.Slots))
	p.Store64(anchor+16, ring)

	slotSize := hdrSize + plog.DataLogSize(opts.DataLogCap)

	for i := 0; i < opts.Slots; i++ {
		base, err := a.Alloc(i, slotSize)
		if err != nil {
			return nil, fmt.Errorf("atlas: create slot %d: %w", i, err)
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
			return nil, fmt.Errorf("atlas: create slot %d: %w", i, err)
		}
		e.slots = append(e.slots, s)
		p.Store64(anchor+24+uint64(i)*8, base)
	}
	p.Persist(anchor, anchorSize)
	p.Store64(p.RootSlot(rootSlot), anchor)
	p.Persist(p.RootSlot(rootSlot), 8)
	return e, nil
}

// Attach opens a previously created engine. A slot whose logs fail
// validation is quarantined (it refuses transactions, and recovery reports
// it) rather than failing the whole attach; only anchor corruption is fatal.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.fill()
	anchor := p.Load64(p.RootSlot(rootSlot))
	if anchor == 0 || anchor+24 > p.Size() || p.Load64(anchor) != anchorMagic {
		return nil, errors.New("atlas: pool has no atlas engine")
	}
	n := int(p.Load64(anchor + 8))
	if n <= 0 || n > txn.MaxSlots {
		return nil, fmt.Errorf("atlas: corrupt anchor: %d slots", n)
	}
	if anchor+24+uint64(n)*8 > p.Size() {
		return nil, fmt.Errorf("atlas: corrupt anchor: slot table out of bounds")
	}
	opts.Slots = n
	e := &Engine{pool: p, alloc: a, opts: opts, ringBase: p.Load64(anchor + 16)}
	e.probe = obs.NewProbe(e.Name())
	for i := 0; i < n; i++ {
		base := p.Load64(anchor + 24 + uint64(i)*8)
		s, err := attachSlot(p, i, base)
		if err != nil {
			s = &slot{id: i, hdr: base}
			s.quarantined = fmt.Errorf("atlas: slot %d: %w", i, err)
			e.stats.Quarantined.Add(1)
		}
		s.tx = a.Tx(i)
		e.slots = append(e.slots, s)
	}
	return e, nil
}

func attachSlot(p *nvm.Pool, i int, base uint64) (*slot, error) {
	if base+hdrSize > p.Size() || base+hdrSize < base {
		return nil, fmt.Errorf("%w: slot base %#x outside pool", txn.ErrCorruptLog, base)
	}
	dlog, err := plog.AttachDataLog(p, i, base+hdrSize)
	if err != nil {
		return nil, err
	}
	status := p.Load64(base + offStatus)
	return &slot{id: i, hdr: base, dlog: dlog, seq: status >> 2}, nil
}

// quarantine marks a slot unusable after recovery found corrupt logs. The
// first cause wins; persistent state is left untouched for forensics.
func (e *Engine) quarantine(s *slot, err error) {
	if s.quarantined != nil {
		return
	}
	s.quarantined = err
	e.stats.Quarantined.Add(1)
}

// Name implements txn.Engine.
func (e *Engine) Name() string { return "atlas" }

// Register implements txn.Engine.
func (e *Engine) Register(name string, fn txn.TxFunc) { e.reg.Register(name, fn) }

// Stats implements txn.Engine.
func (e *Engine) Stats() *txn.Stats { return &e.stats }

// Pool returns the engine's pool.
func (e *Engine) Pool() *nvm.Pool { return e.pool }

// Allocator returns the engine's allocator.
func (e *Engine) Allocator() *pmem.Allocator { return e.alloc }

// Run implements txn.Engine: one FASE.
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
		return fmt.Errorf("%w: atlas slot %d: %v", txn.ErrSlotQuarantined, s.id, s.quarantined)
	}

	if args == nil {
		args = txn.NoArgs
	}
	sp := e.probe.Start(s.id, name)
	seq := s.seq + 1
	p := e.pool
	e.setStatus(s, seq, phaseOngoing)
	s.seq = seq
	s.dlog.Reset()
	sp.BeginDone(seq)

	if s.lset == nil {
		s.lset = newLineSet()
	} else {
		s.lset.reset()
	}
	m := &mem{e: e, s: s, seq: seq, dirty: s.lset}
	// Whatever way the txfunc leaves without committing — error, panic,
	// simulated crash — its reservations are dropped and the arena released.
	defer s.tx.Abort()
	if err := fn(m, args); err != nil {
		e.rollback(s, seq)
		sp.Aborted()
		return err
	}
	sp.ExecDone()

	// Outputs and the allocator record durable under one fence, then the idle
	// status, which commits the record, then its apply, unfenced: the next
	// begin's fence retires it, as this one's retired the last.
	p.FlushOptLines(m.dirty.dirty)
	s.tx.Retired()
	s.tx.Publish(seq)
	p.CommitFence()
	sp.FlushFence(len(m.dirty.dirty))
	e.setStatus(s, seq, phaseIdle)
	s.tx.Apply()
	e.recordDependency(s, seq)
	e.stats.Committed.Add(1)
	sp.Committed(false)
	return nil
}

// recordDependency appends the FASE's completion record to the global
// dependency log and periodically computes the consistent snapshot — the
// globally serialized bookkeeping that dominates Atlas's runtime cost.
func (e *Engine) recordDependency(s *slot, seq uint64) {
	e.depMu.Lock()
	defer e.depMu.Unlock()
	p := e.pool
	e.epoch++
	at := e.ringBase + (e.ringIdx%ringEntries)*ringEntrySz
	p.Store64(at, uint64(s.id))
	p.Store64(at+8, seq)
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
	p := e.pool
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

func (e *Engine) setStatus(s *slot, seq, phase uint64) {
	e.pool.Store64(s.hdr+offStatus, seq<<2|phase)
	e.pool.CommitPersist(s.hdr+offStatus, 8)
}

// rollback restores the undo-logged values in reverse order and marks the
// slot idle. Allocations and frees were only reserved: the heap has nothing
// to undo.
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

// RunRO implements txn.Engine (undo family: direct reads).
func (e *Engine) RunRO(slotID int, fn txn.ROFunc) error {
	if err := txn.CheckSlot(slotID); err != nil {
		return err
	}
	return fn(roMem{e.pool})
}

// Recover implements txn.Engine: uncommitted FASEs roll back.
func (e *Engine) Recover() (int, error) {
	rep, err := e.RecoverReport()
	return rep.Recovered, err
}

// RecoverReport implements txn.RecoveryReporter. Atlas fences every undo
// append before the corresponding store, so the log is fence-ordered at
// recovery and the strict scan's valid-after-invalid corruption test is
// sound. A corrupt log quarantines the slot before ANY entry is restored —
// a partial rollback would itself tear the data it claims to repair. The heap
// needs no step: pmem.Attach has already settled every arena.
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
			if err, ok := r.(error); ok && errors.Is(err, nvm.ErrCrash) {
				panic(r)
			}
			e.quarantine(s, fmt.Errorf("%w: atlas slot %d: recovery panic: %v", txn.ErrCorruptLog, s.id, r))
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
	case phaseOngoing:
		entries, err := s.dlog.ScanStrict(seq)
		if err != nil {
			e.quarantine(s, fmt.Errorf("atlas: slot %d: undo log: %w", s.id, err))
			return
		}
		for _, en := range entries {
			if end := en.Addr + uint64(len(en.Data)); end > p.Size() || end < en.Addr {
				e.quarantine(s, fmt.Errorf("%w: atlas slot %d: log entry addresses [%#x,%#x) outside pool",
					txn.ErrCorruptLog, s.id, en.Addr, end))
				return
			}
		}
		e.rollbackEntries(s, seq, entries)
		e.stats.Recovered.Add(1)
		e.probe.RecoveryEvent(s.id, seq, "")
		rep.Recovered++
		rep.RolledBack++
	case phaseIdle:
		// Nothing to do.
	default:
		e.quarantine(s, fmt.Errorf("%w: atlas slot %d: undefined phase %d", txn.ErrCorruptLog, s.id, phase))
	}
}

// mem is Atlas's transactional view: per-store undo logging without elision.
type mem struct {
	e     *Engine
	s     *slot
	seq   uint64
	dirty *lineSet
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

// preStore logs every store: without a whole-program dependency analysis,
// Atlas cannot elide a log entry even for a location it logged moments ago
// (a dependent FASE on another thread may have observed the intermediate
// value).
func (m *mem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	if uint64(cap(m.s.old)) < n {
		m.s.old = make([]byte, n, 2*n)
	}
	old := m.s.old[:n]
	m.e.pool.Load(addr, old)
	// Groupable per-entry fence: durable before the store (CommitFence
	// blocks), amortizable across concurrently logging FASEs.
	nbytes, err := m.s.dlog.Append(m.seq, addr, old, plog.AppendOptions{NoFence: true})
	if err != nil {
		panic(fmt.Errorf("%w: %v", ErrTxTooLarge, err))
	}
	m.e.pool.CommitFence()
	m.e.stats.LogEntries.Add(1)
	m.e.stats.LogBytes.Add(int64(nbytes))
	m.e.probe.LogAppend(obs.KindLogAppend, m.s.id, m.seq, nbytes)
	for l := addr / nvm.LineSize; l <= (addr+n-1)/nvm.LineSize; l++ {
		m.dirty.add(l)
	}
}

// Alloc reserves in the slot's arena; the block is persistent only once the
// FASE commits.
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
func (r roMem) Store(addr uint64, data []byte) { panic("atlas: store in read-only op") }
func (r roMem) Store64(addr uint64, v uint64)  { panic("atlas: store in read-only op") }
func (r roMem) Alloc(size uint64) (txn.Addr, error) {
	return 0, errors.New("atlas: alloc in read-only op")
}
func (r roMem) Free(addr txn.Addr) error { return errors.New("atlas: free in read-only op") }
