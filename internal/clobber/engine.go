// Package clobber implements Clobber-NVM's failure-atomicity engine: the
// paper's primary contribution (§3–§4).
//
// Clobber logging is undo-then-reexecute with the undo logging restricted to
// clobber writes — stores that overwrite a transaction *input* (a value read
// before it is written inside the transaction). Recovery restores the
// clobbered inputs from the clobber_log, restores volatile inputs (function
// name and arguments) from the v_log, and re-executes the interrupted
// transaction from the beginning; everything else the crash tore is simply
// overwritten by the deterministic re-execution.
//
// The paper identifies clobber writes with an LLVM pass. Go offers no such
// hook, so this engine interposes on every transactional memory access
// (txn.Mem — exactly where the compiler pass would have inserted callbacks)
// and detects clobber writes dynamically with a per-transaction access map:
// a store to a location that was loaded earlier in the transaction, and has
// not already been clobber-logged, is a clobber write. Two precision modes
// reproduce the compiler ablation of §5.9 (Figure 13):
//
//   - refined (default): word-granularity tracking; loads of locations the
//     transaction itself already wrote are not inputs (the "unexposed"
//     refinement), and locations already clobber-logged are never logged
//     again (the "shadowed" refinement, which in loops removes every
//     iteration after the first);
//   - conservative: the same tracking with neither refinement — loads of
//     self-written words still register as inputs and already-logged words
//     are logged again on later stores, modelling alias-analysis-only
//     identification without dependency propagation.
//
// Log layout per worker slot (fixed table, one slot per thread, matching the
// paper's per-thread v_log):
//
//	status word   seq<<2 | phase   (committed, which doubles as idle / ongoing)
//	v_log         txfunc name + encoded args + checksum, in a pre-allocated
//	              buffer — one entry, hence exactly two fences per
//	              transaction (begin and commit), the property §5.3 credits
//	              for v_log's low cost
//	clobber_log   a plog.DataLog of (addr, old bytes) records, one fence per
//	              entry (built over the same log subsystem as the PMDK-style
//	              undo engine, as in the paper)
//
// Allocation has no log here. pmalloc only reserves from the allocator's
// volatile mirror of the slot's arena and free only queues; commit publishes
// one allocator redo record ahead of the commit fence, conditioned on this
// slot's status word, and applies it after the committed status is durable
// (see package pmem). An interrupted transaction therefore never touched the
// persistent heap: its blocks vanish with the crash, the memory it freed is
// still there for the re-execution to read, and recovery has nothing to
// reclaim.
package clobber

import (
	"encoding/binary"
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
	// phaseIdle is the committed state of the slot's last transaction; it is
	// the phase pmem's commit condition reads as "committed".
	phaseIdle    = 0
	phaseOngoing = 1

	anchorMagic = 0x434c4f4252 // "CLOBR"

	maxNameLen = 64

	// Slot header field offsets.
	offStatus       = 0
	offNameLen      = 8
	offName         = 16
	offArgsLen      = 16 + maxNameLen
	offVLogChecksum = offArgsLen + 8
	offArgs         = 128
)

// rootSlot is the pool root slot anchoring this engine's slot table.
const rootSlot = 1

// Options configures engine creation.
type Options struct {
	// Slots is the number of worker slots (default txn.MaxSlots).
	Slots int
	// ArgsCap is the per-slot v_log buffer capacity (default 4096).
	ArgsCap uint64
	// DataLogCap is the per-slot clobber_log capacity (default 1 MiB).
	DataLogCap uint64
	// FreeLogCap bounds the frees of one transaction (default 4096): it
	// sizes the slot's allocator redo record.
	FreeLogCap int
	// Conservative disables the dependency-analysis refinements
	// (Fig 13 baseline).
	Conservative bool
	// DisableVLog skips v_log persistence (Clobber-NVM-clobberlog variant
	// of §5.3; NOT failure-atomic).
	DisableVLog bool
	// DisableClobberLog skips clobber_log persistence (Clobber-NVM-vlog
	// variant of §5.3; NOT failure-atomic).
	DisableClobberLog bool
	// LineLog formats the clobber_log with the write-combined line writer:
	// entries stream through a 64-byte staging buffer, one Store+FlushOpt
	// per touched line, validated by per-line validity words. Attach
	// detects the mode from the log magic, so only Create needs the flag.
	LineLog bool
}

func (o *Options) fill() {
	if o.Slots <= 0 || o.Slots > txn.MaxSlots {
		o.Slots = txn.MaxSlots
	}
	if o.ArgsCap == 0 {
		o.ArgsCap = 4096
	}
	if o.DataLogCap == 0 {
		o.DataLogCap = 1 << 20
	}
	if o.FreeLogCap == 0 {
		o.FreeLogCap = 4096
	}
}

// ErrTxTooLarge reports exhaustion of a per-transaction log area.
var ErrTxTooLarge = errors.New("clobber: transaction exceeds log capacity")

// ErrDirtyAbort reports a txfunc error after it had already stored to
// persistent memory: clobber transactions commit at begin and cannot roll
// back, so failing after the first store violates the programming model.
var ErrDirtyAbort = errors.New("clobber: txfunc failed after writing (transactions cannot abort)")

// Engine is the Clobber-NVM failure-atomicity engine.
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
	hdr  uint64 // slot block base address
	dlog *plog.DataLog
	tx   *pmem.Tx // the slot's arena: reservations of the running transaction
	seq  uint64   // volatile cache of the last used sequence number

	// ftab is the per-slot access-map table, reused across transactions so
	// the tracking structures are allocated once per worker, not per txn.
	ftab *flagTable
	// vbuf stages the v_log entry so begin issues one Store for the whole
	// header+args block instead of one per field.
	vbuf []byte
	// old stages a clobber entry's pre-store bytes.
	old []byte

	// quarantined, when non-nil, records why attach or recovery set this
	// slot aside (log corruption). The slot's persistent state is left
	// untouched for forensics; Run returns txn.ErrSlotQuarantined.
	quarantined error
}

// Create formats a fresh engine on the pool. The allocator must already be
// created. The engine anchor is stored in pool root slot 1.
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.fill()
	e := &Engine{pool: p, alloc: a, opts: opts}
	e.probe = obs.NewProbe(e.Name())

	anchorSize := uint64(24 + opts.Slots*8)
	anchor, err := a.Alloc(0, anchorSize)
	if err != nil {
		return nil, fmt.Errorf("clobber: create anchor: %w", err)
	}
	p.Store64(anchor, anchorMagic)
	p.Store64(anchor+8, uint64(opts.Slots))
	p.Store64(anchor+16, opts.ArgsCap)

	hdrSize := uint64(offArgs) + opts.ArgsCap
	dlogOff := align8(hdrSize)
	slotSize := dlogOff + plog.DataLogSize(opts.DataLogCap)

	for i := 0; i < opts.Slots; i++ {
		base, err := a.Alloc(i, slotSize)
		if err != nil {
			return nil, fmt.Errorf("clobber: create slot %d: %w", i, err)
		}
		// Zero the header so status reads as idle/seq 0.
		p.Store(base, make([]byte, offArgs))
		p.Persist(base, offArgs)
		s := &slot{
			id:   i,
			hdr:  base,
			dlog: plog.FormatDataLogMode(p, i, base+dlogOff, opts.DataLogCap, opts.LineLog),
			tx:   a.Tx(i),
		}
		if err := s.tx.Bind(base+offStatus, opts.FreeLogCap); err != nil {
			return nil, fmt.Errorf("clobber: create slot %d: %w", i, err)
		}
		e.slots = append(e.slots, s)
		p.Store64(anchor+24+uint64(i)*8, base)
	}
	p.Persist(anchor, anchorSize)
	p.Store64(p.RootSlot(rootSlot), anchor)
	p.Persist(p.RootSlot(rootSlot), 8)
	return e, nil
}

// Attach opens an engine previously created on the pool (after restart or
// crash). Register all txfuncs, then call Recover. Anchor corruption fails
// the whole Attach (there is no engine to speak of without it); per-slot log
// corruption quarantines just that slot, so one damaged thread cannot take
// the whole pool down.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.fill()
	anchor := p.Load64(p.RootSlot(rootSlot))
	if anchor == 0 || anchor+24 > p.Size() || p.Load64(anchor) != anchorMagic {
		return nil, errors.New("clobber: pool has no clobber engine")
	}
	n := int(p.Load64(anchor + 8))
	if n <= 0 || n > txn.MaxSlots {
		return nil, fmt.Errorf("clobber: corrupt anchor: %d slots", n)
	}
	if anchor+24+uint64(n)*8 > p.Size() {
		return nil, errors.New("clobber: corrupt anchor: slot table outside pool")
	}
	opts.Slots = n
	opts.ArgsCap = p.Load64(anchor + 16)
	if opts.ArgsCap > p.Size() {
		return nil, fmt.Errorf("clobber: corrupt anchor: args cap %#x", opts.ArgsCap)
	}
	e := &Engine{pool: p, alloc: a, opts: opts}
	e.probe = obs.NewProbe(e.Name())

	hdrSize := uint64(offArgs) + opts.ArgsCap
	dlogOff := align8(hdrSize)
	for i := 0; i < n; i++ {
		base := p.Load64(anchor + 24 + uint64(i)*8)
		s := &slot{id: i, hdr: base, tx: a.Tx(i)}
		e.slots = append(e.slots, s)
		dlog, err := plog.AttachDataLog(p, i, base+dlogOff)
		if err != nil {
			e.quarantine(s, fmt.Errorf("clobber: slot %d: %w", i, err))
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

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// Name implements txn.Engine.
func (e *Engine) Name() string {
	if e.opts.Conservative {
		return "clobber-conservative"
	}
	return "clobber"
}

// Register implements txn.Engine.
func (e *Engine) Register(name string, fn txn.TxFunc) { e.reg.Register(name, fn) }

// Stats implements txn.Engine.
func (e *Engine) Stats() *txn.Stats { return &e.stats }

// Pool returns the engine's pool (for examples and harnesses).
func (e *Engine) Pool() *nvm.Pool { return e.pool }

// Allocator returns the engine's persistent allocator.
func (e *Engine) Allocator() *pmem.Allocator { return e.alloc }

// Run implements txn.Engine: it executes the registered txfunc
// failure-atomically on the given worker slot.
func (e *Engine) Run(slotID int, name string, args *txn.Args) error {
	fn, err := e.reg.Lookup(name)
	if err != nil {
		return err
	}
	if err := txn.CheckSlot(slotID); err != nil || slotID >= len(e.slots) {
		return fmt.Errorf("%w: %d (engine has %d)", txn.ErrBadSlot, slotID, len(e.slots))
	}
	s := e.slots[slotID]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined != nil {
		return fmt.Errorf("%w: clobber slot %d: %v", txn.ErrSlotQuarantined, s.id, s.quarantined)
	}
	return e.runLocked(s, name, args, fn, false)
}

func (e *Engine) runLocked(s *slot, name string, args *txn.Args, fn txn.TxFunc, recovered bool) error {
	if args == nil {
		args = txn.NoArgs
	}
	sp := e.probe.Start(s.id, name)
	seq := s.seq + 1
	if err := e.begin(s, seq, name, args, &sp); err != nil {
		return err
	}
	sp.BeginDone(seq)
	s.seq = seq
	s.dlog.Reset()

	m := newMem(e, s, seq)
	// Whatever way the txfunc leaves without committing — error, panic,
	// simulated crash — its reservations are dropped and the arena released.
	defer s.tx.Abort()
	if err := fn(m, args); err != nil {
		if m.stored {
			panic(fmt.Errorf("%w: txfunc %q: %v", ErrDirtyAbort, name, err))
		}
		// No persistent effects yet: the transaction trivially aborts, and
		// the blocks it reserved go back with it.
		e.setStatus(s, seq, phaseIdle)
		sp.Aborted()
		return err
	}
	sp.ExecDone()
	e.commit(s, seq, m, &sp)
	e.stats.Committed.Add(1)
	if recovered {
		e.stats.Recovered.Add(1)
	}
	sp.Committed(recovered)
	return nil
}

// begin writes the v_log entry: txfunc name, encoded arguments and a
// checksum binding them to this sequence, then the ongoing status word —
// all flushed together and ordered by a single fence.
func (e *Engine) begin(s *slot, seq uint64, name string, args *txn.Args, sp *obs.Span) error {
	if len(name) > maxNameLen {
		return fmt.Errorf("clobber: txfunc name %q exceeds %d bytes", name, maxNameLen)
	}
	encLen := args.EncodedSize()
	if uint64(encLen) > e.opts.ArgsCap {
		return fmt.Errorf("%w: %d arg bytes (cap %d)", ErrTxTooLarge, encLen, e.opts.ArgsCap)
	}
	p := e.pool
	if !e.opts.DisableVLog {
		// Stage the whole v_log entry — status word, name, args and
		// checksum — and write it with a single Store; one flush set and
		// one fence order it, preserving §5.3's two-fences-per-transaction
		// property at a fraction of the old per-field store traffic. The
		// arguments serialize straight into the staging buffer.
		total := offArgs + encLen
		if cap(s.vbuf) < total {
			s.vbuf = make([]byte, offArgs+int(e.opts.ArgsCap))
		}
		buf := s.vbuf[:total]
		clear(buf[:offArgs])
		enc := args.AppendEncoded(buf[offArgs:offArgs])
		putU64(buf[offStatus:], seq<<2|phaseOngoing)
		putU64(buf[offNameLen:], uint64(len(name)))
		copy(buf[offName:offName+maxNameLen], name)
		putU64(buf[offArgsLen:], uint64(len(enc)))
		putU64(buf[offVLogChecksum:], vlogChecksum(seq, name, enc))
		p.Store(s.hdr, buf)
		p.FlushOpt(s.hdr, uint64(total))
		p.CommitFence()
		e.stats.VLogEntries.Add(1)
		e.stats.VLogBytes.Add(int64(len(name) + len(enc)))
		sp.VLogAppend(len(name) + len(enc))
	}
	return nil
}

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// vlogChecksum binds a v_log entry's name and encoded arguments to its
// sequence number. The argument blob dominates the input (values run to
// hundreds of bytes), so it is folded eight bytes per round; the checksum
// only ever guards entries written and verified by this code, never an
// external format.
func vlogChecksum(seq uint64, name string, enc []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ seq
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= 0xabcd
	for len(enc) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(enc)) * 0x100000001b3
		h ^= h >> 29
		enc = enc[8:]
	}
	var tail uint64
	for i := len(enc) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(enc[i])
	}
	h = (h ^ tail ^ uint64(len(enc))<<56) * 0x100000001b3
	h ^= h >> 32
	return h
}

// commit flushes the transaction's outputs together with its allocator
// record (one fence), marks the transaction committed (one fence) — which is
// what commits the record too — and then applies the record to the heap,
// unfenced: the next begin's fence retires it, and until then recovery can
// re-apply it.
func (e *Engine) commit(s *slot, seq uint64, m *mem, sp *obs.Span) {
	p := e.pool
	p.FlushOptLines(m.t.dirty)
	if m.fenced {
		// The previous transaction's apply is retired; otherwise Publish
		// pays the fence for it.
		s.tx.Retired()
	}
	if e.opts.DisableVLog {
		// The status word is never written: the record commits with this
		// fence.
		s.tx.Publish(0)
	} else {
		s.tx.Publish(seq)
	}
	p.CommitFence()
	sp.FlushFence(len(m.t.dirty))

	e.setStatus(s, seq, phaseIdle)
	s.tx.Apply()
}

func (e *Engine) setStatus(s *slot, seq uint64, phase uint64) {
	if e.opts.DisableVLog {
		return
	}
	p := e.pool
	p.Store64(s.hdr+offStatus, seq<<2|phase)
	p.CommitPersist(s.hdr+offStatus, 8)
}

// RunRO implements txn.Engine. Clobber-NVM does not interpose on reads (its
// key advantage over redo systems), so read-only operations access the pool
// directly.
func (e *Engine) RunRO(slotID int, fn txn.ROFunc) error {
	if err := txn.CheckSlot(slotID); err != nil {
		return err
	}
	return fn(roMem{e.pool})
}

// Recover implements txn.Engine; see RecoverReport for the full outcome.
func (e *Engine) Recover() (int, error) {
	rep, err := e.RecoverReport()
	return rep.Recovered, err
}

// slotOutcome classifies what recoverSlot did with one slot.
type slotOutcome int

const (
	outcomeIdle slotOutcome = iota
	outcomeReexecuted
	outcomeQuarantined
)

// RecoverReport implements txn.RecoveryReporter (§4.3, hardened). For every
// slot with an ongoing transaction it (1) restores clobbered inputs from the
// clobber_log and (2) re-executes the transaction via the registered txfunc
// with the arguments restored from the v_log. The heap needs no step of its
// own: pmem.Attach has already settled every arena by its redo records,
// discarding the interrupted execution's and completing the committed ones.
//
// Corrupt logs never panic: a slot whose v_log or clobber_log fails
// validation is quarantined — its persistent state is left untouched and
// Run on it returns txn.ErrSlotQuarantined — and recovery of the remaining
// slots proceeds. The returned error is reserved for conditions that make
// the engine unusable (a missing txfunc registration, a failing
// re-execution); a simulated-crash panic (nvm.ErrCrash) still propagates so
// crash-during-recovery harnesses keep working.
//
// Slots recover concurrently: the paper notes this is valid because the
// strong strict 2PL contract makes ongoing transactions' lock sets — and
// hence their footprints — disjoint ("Clobber-NVM recovers each thread
// independently").
func (e *Engine) RecoverReport() (txn.RecoveryReport, error) {
	var (
		mu         sync.Mutex
		rep        txn.RecoveryReport
		firstErr   error
		firstPanic any
		wg         sync.WaitGroup
	)
	rep.Slots = len(e.slots)
	for _, s := range e.slots {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Re-raise simulated crash injections on the calling
					// goroutine so harnesses can catch them; convert any
					// other panic (out-of-range address from a damaged log,
					// codec panic on garbage bytes) into a quarantine.
					if err, ok := r.(error); ok && errors.Is(err, nvm.ErrCrash) {
						mu.Lock()
						if firstPanic == nil {
							firstPanic = r
						}
						mu.Unlock()
						return
					}
					e.quarantine(s, fmt.Errorf("%w: clobber slot %d: recovery panic: %v", txn.ErrCorruptLog, s.id, r))
				}
			}()
			out, err := e.recoverSlot(s)
			mu.Lock()
			defer mu.Unlock()
			switch out {
			case outcomeReexecuted:
				rep.Recovered++
				rep.Reexecuted++
			}
			if err != nil && out != outcomeQuarantined && firstErr == nil {
				firstErr = err
			}
		}(s)
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	for _, s := range e.slots {
		if s.quarantined != nil {
			rep.Quarantined++
			rep.Errors = append(rep.Errors, s.quarantined)
		}
	}
	return rep, firstErr
}

func (e *Engine) recoverSlot(s *slot) (slotOutcome, error) {
	if s.quarantined != nil {
		return outcomeQuarantined, s.quarantined
	}
	p := e.pool
	status := p.Load64(s.hdr + offStatus)
	seq, phase := status>>2, status&3
	s.seq = seq
	switch phase {
	case phaseIdle:
		return outcomeIdle, nil
	case phaseOngoing:
		// Handled below.
	default:
		// The status word persists atomically (one aligned 8-byte store),
		// so an undefined phase cannot come from a torn write.
		e.quarantine(s, fmt.Errorf("%w: clobber slot %d: undefined phase %d", txn.ErrCorruptLog, s.id, phase))
		return outcomeQuarantined, s.quarantined
	}

	// Ongoing: validate the v_log entry.
	var (
		vlogOK  bool
		nameBuf []byte
		enc     []byte
	)
	nameLen := p.Load64(s.hdr + offNameLen)
	argsLen := p.Load64(s.hdr + offArgsLen)
	if nameLen <= maxNameLen && argsLen <= e.opts.ArgsCap {
		nameBuf = make([]byte, nameLen)
		p.Load(s.hdr+offName, nameBuf)
		enc = make([]byte, argsLen)
		if argsLen > 0 {
			p.Load(s.hdr+offArgs, enc)
		}
		vlogOK = p.Load64(s.hdr+offVLogChecksum) == vlogChecksum(seq, string(nameBuf), enc)
	}

	// Clobber appends are fenced per entry, so the strict scan is sound.
	entries, scanErr := s.dlog.ScanStrict(seq)
	if !vlogOK {
		if scanErr != nil || len(entries) > 0 {
			// Clobber entries exist for this sequence (or the log shows
			// post-hoc damage). Sequence numbers are never reused across
			// attempts, and logClobber only runs after begin's fence — so
			// a valid v_log entry WAS durable and has since been damaged.
			e.quarantine(s, fmt.Errorf("%w: clobber slot %d: v_log checksum mismatch for seq %d with %d clobber entries",
				txn.ErrCorruptLog, s.id, seq, len(entries)))
			return outcomeQuarantined, s.quarantined
		}
		// Torn begin: the fence never completed, the transaction performed
		// no persistent writes. Clear and move on. (A corrupted v_log of a
		// transaction with zero clobber entries is indistinguishable from
		// this case; the slot state stays consistent either way, only the
		// re-execution is lost.)
		e.setStatus(s, seq, phaseIdle)
		return outcomeIdle, nil
	}
	if scanErr != nil {
		e.quarantine(s, fmt.Errorf("clobber: slot %d: clobber log: %w", s.id, scanErr))
		return outcomeQuarantined, s.quarantined
	}
	// Checksummed entries carry the addresses they were logged with, but
	// verify bounds before touching memory all the same.
	for _, en := range entries {
		end := en.Addr + uint64(len(en.Data))
		if end > p.Size() || end < en.Addr {
			e.quarantine(s, fmt.Errorf("%w: clobber slot %d: log entry addresses [%#x,%#x) outside pool",
				txn.ErrCorruptLog, s.id, en.Addr, end))
			return outcomeQuarantined, s.quarantined
		}
	}

	// 1. Restore clobbered inputs (reverse order, then one fence).
	for i := len(entries) - 1; i >= 0; i-- {
		p.Store(entries[i].Addr, entries[i].Data)
		p.FlushOpt(entries[i].Addr, uint64(len(entries[i].Data)))
	}
	if len(entries) > 0 {
		p.Fence()
	}

	// 2. Re-execute.
	args, err := txn.DecodeArgs(enc)
	if err != nil {
		e.quarantine(s, fmt.Errorf("%w: clobber slot %d: undecodable v_log args: %v", txn.ErrCorruptLog, s.id, err))
		return outcomeQuarantined, s.quarantined
	}
	fn, err := e.reg.Lookup(string(nameBuf))
	if err != nil {
		return outcomeIdle, fmt.Errorf("clobber: slot %d: recovery needs txfunc %q: %w", s.id, nameBuf, err)
	}
	if err := e.runLocked(s, string(nameBuf), args, fn, true); err != nil {
		return outcomeIdle, fmt.Errorf("clobber: slot %d: re-execution of %q failed: %w", s.id, nameBuf, err)
	}
	return outcomeReexecuted, nil
}

// SlotStatus describes one worker slot's persistent recovery state, for
// operational inspection (cmd tools, tests, post-crash triage).
type SlotStatus struct {
	// Slot is the worker slot id.
	Slot int
	// Seq is the slot's current transaction sequence number.
	Seq uint64
	// Phase is "idle" or "ongoing".
	Phase string
	// TxFunc is the v_log-recorded function name (ongoing slots only).
	TxFunc string
	// ArgBytes is the encoded argument size in the v_log.
	ArgBytes int
	// ClobberEntries counts valid clobber_log records for Seq.
	ClobberEntries int
}

// SlotStatuses reads every slot's persistent state. Safe to call on an
// attached engine before Recover to see what recovery would do.
func (e *Engine) SlotStatuses() []SlotStatus {
	p := e.pool
	out := make([]SlotStatus, 0, len(e.slots))
	for _, s := range e.slots {
		if s.quarantined != nil {
			out = append(out, SlotStatus{Slot: s.id, Phase: "quarantined"})
			continue
		}
		status := p.Load64(s.hdr + offStatus)
		seq, phase := status>>2, status&3
		st := SlotStatus{Slot: s.id, Seq: seq}
		switch phase {
		case phaseOngoing:
			st.Phase = "ongoing"
			nameLen := p.Load64(s.hdr + offNameLen)
			if nameLen <= maxNameLen {
				buf := make([]byte, nameLen)
				p.Load(s.hdr+offName, buf)
				st.TxFunc = string(buf)
			}
			st.ArgBytes = int(p.Load64(s.hdr + offArgsLen))
			st.ClobberEntries = len(s.dlog.Scan(seq))
		default:
			st.Phase = "idle"
		}
		out = append(out, st)
	}
	return out
}
