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
// A txfunc may also declare the ranges it is about to overwrite
// (txn.Mem.WillStore), the batched form of the clobber_log callback: their
// entries are the ones the run-time check would write, under one fence.
//
// What each worker slot adds to the chassis's (package chassis), matching
// the paper's per-thread v_log:
//
//	v_log         txfunc name + encoded args + checksum, in the slot header
//	              behind the status word — one entry per transaction,
//	              written and fenced once at begin, the property §5.3
//	              credits for v_log's low cost
//	clobber_log   the slot's data log of (addr, old bytes) records, one
//	              fence per batch: per entry as the run-time check finds
//	              them, per declaration for declared ranges
//
// A transaction therefore fences at begin (the v_log and the ongoing
// status), once per clobber_log batch, at commit (the outputs and the
// allocator record) and at the idle status that commits it.
//
// Clobber transactions commit at begin: they cannot roll back, so a txfunc
// may fail only before its first store. An interrupted transaction never
// touched the persistent heap (allocation is reserve / publish / apply, see
// package pmem), so the re-execution finds the memory it freed still there
// and recovery has nothing to reclaim.
package clobber

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

const (
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
	chassis.Options
	// ArgsCap is the per-slot v_log buffer capacity (default 4096).
	ArgsCap uint64
	// Conservative disables the dependency-analysis refinements
	// (Fig 13 baseline).
	Conservative bool
	// DisableVLog skips v_log persistence (Clobber-NVM-clobberlog variant
	// of §5.3; NOT failure-atomic).
	DisableVLog bool
	// DisableClobberLog skips clobber_log persistence (Clobber-NVM-vlog
	// variant of §5.3; NOT failure-atomic).
	DisableClobberLog bool
}

// ErrTxTooLarge reports exhaustion of a per-transaction log area.
var ErrTxTooLarge = chassis.ErrTxTooLarge

// ErrDirtyAbort reports a txfunc error after it had already stored to
// persistent memory: clobber transactions commit at begin and cannot roll
// back, so failing after the first store violates the programming model.
var ErrDirtyAbort = errors.New("clobber: txfunc failed after writing (transactions cannot abort)")

// Engine is the Clobber-NVM failure-atomicity engine.
type Engine struct {
	*chassis.Chassis
	opts Options
}

func (e *Engine) spec() chassis.Spec {
	name := "clobber"
	if e.opts.Conservative {
		name = "clobber-conservative"
	}
	return chassis.Spec{
		Name: name, Pkg: "clobber", Root: rootSlot, Magic: anchorMagic, Words: 1, Header: offArgs,
		LogAt:  func(w []uint64) uint64 { return align8(offArgs + w[0]) },
		NewMem: e.newMem, Recover: e.recoverSlot,
		// Slots recover concurrently: the strong strict 2PL contract makes
		// ongoing transactions' lock sets — and hence their footprints —
		// disjoint ("Clobber-NVM recovers each thread independently").
		Parallel: true,
		NoStatus: e.opts.DisableVLog,
	}
}

// Create formats a fresh engine on the pool, anchored in root slot 1. The
// allocator must already be created.
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	if opts.ArgsCap == 0 {
		opts.ArgsCap = 4096
	}
	e := &Engine{opts: opts}
	c, err := chassis.Create(p, a, opts.Options, e.spec(), func() ([]uint64, error) {
		return []uint64{opts.ArgsCap}, nil
	})
	if err != nil {
		return nil, err
	}
	e.Chassis = c
	return e, nil
}

// Attach opens an engine previously created on the pool (after restart or
// crash); only opts' behaviour flags matter. Register all txfuncs, then call
// Recover.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	e := &Engine{opts: opts}
	c, words, err := chassis.Attach(p, a, e.spec())
	if err != nil {
		return nil, err
	}
	e.Chassis, e.opts.ArgsCap = c, words[0]
	return e, nil
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// Begin writes the v_log entry: txfunc name, encoded arguments and a
// checksum binding them to this sequence, then the ongoing status word —
// all flushed together and ordered by a single fence.
func (m *mem) Begin(name string, args *txn.Args) error {
	if len(name) > maxNameLen {
		return fmt.Errorf("clobber: txfunc name %q exceeds %d bytes", name, maxNameLen)
	}
	m.name = name
	encLen := args.EncodedSize()
	if uint64(encLen) > m.e.opts.ArgsCap {
		return fmt.Errorf("%w: %d arg bytes (cap %d)", ErrTxTooLarge, encLen, m.e.opts.ArgsCap)
	}
	if m.e.opts.DisableVLog {
		return nil
	}
	// Stage the whole v_log entry — status word, name, args and checksum —
	// and write it with a single Store; one flush set and one fence order
	// it, so the v_log costs the transaction this one fence (§5.3) at a
	// fraction of per-field store traffic. The arguments serialize straight
	// into the staging buffer.
	s := m.s
	total := offArgs + encLen
	if cap(s.Buf) < total {
		s.Buf = make([]byte, offArgs+int(m.e.opts.ArgsCap))
	}
	buf := s.Buf[:total]
	clear(buf[:offArgs])
	enc := args.AppendEncoded(buf[offArgs:offArgs])
	putU64(buf[offStatus:], m.seq<<2|chassis.PhaseOngoing)
	putU64(buf[offNameLen:], uint64(len(name)))
	copy(buf[offName:offName+maxNameLen], name)
	putU64(buf[offArgsLen:], uint64(len(enc)))
	putU64(buf[offVLogChecksum:], vlogChecksum(m.seq, name, enc))
	m.p.Store(s.Hdr, buf)
	m.p.FlushOpt(s.Hdr, uint64(total))
	m.p.CommitFence()
	m.e.Stats().VLogEntries.Add(1)
	m.e.Stats().VLogBytes.Add(int64(len(name) + len(enc)))
	s.Span.VLogAppend(len(name) + len(enc))
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

// Abort ends a txfunc that failed before its first store: the transaction
// had no persistent effects, so it trivially aborts. Failing after a store
// breaks the programming model and panics with ErrDirtyAbort.
func (m *mem) Abort(err error) error {
	if m.stored {
		panic(fmt.Errorf("%w: txfunc %q: %v", ErrDirtyAbort, m.name, err))
	}
	m.s.SetStatus(m.seq, chassis.PhaseIdle)
	return err
}

// Commit flushes the transaction's outputs together with its allocator
// record (one fence) and marks the transaction committed (one fence).
func (m *mem) Commit() {
	// A clobber_log entry's fence, or begin's, has retired the previous
	// transaction's apply; otherwise Publish pays the fence for it.
	m.s.Commit(m.fenced)
}

// recoverSlot recovers one slot (§4.3, hardened): for an ongoing
// transaction it (1) restores the clobbered inputs from the clobber_log and
// (2) re-executes the transaction via the registered txfunc with the
// arguments restored from the v_log. A slot whose v_log or clobber_log
// fails validation is quarantined.
func (e *Engine) recoverSlot(s *chassis.Slot, seq, phase uint64) (chassis.Outcome, error) {
	switch phase {
	case chassis.PhaseIdle:
		return chassis.Idle, nil
	case chassis.PhaseOngoing:
	default:
		// The status word persists atomically (one aligned 8-byte store),
		// so an undefined phase cannot come from a torn write.
		return s.Corrupt("undefined phase %d", phase)
	}

	// Ongoing: validate the v_log entry.
	p := e.Pool()
	var (
		vlogOK  bool
		nameBuf []byte
		enc     []byte
	)
	nameLen := p.Load64(s.Hdr + offNameLen)
	argsLen := p.Load64(s.Hdr + offArgsLen)
	if nameLen <= maxNameLen && argsLen <= e.opts.ArgsCap {
		nameBuf = make([]byte, nameLen)
		p.Load(s.Hdr+offName, nameBuf)
		enc = make([]byte, argsLen)
		if argsLen > 0 {
			p.Load(s.Hdr+offArgs, enc)
		}
		vlogOK = p.Load64(s.Hdr+offVLogChecksum) == vlogChecksum(seq, string(nameBuf), enc)
	}

	// Every clobber_log batch is fenced before the next one starts, and a
	// batch of several entries appends as one plog group, so the strict
	// scan reads a batch torn by the crash as the end of the log and still
	// convicts damage to a fenced one.
	entries, scanErr := s.Log.ScanStrict(seq)
	if !vlogOK {
		if scanErr != nil || len(entries) > 0 {
			// Clobber entries exist for this sequence (or the log shows
			// post-hoc damage). Sequence numbers are never reused across
			// attempts, and logClobber only runs after begin's fence — so
			// a valid v_log entry WAS durable and has since been damaged.
			return s.Corrupt("v_log checksum mismatch for seq %d with %d clobber entries", seq, len(entries))
		}
		// Torn begin: the fence never completed, the transaction performed
		// no persistent writes. Clear and move on. (A corrupted v_log of a
		// transaction with zero clobber entries is indistinguishable from
		// this case; the slot state stays consistent either way, only the
		// re-execution is lost.)
		s.SetStatus(seq, chassis.PhaseIdle)
		return chassis.Idle, nil
	}
	if scanErr != nil {
		return s.Quarantine(fmt.Errorf("clobber log: %w", scanErr))
	}
	// 1. Restore clobbered inputs.
	if !s.Restore(entries) {
		return chassis.Quarantined, nil
	}
	// 2. Re-execute.
	args, err := txn.DecodeArgs(enc)
	if err != nil {
		return s.Corrupt("undecodable v_log args: %v", err)
	}
	return s.Reexecute(string(nameBuf), args)
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
	p := e.Pool()
	out := make([]SlotStatus, 0, len(e.Slots()))
	for _, s := range e.Slots() {
		if s.Quarantined() != nil {
			out = append(out, SlotStatus{Slot: s.ID, Phase: "quarantined"})
			continue
		}
		status := p.Load64(s.Hdr + offStatus)
		seq, phase := status>>2, status&3
		st := SlotStatus{Slot: s.ID, Seq: seq}
		switch phase {
		case chassis.PhaseOngoing:
			st.Phase = "ongoing"
			nameLen := p.Load64(s.Hdr + offNameLen)
			if nameLen <= maxNameLen {
				buf := make([]byte, nameLen)
				p.Load(s.Hdr+offName, buf)
				st.TxFunc = string(buf)
			}
			st.ArgBytes = int(p.Load64(s.Hdr + offArgsLen))
			st.ClobberEntries = len(s.Log.Scan(seq))
		default:
			st.Phase = "idle"
		}
		out = append(out, st)
	}
	return out
}
