package clobber

import (
	"math/bits"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/txn"
)

// mem is the in-transaction memory view. Every access runs through it,
// exactly where the Clobber-NVM compiler would have inserted callbacks.
// The slot's line table is the run-time stand-in for the compiler's
// dependency analysis: it classifies each tracked word of the transaction's
// footprint as input, stored and/or logged. A store of any length is one
// clobber check and at most one clobber_log entry, covering the hull of the
// input words it overwrites (preStore): a structure that moves a run of slots
// with one Load and one Store logs the move as one range.
type mem struct {
	e    *Engine
	s    *chassis.Slot
	p    *nvm.Pool
	t    *chassis.Lines
	seq  uint64
	name string

	stored bool
	// fenced: the transaction has issued a fence (begin, or a clobber_log
	// entry's).
	fenced bool
}

var _ chassis.Mem = (*mem)(nil)

func (e *Engine) newMem(s *chassis.Slot, seq uint64) chassis.Mem {
	return &mem{e: e, s: s, p: e.Pool(), t: &s.Lines, seq: seq, fenced: !e.opts.DisableVLog}
}

// Load implements txn.Mem.
func (m *mem) Load(addr uint64, buf []byte) {
	m.trackLoad(addr, uint64(len(buf)))
	m.p.Load(addr, buf)
}

// Load64 implements txn.Mem.
func (m *mem) Load64(addr uint64) uint64 {
	m.trackLoad(addr, 8)
	return m.p.Load64(addr)
}

// markInput marks the words of wmask as transaction inputs. Refined
// identification skips words this transaction already stored (they read a
// transaction-produced value, not an input); conservative identification
// cannot prove a read is dominated by the transaction's own store (the
// "unexposed" pattern), so it marks them anyway.
func markInput(t *chassis.Lines, line uint64, wmask uint32, conservative bool) {
	v := t.At(line)
	if !conservative {
		wmask &^= *v >> chassis.StoredShift
	}
	*v |= wmask
}

func (m *mem) trackLoad(addr, n uint64) {
	if n == 0 {
		return
	}
	// With the clobber_log disabled (No-log / v_log-only variants of §5.3)
	// there is nothing to detect, so the baseline pays no tracking.
	if m.e.opts.DisableClobberLog {
		return
	}
	conservative := m.e.opts.Conservative
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		markInput(m.t, l, chassis.Words(l, u1, u2), conservative)
	}
}

// Store implements txn.Mem. It detects clobber writes and logs the old
// value before applying the store — the clobber_log callback of §4.2.
func (m *mem) Store(addr uint64, data []byte) {
	m.preStore(addr, uint64(len(data)))
	m.p.Store(addr, data)
}

// Store64 implements txn.Mem.
func (m *mem) Store64(addr uint64, v uint64) {
	m.preStore(addr, 8)
	m.p.Store64(addr, v)
}

// preStore logs what the store [addr, addr+n) clobbers: the hull — first to
// last, clamped to the store — of its words that are inputs and not yet
// logged. A range store therefore never pays for words the transaction did
// not read (the free slot a right shift runs into, the tail past the last
// input). Words inside the hull that are already logged, or are not inputs,
// ride along with whatever they hold now; that is safe because recovery
// restores entries in reverse order (chassis.Slot.Restore), so an earlier
// entry holding a word's pre-transaction value is applied after this one,
// and a word that is no input is rewritten by the re-execution before it is
// read.
func (m *mem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	m.stored = true
	first, last := ^uint64(0), uint64(0) // the hull, in 8-byte units; empty while first > last
	// Conservative identification lacks the "shadowed" refinement: it cannot
	// prove an earlier clobber write already covered a word, so it logs
	// again (the in-loops pattern of Figure 5).
	shadowed := !m.e.opts.Conservative
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		wmask := chassis.Words(l, u1, u2)
		old := m.t.MarkStored(l, wmask)
		clob := old & wmask
		if clob != 0 && shadowed {
			clob &^= old >> chassis.LoggedShift
		}
		if clob != 0 {
			first = min(first, l<<3+uint64(bits.TrailingZeros32(clob)))
			last = l<<3 + uint64(bits.Len32(clob)) - 1
		}
	}
	if first <= last && !m.e.opts.DisableClobberLog {
		lo, hi := max(addr, first<<3), min(addr+n, (last+1)<<3)
		m.logClobber(lo, hi-lo)
	}
}

// logClobber records the pre-store value of [addr, addr+n) in the
// clobber_log (one flush set + one fence, the PMDK undo-log discipline) and
// marks the covered units logged so shadowed writes skip the log.
func (m *mem) logClobber(addr, n uint64) {
	m.s.LogUndo(addr, n, obs.KindClobberLog)
	m.fenced = true
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		m.t.MarkLogged(l, chassis.Words(l, u1, u2))
	}
}

// Alloc implements txn.Mem (the pmalloc callback).
func (m *mem) Alloc(size uint64) (txn.Addr, error) { return m.s.Alloc(size) }

// Free implements txn.Mem. The block is only queued, so an interrupted
// transaction can still read the memory during re-execution.
func (m *mem) Free(addr txn.Addr) error { return m.s.Free(addr) }
