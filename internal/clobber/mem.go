package clobber

import (
	"errors"
	"fmt"
	"math/bits"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// mem is the in-transaction memory view. Every access runs through it,
// exactly where the Clobber-NVM compiler would have inserted callbacks.
// The access map (flagTable) is the run-time stand-in for the compiler's
// dependency analysis: it classifies each tracked word of the transaction's
// footprint as input, stored and/or logged. A store of any length is one
// clobber check and at most one clobber_log entry, covering the hull of the
// input words it overwrites (preStore): a structure that moves a run of slots
// with one Load and one Store logs the move as one range.
type mem struct {
	e   *Engine
	s   *slot
	seq uint64

	t *flagTable

	stored bool
	// fenced: the transaction has issued a fence (begin, or a clobber_log
	// entry's).
	fenced bool
}

var _ txn.Mem = (*mem)(nil)

func newMem(e *Engine, s *slot, seq uint64) *mem {
	// The access-map table is reused across the slot's transactions (the
	// slot lock is held for the whole Run, so this is race-free).
	if s.ftab == nil {
		s.ftab = newFlagTable()
	} else {
		s.ftab.reset()
	}
	return &mem{e: e, s: s, seq: seq, t: s.ftab, fenced: !e.opts.DisableVLog}
}

// Load implements txn.Mem.
func (m *mem) Load(addr uint64, buf []byte) {
	m.trackLoad(addr, uint64(len(buf)))
	m.e.pool.Load(addr, buf)
}

// Load64 implements txn.Mem.
func (m *mem) Load64(addr uint64) uint64 {
	m.trackLoad(addr, 8)
	return m.e.pool.Load64(addr)
}

// lineWords maps the unit range [u1,u2] restricted to line l onto the
// packed per-word mask used by flagTable.
func lineWords(l, u1, u2 uint64) uint32 {
	lo, hi := uint64(0), uint64(7)
	if l == u1>>3 {
		lo = u1 & 7
	}
	if l == u2>>3 {
		hi = u2 & 7
	}
	return uint32(0xff) >> (7 - (hi - lo)) << lo
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
	// Conservative identification cannot prove a read is dominated by the
	// transaction's own store (the "unexposed" pattern), so every load marks
	// its units as candidate inputs; refined identification skips units this
	// transaction already stored.
	conservative := m.e.opts.Conservative
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		m.t.markInput(l, lineWords(l, u1, u2), conservative)
	}
}

// Store implements txn.Mem. It detects clobber writes and logs the old
// value before applying the store — the clobber_log callback of §4.2.
func (m *mem) Store(addr uint64, data []byte) {
	m.preStore(addr, uint64(len(data)))
	m.e.pool.Store(addr, data)
}

// Store64 implements txn.Mem.
func (m *mem) Store64(addr uint64, v uint64) {
	m.preStore(addr, 8)
	m.e.pool.Store64(addr, v)
}

// preStore logs what the store [addr, addr+n) clobbers: the hull — first to
// last, clamped to the store — of its words that are inputs and not yet
// logged. A range store therefore never pays for words the transaction did
// not read (the free slot a right shift runs into, the tail past the last
// input). Words inside the hull that are already logged, or are not inputs,
// ride along with whatever they hold now; that is safe because recovery
// restores entries in reverse order (engine.go, step 1), so an earlier entry
// holding a word's pre-transaction value is applied after this one, and a
// word that is no input is rewritten by the re-execution before it is read.
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
		wmask := lineWords(l, u1, u2)
		old := m.t.markStored(l, wmask)
		clob := old & wmask
		if clob != 0 && shadowed {
			clob &^= old >> flagsLoggedShift
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
	if uint64(cap(m.s.old)) < n {
		m.s.old = make([]byte, n, 2*n)
	}
	old := m.s.old[:n]
	m.e.pool.Load(addr, old)
	// The entry's fence is issued through CommitFence so concurrent
	// transactions' log-ordering fences can share one epoch; the blocking
	// contract is unchanged (the entry is durable before the store that
	// clobbers it executes).
	nbytes, err := m.s.dlog.Append(m.seq, addr, old, plog.AppendOptions{NoFence: true})
	if err != nil {
		panic(fmt.Errorf("%w: %v", ErrTxTooLarge, err))
	}
	m.e.pool.CommitFence()
	m.fenced = true
	m.e.stats.LogEntries.Add(1)
	m.e.stats.LogBytes.Add(int64(nbytes))
	m.e.probe.LogAppend(obs.KindClobberLog, m.s.id, m.seq, nbytes)
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		m.t.markLogged(l, lineWords(l, u1, u2))
	}
}

// Alloc implements txn.Mem (the pmalloc callback): a reservation in the
// slot's arena, persistent only once the transaction commits.
func (m *mem) Alloc(size uint64) (txn.Addr, error) {
	addr, err := m.s.tx.Alloc(size)
	return addr, tooLarge(err)
}

// Free implements txn.Mem. The block is only queued: it goes on the slot's
// free list when the commit is applied, so an interrupted transaction can
// still read the memory during re-execution.
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

// roMem is the read-only view used by RunRO: direct pool reads, no
// interposition — undo-family engines pay nothing on the read path.
type roMem struct{ pool *nvm.Pool }

var _ txn.Mem = roMem{}

func (r roMem) Load(addr uint64, buf []byte) { r.pool.Load(addr, buf) }
func (r roMem) Load64(addr uint64) uint64    { return r.pool.Load64(addr) }
func (r roMem) Store(addr uint64, data []byte) {
	panic("clobber: store inside a read-only operation")
}
func (r roMem) Store64(addr uint64, v uint64) {
	panic("clobber: store inside a read-only operation")
}
func (r roMem) Alloc(size uint64) (txn.Addr, error) {
	return 0, fmt.Errorf("clobber: alloc inside a read-only operation")
}
func (r roMem) Free(addr txn.Addr) error {
	return fmt.Errorf("clobber: free inside a read-only operation")
}
