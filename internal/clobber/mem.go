package clobber

import (
	"errors"
	"fmt"

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
// footprint as input, stored and/or logged.
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

func (m *mem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	m.stored = true
	needLog := false
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		wmask := lineWords(l, u1, u2)
		old := m.t.markStored(l, wmask)
		if clob := old & wmask; clob != 0 {
			// Conservative identification lacks the "shadowed" refinement:
			// it cannot prove an earlier clobber write already covered this
			// unit, so it logs again (the in-loops pattern of Figure 5).
			if m.e.opts.Conservative || clob&^(old>>flagsLoggedShift) != 0 {
				needLog = true
			}
		}
	}
	if needLog && !m.e.opts.DisableClobberLog {
		m.logClobber(addr, n)
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
