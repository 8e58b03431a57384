// Package ido models iDO logging (Liu et al., MICRO '18), the
// state-of-the-art recovery-via-resumption system the paper compares against
// in §5.4 (Figure 8).
//
// iDO's compiler splits each transaction into idempotent regions — maximal
// code stretches that never overwrite their own inputs — and logs at every
// region boundary: a snapshot of the register file, the live stack state
// (iDO keeps the program stack in NVM) and the program counter, plus a flush
// and fence for the locations the finished region modified. Failure recovery
// re-executes only the interrupted idempotent region and resumes.
//
// iDO's code is not public; the paper re-implemented a compiler
// instrumentation pass purely to *measure* what iDO would log. This package
// is the same kind of artifact: an execution-driven meter. Run executes the
// txfunc with in-place stores (it is not itself failure-atomic) while
// detecting idempotent-region boundaries dynamically: a store to a word the
// current region has already read ends the region. At each boundary it
// charges iDO's log record and ordering costs to the engine statistics, so
// the same data-structure code measured under the clobber engine yields the
// Figure 8 comparison.
package ido

import (
	"fmt"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// RegisterSnapshotBytes is the size of the register-file snapshot iDO
// persists at each region boundary: 16 general-purpose registers plus flags
// and the program counter (x86-64), 8 bytes each.
const RegisterSnapshotBytes = 18 * 8

// StackSlotBytes is the per-boundary charge for live stack variables. iDO
// maintains the program stack in NVM and must capture the live frame state
// (key/value pointers, cursors, loop indices — around sixteen 8-byte slots
// for the benchmark transactions) at every region boundary so the region can
// resume; Clobber-NVM records the equivalent once per transaction in its
// v_log. This is the cost §5.4 summarizes as "their logged state at each
// logging point is much larger than Clobber-NVM's".
const StackSlotBytes = 16 * 8

// Meter is the iDO accounting engine. It satisfies txn.Engine so the same
// benchmark code drives it, but it provides no failure atomicity: Recover is
// a no-op, exactly like the measurement-only pass in the paper. In its Stats,
// LogEntries counts region boundaries (iDO's logging points) and LogBytes
// boundary-record bytes.
type Meter struct{ *chassis.Meter }

// New creates an iDO meter over the pool and allocator.
func New(p *nvm.Pool, a *pmem.Allocator) *Meter {
	m := &Meter{}
	m.Meter = chassis.NewMeter("ido", p, func() chassis.Mem { return &tracer{m: m, alloc: a} })
	return m
}

// tracer is the region-tracking memory view.
type tracer struct {
	m     *Meter
	alloc *pmem.Allocator
	// read is the current idempotent region's input set (words).
	read map[uint64]struct{}
	// dirty is the current region's modified line set, flushed at the next
	// boundary.
	dirty map[uint64]struct{}
}

var _ chassis.Mem = (*tracer)(nil)

// Begin is the FASE entry, iDO's first logging point: it must be able to
// resume from the transaction's beginning.
func (t *tracer) Begin(string, *txn.Args) error {
	t.boundary()
	return nil
}

func (t *tracer) Abort(err error) error { return err }

// Commit is the closing boundary: the final region's modified locations are
// flushed and the resume point advances past the FASE.
func (t *tracer) Commit() { t.boundary() }

// boundary closes the current idempotent region: persist the register/stack
// snapshot (log record) and flush+fence the region's modified locations.
func (t *tracer) boundary() {
	p := t.m.Pool()
	for l := range t.dirty {
		p.Flush(l*nvm.LineSize, nvm.LineSize)
	}
	p.CommitFence()
	t.m.Stats().LogEntries.Add(1)
	t.m.Stats().LogBytes.Add(RegisterSnapshotBytes + StackSlotBytes)
	t.m.Probe().LogAppend(obs.KindLogAppend, 0, 0, RegisterSnapshotBytes+StackSlotBytes)
	t.read = make(map[uint64]struct{})
	t.dirty = make(map[uint64]struct{})
}

func (t *tracer) Load(addr uint64, buf []byte) {
	t.trackLoad(addr, uint64(len(buf)))
	t.m.Pool().Load(addr, buf)
}

func (t *tracer) Load64(addr uint64) uint64 {
	t.trackLoad(addr, 8)
	return t.m.Pool().Load64(addr)
}

func (t *tracer) trackLoad(addr, n uint64) {
	if n == 0 {
		return
	}
	for w := addr >> 3; w <= (addr+n-1)>>3; w++ {
		t.read[w] = struct{}{}
	}
}

func (t *tracer) Store(addr uint64, data []byte) {
	t.preStore(addr, uint64(len(data)))
	t.m.Pool().Store(addr, data)
}

func (t *tracer) Store64(addr uint64, v uint64) {
	t.preStore(addr, 8)
	t.m.Pool().Store64(addr, v)
}

// preStore ends the region if this store overwrites a region input (the
// anti-dependence that breaks idempotence), then records the write.
func (t *tracer) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	for w := addr >> 3; w <= (addr+n-1)>>3; w++ {
		if _, ok := t.read[w]; ok {
			t.boundary()
			break
		}
	}
	for l := addr / nvm.LineSize; l <= (addr+n-1)/nvm.LineSize; l++ {
		t.dirty[l] = struct{}{}
	}
}

func (t *tracer) Alloc(size uint64) (txn.Addr, error) {
	return t.alloc.Alloc(0, size)
}

func (t *tracer) Free(addr txn.Addr) error { return t.alloc.Free(addr) }

// String describes the meter configuration.
func (m *Meter) String() string {
	return fmt.Sprintf("ido meter (boundary record = %d B)", RegisterSnapshotBytes+StackSlotBytes)
}
