package ido

import (
	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// JustDoMeter models JUSTDO logging (Izraelevitz et al., ASPLOS '16), iDO's
// predecessor and the original recovery-via-resumption system the paper
// contrasts with (§6): before EVERY store it logs and persists the program
// counter, the target address and the value to be written, so that recovery
// can resume from the interrupted instruction. JUSTDO assumes persistent
// caches precisely because this per-store log-and-fence discipline is
// ruinous on conventional machines — which is the comparison the meter
// quantifies. In its Stats, LogEntries counts per-store records. JUSTDO
// forbids volatile data during FASEs but reads of persistent state are
// direct (RunRO).
//
// Like the iDO Meter, this is an accounting instrument (the paper's own
// JUSTDO numbers come from re-implementation too), not a recoverable engine.
type JustDoMeter struct{ *chassis.Meter }

// JustDoRecordBytes is one JUSTDO log record: program counter, target
// address, value (8 bytes each).
const JustDoRecordBytes = 3 * 8

// NewJustDo creates a JUSTDO meter over the pool and allocator.
func NewJustDo(p *nvm.Pool, a *pmem.Allocator) *JustDoMeter {
	m := &JustDoMeter{}
	m.Meter = chassis.NewMeter("justdo", p, func() chassis.Mem { return justdoMem{m, a} })
	return m
}

// justdoMem charges one persisted record — flush + fence — per store.
type justdoMem struct {
	m     *JustDoMeter
	alloc *pmem.Allocator
}

var _ chassis.Mem = justdoMem{}

func (j justdoMem) Begin(string, *txn.Args) error { return nil }
func (j justdoMem) Abort(err error) error         { return err }
func (j justdoMem) Commit()                       {}

func (j justdoMem) Load(addr uint64, buf []byte) { j.m.Pool().Load(addr, buf) }
func (j justdoMem) Load64(addr uint64) uint64    { return j.m.Pool().Load64(addr) }

func (j justdoMem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	// One record per stored word: JUSTDO's log granularity is the
	// individual store instruction.
	words := int64((n + 7) / 8)
	j.m.Stats().LogEntries.Add(words)
	j.m.Stats().LogBytes.Add(words * JustDoRecordBytes)
	// The record must be durable before the store executes.
	for i := int64(0); i < words; i++ {
		j.m.Pool().Flush(addr, 8)
		j.m.Pool().CommitFence()
	}
}

func (j justdoMem) Store(addr uint64, data []byte) {
	j.preStore(addr, uint64(len(data)))
	j.m.Pool().Store(addr, data)
}

func (j justdoMem) Store64(addr uint64, v uint64) {
	j.preStore(addr, 8)
	j.m.Pool().Store64(addr, v)
}

func (j justdoMem) Alloc(size uint64) (txn.Addr, error) { return j.alloc.Alloc(0, size) }
func (j justdoMem) Free(addr txn.Addr) error            { return j.alloc.Free(addr) }
