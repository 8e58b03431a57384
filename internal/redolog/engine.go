// Package redolog implements a Mnemosyne-style redo-logging engine.
//
// Writes inside a transaction are buffered in a volatile write set; at commit
// the write set is serialized to a persistent redo log (flushes but only one
// fence for the whole batch), a commit marker is persisted, and then the
// buffered writes are applied in place. The defining trade-offs the paper
// measures both appear naturally:
//
//   - few ordering fences regardless of transaction size (redo wins on
//     long transactions — the B+tree observation in §5.2), and
//   - every transactional load must consult the write set first, the
//     "longer read path" that costs Mnemosyne on search-heavy workloads
//     (§5.6) — counted in Stats.ReadChecks.
//
// Mnemosyne parallelizes with transactional memory rather than locks; as in
// the paper's comparison, what matters here is the logging strategy, so this
// engine runs on the same chassis as the others (package chassis: slots,
// locking, allocator protocol, recovery loop). Its allocator record is
// published with the redo log, commits with the same marker, and is applied
// with the in-place writes.
package redolog

import (
	"errors"
	"fmt"
	"sort"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

const (
	// phaseApplying is the commit marker: the log is complete, the apply in
	// progress. It stays off chassis.PhaseOngoing, the phase pmem's commit
	// condition reads as "ongoing": this engine has no ongoing marker, and a
	// status word at the record's sequence in any other phase commits the
	// allocator record.
	phaseApplying = 2

	anchorMagic = 0x5245444f // "REDO"

	offStatus = 0
	hdrSize   = 64

	// rootSlot is the pool root slot anchoring this engine.
	rootSlot = 4
)

// Options configures engine creation.
type Options = chassis.Options

// ErrTxTooLarge reports per-transaction log exhaustion.
var ErrTxTooLarge = chassis.ErrTxTooLarge

// Engine is the Mnemosyne-style redo-logging engine.
type Engine struct{ *chassis.Chassis }

func (e *Engine) spec() chassis.Spec {
	return chassis.Spec{
		Name: "mnemosyne", Pkg: "redolog", Root: rootSlot, Magic: anchorMagic, Header: hdrSize,
		NewMem: e.newMem, Recover: recoverSlot,
	}
}

// Create formats a fresh engine on the pool (anchor in root slot 4).
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	e := &Engine{}
	c, err := chassis.Create(p, a, opts, e.spec(), nil)
	if err != nil {
		return nil, err
	}
	e.Chassis = c
	return e, nil
}

// Attach opens a previously created engine.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	e := &Engine{}
	c, _, err := chassis.Attach(p, a, e.spec())
	if err != nil {
		return nil, err
	}
	e.Chassis = c
	return e, nil
}

func (e *Engine) newMem(s *chassis.Slot, seq uint64) chassis.Mem {
	return &mem{e: e, s: s, seq: seq, ws: make(map[uint64]wsEntry)}
}

// Begin persists nothing: the status word only advances at commit.
func (m *mem) Begin(string, *txn.Args) error { return nil }

// Abort discards the transaction: the write set and the reservations are
// volatile, so aborting a redo transaction is trivial.
func (m *mem) Abort(err error) error { return err }

// Commit serializes the write set to the redo log and publishes the
// allocator record beside it (one fence for both), persists the commit
// marker, applies the writes in place and the record to the heap (one fence
// for both), and invalidates the log.
func (m *mem) Commit() {
	s, seq, p := m.s, m.seq, m.e.Pool()
	ranges := m.coalesce()
	// The whole write set goes to the log as one batch: a single staged
	// store, one flush issue set, and the one fence redo discipline needs.
	batch := make([]plog.BatchEntry, len(ranges))
	for i, r := range ranges {
		batch[i] = plog.BatchEntry{Addr: r.addr, Data: r.data}
	}
	nbytes, err := s.Log.AppendBatch(seq, batch, plog.AppendOptions{NoFence: true})
	if err != nil {
		panic(fmt.Errorf("%w: %v", ErrTxTooLarge, err))
	}
	// The fence that follows every in-place apply below has retired the
	// previous transaction's allocator apply.
	s.Tx.Retired()
	s.Tx.Publish(seq)
	// One groupable ordering fence makes the whole batch, and the allocator
	// record, durable before the commit marker below can win.
	p.CommitFence()
	m.e.Stats().LogEntries.Add(int64(len(ranges)))
	m.e.Stats().LogBytes.Add(int64(nbytes))
	m.e.Probe().LogAppend(obs.KindLogAppend, s.ID, seq, nbytes)

	// Commit point: once this marker is durable the transaction wins.
	s.SetStatus(seq, phaseApplying)

	// Apply in place, the writes to their home locations and the allocator
	// record to the heap, and persist both under one fence.
	for _, r := range ranges {
		p.Store(r.addr, r.data)
		p.FlushOpt(r.addr, uint64(len(r.data)))
	}
	s.Tx.Apply()
	p.CommitFence()
	s.Span.FlushFence(len(ranges))

	s.SetStatus(seq, chassis.PhaseIdle)
}

// RunRO implements txn.Engine. Mnemosyne interposes on every transactional
// load, even in read-only transactions — the read path checks the (empty)
// write set, which is precisely the overhead the paper attributes to
// redo-log systems on search-intensive workloads.
func (e *Engine) RunRO(slotID int, fn txn.ROFunc) error {
	if err := txn.CheckSlot(slotID); err != nil || slotID >= len(e.Slots()) {
		return fmt.Errorf("%w: %d", txn.ErrBadSlot, slotID)
	}
	return fn(&mem{e: e, ro: true, ws: make(map[uint64]wsEntry)})
}

// recoverSlot replays a committed-but-unapplied log (roll forward);
// uncommitted transactions left no persistent trace. The phaseApplying
// marker is persisted only after the fence that makes every redo entry
// durable, so at replay time the log is fence-ordered and the strict scan's
// valid-after-invalid corruption test is sound. A corrupt log quarantines
// the slot before ANY entry is applied — a partial redo replay would tear
// the committed state it claims to complete.
func recoverSlot(s *chassis.Slot, seq, phase uint64) (chassis.Outcome, error) {
	p := s.Pool()
	switch phase {
	case phaseApplying:
		entries, err := s.Log.ScanStrict(seq)
		if err != nil {
			return s.Quarantine(fmt.Errorf("redo log: %w", err))
		}
		if !s.InPool(entries) {
			return chassis.Quarantined, nil
		}
		for _, en := range entries {
			p.Store(en.Addr, en.Data)
			p.FlushOpt(en.Addr, uint64(len(en.Data)))
		}
		p.Fence()
		p.Store64(s.Hdr+offStatus, seq<<2|chassis.PhaseIdle)
		p.Persist(s.Hdr+offStatus, 8)
		return chassis.RolledForward, nil
	case chassis.PhaseIdle:
		// Idle. A transaction that started after the last commit but never
		// reached its commit point ran under seq+1 (the status word only
		// advances at commit). It may have written redo entries under seq+1
		// without reaching its commit marker; destroy them so a future
		// attempt reusing that sequence cannot replay them. (Its allocator
		// record, if it got that far, pmem.Attach has already invalidated.)
		s.Log.Invalidate()
		// Invalidate alone is not enough: it destroys only the first
		// entry, while the dead attempt's unfenced batch may have left
		// valid seq+1 entries deeper in the log (eviction persists lines
		// in any order). If the sequence were reused and the new batch
		// came up shorter, a later recovery scan would walk off the end of
		// the fresh entries straight into the stale ones — same sequence,
		// intact checksums — and replay writes whose target addresses have
		// since been reclaimed. Burning the dead sequence in the durable
		// status word makes those entries unreachable under any future
		// scan. Undo engines never face this: their begin record advances
		// the status word before the first log write.
		s.Seq = seq + 1
		p.Store64(s.Hdr+offStatus, s.Seq<<2|chassis.PhaseIdle)
		p.Persist(s.Hdr+offStatus, 8)
		return chassis.Idle, nil
	}
	return s.Corrupt("undefined phase %d", phase)
}

// wsEntry buffers one word of the write set: val holds the bytes, mask marks
// which of the eight bytes were written.
type wsEntry struct {
	val  [8]byte
	mask uint8
}

// mem is the redo transactional memory view: writes buffer, reads overlay.
type mem struct {
	e   *Engine
	s   *chassis.Slot
	seq uint64
	ro  bool

	ws map[uint64]wsEntry
}

var _ txn.Mem = (*mem)(nil)

// Load implements txn.Mem with write-set overlay — the redo read path.
func (m *mem) Load(addr uint64, buf []byte) {
	m.e.Pool().Load(addr, buf)
	n := uint64(len(buf))
	if n == 0 {
		return
	}
	for w := addr >> 3; w <= (addr+n-1)>>3; w++ {
		m.e.Stats().ReadChecks.Add(1)
		en, ok := m.ws[w]
		if !ok {
			continue
		}
		base := w << 3
		for b := 0; b < 8; b++ {
			if en.mask&(1<<b) == 0 {
				continue
			}
			off := base + uint64(b)
			if off >= addr && off < addr+n {
				buf[off-addr] = en.val[b]
			}
		}
	}
}

// Load64 implements txn.Mem.
func (m *mem) Load64(addr uint64) uint64 {
	var buf [8]byte
	m.Load(addr, buf[:])
	return uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
}

// Store implements txn.Mem: buffered until commit.
func (m *mem) Store(addr uint64, data []byte) {
	if m.ro {
		panic("redolog: store in read-only op")
	}
	for i, b := range data {
		off := addr + uint64(i)
		w := off >> 3
		en := m.ws[w]
		en.val[off&7] = b
		en.mask |= 1 << (off & 7)
		m.ws[w] = en
	}
}

// Store64 implements txn.Mem.
func (m *mem) Store64(addr uint64, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	m.Store(addr, buf[:])
}

// Alloc implements txn.Mem: a reservation in the slot's arena, persistent
// only once the transaction commits.
func (m *mem) Alloc(size uint64) (txn.Addr, error) {
	if m.ro {
		return 0, errors.New("redolog: alloc in read-only op")
	}
	return m.s.Alloc(size)
}

// Free implements txn.Mem: the block is queued and goes on the free list when
// the commit is applied.
func (m *mem) Free(addr txn.Addr) error {
	if m.ro {
		return errors.New("redolog: free in read-only op")
	}
	return m.s.Free(addr)
}

// WillStore implements txn.Mem: a redo log needs no pre-images.
func (m *mem) WillStore([]txn.Range) {}

type wrange struct {
	addr uint64
	data []byte
}

// coalesce converts the word-granular write set into maximal contiguous
// ranges, the unit Mnemosyne writes to its redo log.
func (m *mem) coalesce() []wrange {
	if len(m.ws) == 0 {
		return nil
	}
	words := make([]uint64, 0, len(m.ws))
	for w := range m.ws {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })

	var out []wrange
	var cur *wrange
	flushByte := func(off uint64, b byte) {
		if cur != nil && off == cur.addr+uint64(len(cur.data)) {
			cur.data = append(cur.data, b)
			return
		}
		out = append(out, wrange{addr: off})
		cur = &out[len(out)-1]
		cur.data = append(cur.data, b)
	}
	for _, w := range words {
		en := m.ws[w]
		// Unwritten bytes inside a written word must keep their current
		// contents: fill them from the pool so the range apply is exact.
		var cache [8]byte
		if en.mask != 0xFF {
			m.e.Pool().Load(w<<3, cache[:])
		}
		for b := uint64(0); b < 8; b++ {
			if en.mask&(1<<b) != 0 {
				flushByte(w<<3+b, en.val[b])
			} else if en.mask != 0 && cur != nil && w<<3+b == cur.addr+uint64(len(cur.data)) &&
				en.mask>>(b+1) != 0 {
				// Bridge an interior gap within the word with cached bytes
				// to keep ranges contiguous (fewer log entries).
				flushByte(w<<3+b, cache[b])
			}
		}
	}
	return out
}
