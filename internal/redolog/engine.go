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
// engine uses the same slot/locking discipline as the others — and the same
// allocator protocol: Alloc and Free reserve on the slot's pmem.Tx, whose
// redo record is published with the redo log, commits with the same marker,
// and is applied with the in-place writes.
package redolog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

const (
	phaseIdle = 0
	// phaseApplying is the commit marker: the log is complete, the apply in
	// progress. It stays off 1, the phase pmem's commit condition reads as
	// "ongoing": this engine has no ongoing marker, and a status word at the
	// record's sequence in any other phase commits the allocator record.
	phaseApplying = 2

	anchorMagic = 0x5245444f // "REDO"

	offStatus = 0
	hdrSize   = 64
)

// rootSlot is the pool root slot anchoring this engine.
const rootSlot = 4

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
var ErrTxTooLarge = errors.New("redolog: transaction exceeds log capacity")

// Engine is the Mnemosyne-style redo-logging engine.
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

	// quarantined records why attach/recovery set this slot aside.
	quarantined error
}

// Create formats a fresh engine on the pool (anchor in root slot 4).
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.fill()
	e := &Engine{pool: p, alloc: a, opts: opts}
	e.probe = obs.NewProbe(e.Name())

	anchorSize := uint64(16 + opts.Slots*8)
	anchor, err := a.Alloc(0, anchorSize)
	if err != nil {
		return nil, fmt.Errorf("redolog: create anchor: %w", err)
	}
	p.Store64(anchor, anchorMagic)
	p.Store64(anchor+8, uint64(opts.Slots))

	slotSize := hdrSize + plog.DataLogSize(opts.DataLogCap)

	for i := 0; i < opts.Slots; i++ {
		base, err := a.Alloc(i, slotSize)
		if err != nil {
			return nil, fmt.Errorf("redolog: create slot %d: %w", i, err)
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
			return nil, fmt.Errorf("redolog: create slot %d: %w", i, err)
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
		return nil, errors.New("redolog: pool has no redo engine")
	}
	n := int(p.Load64(anchor + 8))
	if n <= 0 || n > txn.MaxSlots {
		return nil, fmt.Errorf("redolog: corrupt anchor: %d slots", n)
	}
	if anchor+16+uint64(n)*8 > p.Size() {
		return nil, errors.New("redolog: corrupt anchor: slot table outside pool")
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
			e.quarantine(s, fmt.Errorf("redolog: slot %d: %w", i, err))
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
func (e *Engine) Name() string { return "mnemosyne" }

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
		return fmt.Errorf("%w: redolog slot %d: %v", txn.ErrSlotQuarantined, s.id, s.quarantined)
	}

	if args == nil {
		args = txn.NoArgs
	}
	sp := e.probe.Start(s.id, name)
	seq := s.seq + 1
	s.seq = seq
	s.dlog.Reset()
	sp.BeginDone(seq)

	m := &mem{e: e, s: s, seq: seq, ws: make(map[uint64]wsEntry)}
	// Whatever way the txfunc leaves without committing — error, panic,
	// simulated crash — its reservations are dropped and the arena released.
	defer s.tx.Abort()
	if err := fn(m, args); err != nil {
		// Aborting a redo transaction is trivial: the write set and the
		// reservations are volatile, and both are discarded.
		sp.Aborted()
		return err
	}
	sp.ExecDone()
	e.commit(s, seq, m, &sp)
	e.stats.Committed.Add(1)
	sp.Committed(false)
	return nil
}

// commit serializes the write set to the redo log and publishes the allocator
// record beside it (one fence for both), persists the commit marker, applies
// the writes in place and the record to the heap (one fence for both), and
// invalidates the log.
func (e *Engine) commit(s *slot, seq uint64, m *mem, sp *obs.Span) {
	p := e.pool
	ranges := m.coalesce()
	// The whole write set goes to the log as one batch: a single staged
	// store, one flush issue set, and the one fence redo discipline needs.
	batch := make([]plog.BatchEntry, len(ranges))
	for i, r := range ranges {
		batch[i] = plog.BatchEntry{Addr: r.addr, Data: r.data}
	}
	nbytes, err := s.dlog.AppendBatch(seq, batch, plog.AppendOptions{NoFence: true})
	if err != nil {
		panic(fmt.Errorf("%w: %v", ErrTxTooLarge, err))
	}
	// The fence that follows every in-place apply below has retired the
	// previous transaction's allocator apply.
	s.tx.Retired()
	s.tx.Publish(seq)
	// One groupable ordering fence makes the whole batch, and the allocator
	// record, durable before the commit marker below can win.
	p.CommitFence()
	e.stats.LogEntries.Add(int64(len(ranges)))
	e.stats.LogBytes.Add(int64(nbytes))
	e.probe.LogAppend(obs.KindLogAppend, s.id, seq, nbytes)

	// Commit point: once this marker is durable the transaction wins.
	p.Store64(s.hdr+offStatus, seq<<2|phaseApplying)
	p.CommitPersist(s.hdr+offStatus, 8)

	// Apply in place, the writes to their home locations and the allocator
	// record to the heap, and persist both under one fence.
	for _, r := range ranges {
		p.Store(r.addr, r.data)
		p.FlushOpt(r.addr, uint64(len(r.data)))
	}
	s.tx.Apply()
	p.CommitFence()
	sp.FlushFence(len(ranges))

	p.Store64(s.hdr+offStatus, seq<<2|phaseIdle)
	p.CommitPersist(s.hdr+offStatus, 8)
}

// RunRO implements txn.Engine. Mnemosyne interposes on every transactional
// load, even in read-only transactions — the read path checks the (empty)
// write set, which is precisely the overhead the paper attributes to
// redo-log systems on search-intensive workloads.
func (e *Engine) RunRO(slotID int, fn txn.ROFunc) error {
	if err := txn.CheckSlot(slotID); err != nil || slotID >= len(e.slots) {
		return fmt.Errorf("%w: %d", txn.ErrBadSlot, slotID)
	}
	m := &mem{e: e, s: e.slots[slotID], ro: true, ws: make(map[uint64]wsEntry)}
	return fn(m)
}

// Recover implements txn.Engine: committed-but-unapplied logs are replayed
// (roll forward); uncommitted transactions left no persistent trace.
func (e *Engine) Recover() (int, error) {
	rep, err := e.RecoverReport()
	return rep.Recovered, err
}

// RecoverReport implements txn.RecoveryReporter. The phaseApplying marker is
// persisted only after the fence that makes every redo entry durable, so at
// replay time the log is fence-ordered and the strict scan's
// valid-after-invalid corruption test is sound. A corrupt log quarantines
// the slot before ANY entry is applied — a partial redo replay would tear
// the committed state it claims to complete. The heap needs no step:
// pmem.Attach has already settled every arena by its redo record, applying
// the one a durable commit marker committed and discarding any other.
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
			e.quarantine(s, fmt.Errorf("%w: redolog slot %d: recovery panic: %v", txn.ErrCorruptLog, s.id, r))
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
	case phaseApplying:
		entries, err := s.dlog.ScanStrict(seq)
		if err != nil {
			e.quarantine(s, fmt.Errorf("redolog: slot %d: redo log: %w", s.id, err))
			return
		}
		for _, en := range entries {
			if end := en.Addr + uint64(len(en.Data)); end > p.Size() || end < en.Addr {
				e.quarantine(s, fmt.Errorf("%w: redolog slot %d: log entry addresses [%#x,%#x) outside pool",
					txn.ErrCorruptLog, s.id, en.Addr, end))
				return
			}
		}
		for _, en := range entries {
			p.Store(en.Addr, en.Data)
			p.FlushOpt(en.Addr, uint64(len(en.Data)))
		}
		p.Fence()
		p.Store64(s.hdr+offStatus, seq<<2|phaseIdle)
		p.Persist(s.hdr+offStatus, 8)
		e.stats.Recovered.Add(1)
		e.probe.RecoveryEvent(s.id, seq, "")
		rep.Recovered++
		rep.RolledForward++
	case phaseIdle:
		// Idle. A transaction that started after the last commit but never
		// reached its commit point ran under seq+1 (the status word only
		// advances at commit). It may have written redo entries under seq+1
		// without reaching its commit marker; destroy them so a future
		// attempt reusing that sequence cannot replay them. (Its allocator
		// record, if it got that far, pmem.Attach has already invalidated.)
		s.dlog.Invalidate()
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
		s.seq = seq + 1
		p.Store64(s.hdr+offStatus, s.seq<<2|phaseIdle)
		p.Persist(s.hdr+offStatus, 8)
	default:
		e.quarantine(s, fmt.Errorf("%w: redolog slot %d: undefined phase %d", txn.ErrCorruptLog, s.id, phase))
	}
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
	s   *slot
	seq uint64
	ro  bool

	ws map[uint64]wsEntry
}

var _ txn.Mem = (*mem)(nil)

// Load implements txn.Mem with write-set overlay — the redo read path.
func (m *mem) Load(addr uint64, buf []byte) {
	m.e.pool.Load(addr, buf)
	n := uint64(len(buf))
	if n == 0 {
		return
	}
	for w := addr >> 3; w <= (addr+n-1)>>3; w++ {
		m.e.stats.ReadChecks.Add(1)
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
	addr, err := m.s.tx.Alloc(size)
	return addr, tooLarge(err)
}

// Free implements txn.Mem: the block is queued and goes on the free list when
// the commit is applied.
func (m *mem) Free(addr txn.Addr) error {
	if m.ro {
		return errors.New("redolog: free in read-only op")
	}
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
			m.e.pool.Load(w<<3, cache[:])
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
