// Package nvm simulates byte-addressable non-volatile memory with a volatile
// CPU cache in front of it.
//
// The simulation mirrors the machine model of Clobber-NVM (ASPLOS '21):
// a pool of persistent memory is accessed with loads and stores through a
// write-back cache of 64-byte lines. Stores land in the cache and are NOT
// durable until the line has been explicitly flushed (Flush, or FlushOpt
// followed by Fence) and a subsequent Fence has completed. A simulated power
// failure (Crash) discards the cache: each dirty line independently either
// reaches the media (the hardware happened to evict it) or is lost — whole,
// or as a torn prefix of 8-byte words under EvictTorn — modelling the
// uncontrolled eviction order and 8-byte persistence atomicity of real
// caches.
//
// The pool keeps one array, mem: the coherent view every CPU sees. Under a
// write-back cache the durable view differs from it only in the dirty lines,
// so for each line a precise-mode store moves from clean to dirty the pool
// also keeps the line's 64-byte pre-image — its durable contents. The
// durable view is mem with every pre-image laid over it.
//
// Flush makes lines durable immediately, dropping their pre-images.
// FlushOpt only marks lines flush-pending; they become durable at the next
// Fence. Crash applies the configured EvictPolicy to the remaining dirty
// lines by putting back none, all or a word suffix of each pre-image, so it
// costs time in the dirty lines, not the pool size.
//
// The pool also carries the cost model: Flush and Fence spin for a
// configurable simulated latency so that benchmark wall-clock times reflect
// the ordering-instruction costs the paper measures, and every primitive is
// counted so log-traffic figures can be derived exactly.
//
// # Fast and precise modes
//
// The pool runs in one of two bookkeeping modes. In the default precise
// mode every Store, per-line flush issue and Fence is also a persist-point
// event: it ticks the crash-injection counters so an exhaustive sweep can
// enumerate and target every point. In fast mode (SetFastPath(true)) the
// per-event tick is skipped, multi-line operations batch their counter
// updates, and — because the durable view can only be observed at a
// quiescent point — durability is deferred: stores update the coherent view
// lock-free and keep no pre-images, flushes and fences only accrue latency
// debt, and the durable view is settled when the pool leaves fast mode (or
// is crashed, snapshotted or saved) by forgetting every tracked line. That
// conservatively treats every written line as having reached the media,
// which is indistinguishable from a run with no crash in it — exactly the
// regime fast mode is for. Arming a crash (ScheduleCrashAt), resetting the
// persist-point counters (ResetPersistPoints) or restoring an image
// (Restore) forces the pool back to precise mode — settling the durable
// view first — so fault injection can never silently run over the
// uncounted path. Switching modes requires external
// quiescence, like Crash and Snapshot.
package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"clobbernvm/internal/obs"
)

// LineSize is the simulated cache-line size in bytes.
const LineSize = 64

// HeaderSize is the number of bytes at the start of every pool reserved for
// pool metadata: the magic number and the named root-slot table. The
// persistent heap managed by package pmem begins at HeaderSize.
const HeaderSize = 4096

// NumRootSlots is the number of 8-byte named root slots in the pool header.
// Engines and applications anchor their persistent structures here.
const NumRootSlots = 64

const (
	magicOffset = 0
	rootsOffset = 64                 // root slot i lives at rootsOffset + 8*i
	poolMagic   = 0x434c4f42424e564d // "CLOBBNVM"
)

// ErrCrash is the panic value raised when a scheduled crash point is reached.
// Harnesses recover() it, call (*Pool).Crash, and then run engine recovery.
var ErrCrash = errors.New("nvm: simulated power failure")

// ErrOutOfRange reports an access outside the pool.
var ErrOutOfRange = errors.New("nvm: address out of range")

// dirtyShards is the number of line-group shards serializing precise-mode
// stores against flushes and drains of the same lines. The shard granule is
// one bitmap word (64 lines = 4 KiB), so a multi-line store or flush takes
// one lock per group rather than one per line.
const dirtyShards = 64

// lineShard is one line-group lock plus the pre-images of the dirty lines
// it covers, padded to its own cache line so unrelated shards do not
// false-share under multi-threaded stores.
type lineShard struct {
	mu sync.Mutex
	// pre maps a dirty line to its durable bytes. Written only under mu,
	// and only by precise-mode stores; nil while the shard holds none.
	pre map[uint64][LineSize]byte
	_   [64 - 16]byte
}

// Pool is a simulated NVM region plus its cache model.
//
// Concurrent use: Load/Store/Flush/FlushOpt/FlushOptLines/Fence are safe for
// concurrent use by multiple goroutines provided the application serializes
// conflicting accesses to the same addresses (the locking discipline every
// engine in this repository requires anyway, mirroring the paper's strong
// strict two-phase locking model). Crash, Snapshot, Restore and SaveImage
// require external quiescence.
type Pool struct {
	// mem is the coherent CPU view; the durable view is mem with the
	// shards' pre-images laid over it.
	mem []byte

	// Dirty/pending line tracking. A set bit in dirtyBits means the line
	// differs (or may differ) from its durable contents; a set bit in
	// pendingBits means the line was issued via FlushOpt and becomes
	// durable at the next Fence. Bit l&63 of word l>>6 covers line l. In
	// precise mode a line's dirty bit changes only under its shard lock,
	// together with its pre-image, so under that lock a line is dirty
	// exactly when its shard holds a pre-image for it. Fast mode sets
	// dirty bits lock-free and keeps no pre-images.
	dirtyBits    []atomic.Uint64
	pendingBits  []atomic.Uint64
	shards       [dirtyShards]lineShard
	pendingCount atomic.Int64

	// pendWords lists bitmap word indexes that (may) hold pending bits, so
	// Fence drains in time proportional to the lines actually flushed
	// rather than scanning the whole bitmap. Guarded by pendMu; drainMu
	// serializes concurrent Fence drains so the spare buffer can be
	// recycled without an allocation per fence.
	pendMu    sync.Mutex
	pendWords []uint32
	pendSpare []uint32
	drainMu   sync.Mutex

	// fast selects the fast bookkeeping mode: persist-point ticks are
	// skipped and stats updates are batched. Forced back to false by
	// ScheduleCrashAt, ResetPersistPoints and Restore.
	fast atomic.Bool

	// latDebt accrues simulated flush/fence nanoseconds in fast mode; it is
	// paid with a yielding wait at fence points once it crosses
	// latDebtPayNS, so concurrent workers overlap device latency with
	// compute the way per-thread persist pipelines do on real hardware.
	// Precise mode pays latency inline and never touches it.
	latDebt atomic.Int64

	// gc, when non-nil, is the epoch-based group-commit coordinator
	// CommitFence enlists in (see groupcommit.go). Nil — the default —
	// makes CommitFence exactly Fence.
	gc atomic.Pointer[groupCommitter]

	lat   Latency
	stats Stats

	// crashAt, when > 0, is the 1-based ordinal of the crashKind event at
	// which the pool panics with ErrCrash. 0 disables crash injection.
	crashAt   atomic.Int64
	crashKind atomic.Int64 // CrashKind the schedule is armed for

	// crashed latches once a scheduled crash fires: the power is out, so
	// every subsequent persistence event — from any goroutine — also panics
	// with ErrCrash until Crash (or Restore / a fresh ScheduleCrashAt)
	// acknowledges the failure. Without the latch a multi-threaded workload
	// would keep storing and flushing "after" the power failure, corrupting
	// the durable image a concurrent fault-injection harness is about to
	// audit.
	crashed atomic.Bool

	// Persistence-event counters, reset by ScheduleCrashAt and
	// ResetPersistPoints. anyEvents is the total across kinds and is what
	// an exhaustive sweep enumerates. Only maintained in precise mode.
	storeEvents atomic.Int64
	flushEvents atomic.Int64
	fenceEvents atomic.Int64
	anyEvents   atomic.Int64

	// evict is the crash-time fate of dirty lines; evictProb applies
	// under EvictRandom only.
	evict     EvictPolicy
	evictProb float64
	rngMu     sync.Mutex
	rng       *rand.Rand
}

// Option configures a Pool at creation time.
type Option func(*Pool)

// WithLatency sets the simulated cost model. The zero Latency disables all
// simulated delays (counters are always maintained).
func WithLatency(l Latency) Option { return func(p *Pool) { p.lat = l } }

// WithEvictProbability sets the probability that a dirty (unflushed) line
// nevertheless reaches the media during a crash, modelling background cache
// eviction. Default 0.5. Applies under EvictRandom.
func WithEvictProbability(q float64) Option {
	return func(p *Pool) { p.evictProb = q }
}

// WithEviction selects the crash-time eviction policy for dirty lines.
// Default EvictRandom.
func WithEviction(e EvictPolicy) Option {
	return func(p *Pool) { p.evict = e }
}

// WithSeed seeds the pool's private RNG (used only for crash eviction luck).
func WithSeed(seed int64) Option {
	return func(p *Pool) { p.rng = rand.New(rand.NewSource(seed)) }
}

// New creates a pool of the given size in bytes. Size is rounded up to a
// multiple of LineSize and must exceed HeaderSize. The pool starts in
// precise mode.
func New(size uint64, opts ...Option) *Pool {
	if size < HeaderSize+LineSize {
		size = HeaderSize + LineSize
	}
	if r := size % LineSize; r != 0 {
		size += LineSize - r
	}
	words := (size/LineSize + 63) / 64
	p := &Pool{
		mem:         make([]byte, size),
		evictProb:   0.5,
		rng:         rand.New(rand.NewSource(1)),
		dirtyBits:   make([]atomic.Uint64, words),
		pendingBits: make([]atomic.Uint64, words),
		pendWords:   make([]uint32, 0, 256),
		pendSpare:   make([]uint32, 0, 256),
	}
	for _, o := range opts {
		o(p)
	}
	binary.LittleEndian.PutUint64(p.mem[magicOffset:], poolMagic)
	return p
}

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return uint64(len(p.mem)) }

// Prefault does nothing: the pool's pages fault in on first touch, inside
// whatever touches them first, measured or not. Setups call it before
// starting timers, as the one place that would make pages resident.
// Touching them for real (a store of a just-loaded byte does not: the
// compiler removes it) would make a whole pool resident up front, 512 MiB
// for the served pool, so it changes every setup's resident set and needs
// its own measurement.
func (p *Pool) Prefault() {}

// HeapBase returns the first address usable by an allocator.
func (p *Pool) HeapBase() uint64 { return HeaderSize }

// RootSlot returns the address of named root slot i (0 <= i < NumRootSlots).
func (p *Pool) RootSlot(i int) uint64 {
	if i < 0 || i >= NumRootSlots {
		panic(fmt.Sprintf("nvm: root slot %d out of range", i))
	}
	return rootsOffset + uint64(8*i)
}

// SetFastPath switches the pool between fast (true) and precise (false)
// bookkeeping. See the package comment; benchmark harnesses enable the fast
// path, fault-injection harnesses rely on the precise default. Arming a
// crash or resetting the persist-point counters forces precise mode again.
// Leaving fast mode syncs the deferred durable view. The caller must
// quiesce the pool around the switch.
func (p *Pool) SetFastPath(on bool) {
	if !on && p.fast.Swap(false) {
		p.clearTracking()
		return
	}
	p.fast.Store(on)
}

// FastPath reports whether the pool is in fast bookkeeping mode.
func (p *Pool) FastPath() bool { return p.fast.Load() }

func (p *Pool) check(addr, n uint64) {
	if addr+n > uint64(len(p.mem)) || addr+n < addr {
		panic(fmt.Errorf("%w: [%#x,%#x) size %#x", ErrOutOfRange, addr, addr+n, len(p.mem)))
	}
}

// onesRange returns a mask with bits [a,b] (inclusive, 0 <= a <= b <= 63) set.
func onesRange(a, b uint64) uint64 {
	return (^uint64(0) >> (63 - (b - a))) << a
}

// Load copies len(buf) bytes starting at addr into buf. Loads always observe
// the coherent view (cache contents included).
func (p *Pool) Load(addr uint64, buf []byte) {
	p.check(addr, uint64(len(buf)))
	h := &p.stats.hot[stripeOf(addr)]
	h.loads.Add(1)
	h.bytesLoaded.Add(int64(len(buf)))
	copy(buf, p.mem[addr:])
}

// Load64 reads a little-endian uint64 at addr.
func (p *Pool) Load64(addr uint64) uint64 {
	p.check(addr, 8)
	h := &p.stats.hot[stripeOf(addr)]
	h.loads.Add(1)
	h.bytesLoaded.Add(8)
	return binary.LittleEndian.Uint64(p.mem[addr:])
}

// Store writes data at addr into the cache (NOT durable until flushed and
// fenced). If a crash has been scheduled and this store reaches the crash
// ordinal, Store panics with ErrCrash after applying the write.
//
// In precise mode the write is applied under the covering line-group locks,
// after the pre-image of every line it turns dirty is kept, so that a
// concurrent Flush of the same line (by another thread persisting its own
// neighbouring object) can never make a torn 8-byte value durable.
func (p *Pool) Store(addr uint64, data []byte) {
	p.check(addr, uint64(len(data)))
	if p.crashed.Load() {
		// The write is refused, not just the tick: a store issued after the
		// power-failure instant must never reach even the cache, or crash-time
		// eviction could leak it into the durable image.
		panic(ErrCrash)
	}
	h := &p.stats.hot[stripeOf(addr)]
	h.stores.Add(1)
	h.bytesStored.Add(int64(len(data)))
	if n := uint64(len(data)); n > 0 && addr%LineSize == 0 && n%LineSize == 0 {
		// Line-aligned whole-line image: the write-combined log emission
		// signature. Counted per line so multi-line streams accumulate.
		k := int64(n / LineSize)
		h.lineStores.Add(k)
		if obs.Enabled() {
			obsPoolLineStores.Add(0, k)
		}
	}
	if len(data) > 0 {
		p.storeBytes(addr, data)
	}
	if !p.fast.Load() {
		p.tick(CrashAtStore)
	}
}

// storeBytes copies data into the coherent view and marks the covered lines
// dirty. Lines are handled one bitmap word (64 lines) at a time: a single
// lock acquisition and a single atomic Or cover every line the write touches
// within the group.
func (p *Pool) storeBytes(addr uint64, data []byte) {
	n := uint64(len(data))
	first, last := addr/LineSize, (addr+n-1)/LineSize
	if p.fast.Load() {
		// Fast mode defers durability until the durable view is settled,
		// so no flush or drain touches these lines concurrently and the
		// copy needs no lock and keeps no pre-image. Dirty bits still
		// accumulate for DirtyLines.
		copy(p.mem[addr:addr+n], data)
		for w := first >> 6; w <= last>>6; w++ {
			loLine, hiLine := max(w<<6, first), min(w<<6|63, last)
			p.dirtyBits[w].Or(onesRange(loLine&63, hiLine&63))
		}
		return
	}
	for w := first >> 6; w <= last>>6; w++ {
		loLine, hiLine := w<<6, w<<6|63
		if loLine < first {
			loLine = first
		}
		if hiLine > last {
			hiLine = last
		}
		lo, hi := loLine*LineSize, (hiLine+1)*LineSize
		if lo < addr {
			lo = addr
		}
		if hi > addr+n {
			hi = addr + n
		}
		s := &p.shards[w&(dirtyShards-1)]
		s.mu.Lock()
		p.markDirty(s, w, onesRange(loLine&63, hiLine&63))
		copy(p.mem[lo:hi], data[lo-addr:hi-addr])
		s.mu.Unlock()
	}
}

// markDirty marks the lines of mask in bitmap word w dirty, first keeping
// the current bytes of each line that was clean as its pre-image. The
// caller holds the word's shard lock and calls it before changing the
// bytes; precise mode only.
func (p *Pool) markDirty(s *lineShard, w, mask uint64) {
	clean := mask &^ p.dirtyBits[w].Load()
	if clean == 0 {
		return
	}
	if s.pre == nil {
		s.pre = make(map[uint64][LineSize]byte)
	}
	for m := clean; m != 0; m &= m - 1 {
		l := w<<6 | uint64(bits.TrailingZeros64(m))
		s.pre[l] = [LineSize]byte(p.mem[l*LineSize:])
	}
	p.dirtyBits[w].Or(clean)
}

// markClean marks the lines of mask in bitmap word w clean: their coherent
// bytes are now durable, so their pre-images are dropped. The caller holds
// the word's shard lock.
func (p *Pool) markClean(s *lineShard, w, mask uint64) {
	for m := mask & p.dirtyBits[w].And(^mask); m != 0; m &= m - 1 {
		delete(s.pre, w<<6|uint64(bits.TrailingZeros64(m)))
	}
}

// Store64 writes a little-endian uint64 at addr.
func (p *Pool) Store64(addr uint64, v uint64) {
	p.check(addr, 8)
	if p.crashed.Load() {
		panic(ErrCrash) // see Store: refuse post-failure writes entirely
	}
	h := &p.stats.hot[stripeOf(addr)]
	h.stores.Add(1)
	h.bytesStored.Add(8)
	if l := addr / LineSize; (addr+7)/LineSize == l {
		w := l >> 6
		if p.fast.Load() {
			binary.LittleEndian.PutUint64(p.mem[addr:], v)
			p.dirtyBits[w].Or(uint64(1) << (l & 63))
			return
		}
		s := &p.shards[w&(dirtyShards-1)]
		s.mu.Lock()
		p.markDirty(s, w, uint64(1)<<(l&63))
		binary.LittleEndian.PutUint64(p.mem[addr:], v)
		s.mu.Unlock()
	} else {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		p.storeBytes(addr, buf[:])
	}
	if !p.fast.Load() {
		p.tick(CrashAtStore)
	}
}

// tick records one persistence event of the given kind and fires the
// scheduled crash if this event reaches the armed ordinal. It must only be
// called while holding no pool-internal lock: the ErrCrash panic unwinds
// through the caller and a held shard mutex would wedge the pool for the
// recovery attempt that follows. Only the precise mode calls tick.
func (p *Pool) tick(kind CrashKind) {
	if p.crashed.Load() {
		// Power already failed (another thread hit the armed ordinal):
		// nothing executes after the failure instant.
		panic(ErrCrash)
	}
	var n int64
	switch kind {
	case CrashAtStore:
		n = p.storeEvents.Add(1)
	case CrashAtFlush:
		n = p.flushEvents.Add(1)
	case CrashAtFence:
		n = p.fenceEvents.Add(1)
	}
	any := p.anyEvents.Add(1)
	at := p.crashAt.Load()
	if at <= 0 {
		return
	}
	armed := CrashKind(p.crashKind.Load())
	var cmp int64
	switch {
	case armed == CrashAtAny:
		cmp = any
	case armed == kind:
		cmp = n
	default:
		return
	}
	if cmp == at {
		switch kind {
		case CrashAtStore:
			p.stats.CrashesAtStore.Add(1)
		case CrashAtFlush:
			p.stats.CrashesAtFlush.Add(1)
		case CrashAtFence:
			p.stats.CrashesAtFence.Add(1)
		}
		p.crashed.Store(true)
		panic(ErrCrash)
	}
}

// ScheduleCrash arms crash injection: the pool panics with ErrCrash on the
// n-th subsequent store (n >= 1). ScheduleCrash(0) disarms. It is the
// historical API, equivalent to ScheduleCrashAt(CrashAtStore, n).
func (p *Pool) ScheduleCrash(n int64) { p.ScheduleCrashAt(CrashAtStore, n) }

// ScheduleCrashAt arms crash injection at the n-th subsequent persistence
// event of the given kind (n >= 1): a store, a per-line flush issue (Flush
// or FlushOpt), a fence, or — with CrashAtAny — the n-th event of any kind.
// All persist-point counters are reset, so the ordinal is relative to this
// call, and the pool is forced back to precise mode so every event is
// counted. n == 0 disarms.
func (p *Pool) ScheduleCrashAt(kind CrashKind, n int64) {
	p.ResetPersistPoints()
	p.crashed.Store(false)
	p.crashKind.Store(int64(kind))
	p.crashAt.Store(n)
}

// Crashed reports whether a scheduled crash has fired and the pool is still
// in the powered-off state (every persistence event panics with ErrCrash).
// Crash, Restore and ScheduleCrashAt clear it.
func (p *Pool) Crashed() bool { return p.crashed.Load() }

// CrashScheduled reports whether crash injection is armed and has not fired.
func (p *Pool) CrashScheduled() bool {
	at := p.crashAt.Load()
	if at <= 0 {
		return false
	}
	switch CrashKind(p.crashKind.Load()) {
	case CrashAtStore:
		return p.storeEvents.Load() < at
	case CrashAtFlush:
		return p.flushEvents.Load() < at
	case CrashAtFence:
		return p.fenceEvents.Load() < at
	default:
		return p.anyEvents.Load() < at
	}
}

// PersistPointCount returns the number of persistence events (stores,
// per-line flush issues, fences) observed since the last ScheduleCrashAt or
// ResetPersistPoints. A harness runs a workload once under this counter to
// enumerate every crash site, then sweeps ScheduleCrashAt(CrashAtAny, i)
// for i in [1, PersistPointCount()].
func (p *Pool) PersistPointCount() int64 { return p.anyEvents.Load() }

// PersistPoints returns the event count for one crash kind since the last
// reset. PersistPoints(CrashAtAny) equals PersistPointCount.
func (p *Pool) PersistPoints(kind CrashKind) int64 {
	switch kind {
	case CrashAtStore:
		return p.storeEvents.Load()
	case CrashAtFlush:
		return p.flushEvents.Load()
	case CrashAtFence:
		return p.fenceEvents.Load()
	default:
		return p.anyEvents.Load()
	}
}

// ResetPersistPoints zeroes the persist-point counters (and therefore the
// base that a subsequently scheduled crash ordinal is measured from) and
// forces the pool into precise mode so subsequent events are counted.
func (p *Pool) ResetPersistPoints() {
	if p.fast.Swap(false) {
		p.clearTracking()
	}
	p.latDebt.Store(0)
	p.storeEvents.Store(0)
	p.flushEvents.Store(0)
	p.fenceEvents.Store(0)
	p.anyEvents.Store(0)
}

// Flush writes every cache line covering [addr, addr+n) to the media and
// pays the flush latency once per line (modelling clflush: strongly ordered,
// durable immediately). Ordering with respect to later stores still requires
// a Fence.
func (p *Pool) Flush(addr, n uint64) {
	if n == 0 {
		return
	}
	p.check(addr, n)
	first, last := addr/LineSize, (addr+n-1)/LineSize
	k := int64(last - first + 1)
	h := &p.stats.hot[stripeOf(addr)]
	if p.fast.Load() {
		// Deferred-media mode: the lines stay dirty until the durable view
		// is settled; only the latency is modelled here.
		h.flushes.Add(k)
		p.latDebt.Add(int64(p.lat.FlushNS) * k)
	} else {
		for l := first; l <= last; l++ {
			h.flushes.Add(1)
			p.flushLinePrecise(l)
		}
		spin(p.lat.FlushNS * int(k))
	}
}

// flushLinePrecise persists one line with exact event accounting: the tick
// fires before the line is made durable, so a crash landing on this flush
// means the line did NOT reach the media.
func (p *Pool) flushLinePrecise(l uint64) {
	p.tick(CrashAtFlush)
	w, bit := l>>6, uint64(1)<<(l&63)
	if old := p.pendingBits[w].And(^bit); old&bit != 0 {
		p.pendingCount.Add(-1)
	}
	s := &p.shards[w&(dirtyShards-1)]
	s.mu.Lock()
	p.markClean(s, w, bit)
	s.mu.Unlock()
}

// FlushOpt is the weakly ordered flush variant (clflushopt/clwb): it only
// marks the covered lines flush-pending. They become durable at the next
// Fence — until then a crash treats them like any other dirty line, so an
// engine that issues FlushOpt but forgets the fence is actually catchable by
// the crash adversary. Counted in both Flushes (total flush issues) and
// FlushOpts (the weak subset).
func (p *Pool) FlushOpt(addr, n uint64) {
	if n == 0 {
		return
	}
	p.check(addr, n)
	first, last := addr/LineSize, (addr+n-1)/LineSize
	k := int64(last - first + 1)
	h := &p.stats.hot[stripeOf(addr)]
	if p.fast.Load() {
		// Deferred-media mode: weak and strong flushes converge — the lines
		// stay dirty until the durable view is settled and only latency is
		// modelled.
		h.flushes.Add(k)
		h.flushOpts.Add(k)
		p.latDebt.Add(int64(p.lat.FlushNS) * k)
		return
	}
	for w := first >> 6; w <= last>>6; w++ {
		loLine, hiLine := w<<6, w<<6|63
		if loLine < first {
			loLine = first
		}
		if hiLine > last {
			hiLine = last
		}
		for l := loLine; l <= hiLine; l++ {
			h.flushes.Add(1)
			h.flushOpts.Add(1)
			p.tick(CrashAtFlush)
			p.markPending(l>>6, uint64(1)<<(l&63))
		}
	}
	spin(p.lat.FlushNS * int(k))
}

// FlushOptLines issues a weakly ordered flush for each line index in lines
// (each covering bytes [l*LineSize, (l+1)*LineSize)). It is the batch form
// engines use to flush a transaction's dirty-line set in one call: one
// bounds check, one latency spin, and lock-free pending-set insertion.
func (p *Pool) FlushOptLines(lines []uint64) {
	if len(lines) == 0 {
		return
	}
	limit := uint64(len(p.mem)) / LineSize
	fast := p.fast.Load()
	var h *hotStats
	for _, l := range lines {
		if l >= limit {
			panic(fmt.Errorf("%w: line %#x beyond pool", ErrOutOfRange, l))
		}
		if h == nil {
			h = &p.stats.hot[stripeOf(l*LineSize)]
		}
		if !fast {
			h.flushes.Add(1)
			h.flushOpts.Add(1)
			p.tick(CrashAtFlush)
			p.markPending(l>>6, uint64(1)<<(l&63))
		}
	}
	if fast {
		h.flushes.Add(int64(len(lines)))
		h.flushOpts.Add(int64(len(lines)))
		p.latDebt.Add(int64(p.lat.FlushNS) * int64(len(lines)))
	} else {
		spin(p.lat.FlushNS * len(lines))
	}
}

// markPending sets the given pending bits in word w and registers the word
// for the next Fence drain. Lock-free on the common path: only a word's
// 0→nonzero transition takes the (short) pendMu critical section.
func (p *Pool) markPending(w, mask uint64) {
	old := p.pendingBits[w].Or(mask)
	if newly := mask &^ old; newly != 0 {
		p.pendingCount.Add(int64(bits.OnesCount64(newly)))
		if old == 0 {
			p.pendMu.Lock()
			p.pendWords = append(p.pendWords, uint32(w))
			p.pendMu.Unlock()
		}
	}
}

// Fence orders preceding flushes before subsequent stores (sfence): every
// line issued via FlushOpt since the previous fence becomes durable, and
// the fence latency is paid. A crash landing on the fence itself happens
// before the drain — the pending lines are still at the hardware's mercy.
func (p *Pool) Fence() {
	p.stats.hot[0].fences.Add(1)
	if obs.Enabled() {
		obsPoolFences.Add(0, 1)
	}
	if !p.fast.Load() {
		p.tick(CrashAtFence)
		if p.pendingCount.Load() != 0 {
			p.drainPending()
		}
		spin(p.lat.FenceNS)
		return
	}
	// Deferred-media mode: durability is settled when the pool leaves fast
	// mode, so the fence only pays (possibly accrued) latency.
	p.latDebt.Add(int64(p.lat.FenceNS))
	p.payLatency()
}

// latDebtPayNS is the accrued-latency batch a fence pays at once. Large
// enough that the yield loop's bookkeeping is noise, small enough that a
// single-threaded run's op timings stay smooth (a few fences' worth).
const latDebtPayNS = 4096

// payLatency settles the accrued fast-path latency debt with a yielding
// wait. Exactly one caller wins the swap, so the total wait time equals the
// total accrued latency regardless of how many workers fence concurrently.
func (p *Pool) payLatency() {
	d := p.latDebt.Load()
	if d < latDebtPayNS {
		return
	}
	if p.latDebt.CompareAndSwap(d, 0) {
		yieldWait(d)
	}
}

// drainPending makes every pending line durable. Concurrent drains are
// serialized by drainMu so the two word-list buffers can be recycled without
// per-fence allocation.
func (p *Pool) drainPending() {
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	p.pendMu.Lock()
	words := p.pendWords
	p.pendWords = p.pendSpare[:0]
	p.pendMu.Unlock()
	for _, w := range words {
		if p.pendingBits[w].Load() == 0 {
			continue
		}
		s := &p.shards[uint64(w)&(dirtyShards-1)]
		s.mu.Lock()
		m := p.pendingBits[w].Swap(0)
		p.markClean(s, uint64(w), m)
		s.mu.Unlock()
		if c := bits.OnesCount64(m); c > 0 {
			p.pendingCount.Add(int64(-c))
		}
	}
	p.pendSpare = words[:0]
}

// Persist is the common flush-then-fence sequence.
func (p *Pool) Persist(addr, n uint64) {
	p.Flush(addr, n)
	p.Fence()
}

// Crash simulates a power failure: the configured EvictPolicy decides the
// fate of each dirty line (pending FlushOpt lines included — an un-fenced
// optimized flush guarantees nothing) by putting back all, none or a word
// suffix of its pre-image, which leaves the coherent view equal to the
// durable one. Lines are visited in ascending order so a seeded pool's
// adversary is deterministic. Crash requires that no other goroutine is
// accessing the pool.
func (p *Pool) Crash() {
	// A crash cannot be scheduled in fast mode, but a manual Crash on a fast
	// pool must still be meaningful: the deferred durable view is settled
	// first (everything written survives — the persistent-cache reading),
	// then the eviction policy applies to the nothing that remains dirty.
	if p.fast.Swap(false) {
		p.clearTracking()
	}
	p.stats.Crashes.Add(1)
	p.crashAt.Store(0)
	p.crashed.Store(false)
	const lineWords = LineSize / 8
	p.rngMu.Lock()
	for w := range p.dirtyBits {
		s := &p.shards[w&(dirtyShards-1)]
		for m := p.dirtyBits[w].Load(); m != 0; m &= m - 1 {
			l := uint64(w)<<6 | uint64(bits.TrailingZeros64(m))
			// kept is how many leading 8-byte words of the line's new
			// contents reached the media before the power went.
			kept := 0
			switch p.evict {
			case EvictNone:
			case EvictAll:
				kept = lineWords
			case EvictTorn:
				// Persistence is word-atomic, not line-atomic.
				kept = p.rng.Intn(lineWords + 1)
				if kept > 0 && kept < lineWords {
					p.stats.TornLines.Add(1)
				}
			default: // EvictRandom
				if p.rng.Float64() < p.evictProb {
					kept = lineWords
				}
			}
			if pre, ok := s.pre[l]; ok && kept < lineWords {
				copy(p.mem[l*LineSize+uint64(kept)*8:(l+1)*LineSize], pre[kept*8:])
			}
		}
	}
	p.clearTracking()
	p.rngMu.Unlock()
}

// clearTracking empties the dirty/pending line sets and drops every
// pre-image, which makes the coherent view the durable one. Settling a
// fast-mode run is exactly this: the run fenced what it left behind, so
// every written line counts as having reached the media.
func (p *Pool) clearTracking() {
	for w := range p.dirtyBits {
		p.dirtyBits[w].Store(0)
		p.pendingBits[w].Store(0)
	}
	for i := range p.shards {
		p.shards[i].pre = nil
	}
	p.pendingCount.Store(0)
	p.pendMu.Lock()
	p.pendWords = p.pendWords[:0]
	p.pendMu.Unlock()
}

// overlayPreImages lays every pre-image over img, a copy of mem, turning
// it into the durable view.
func (p *Pool) overlayPreImages(img []byte) {
	for i := range p.shards {
		for l, pre := range p.shards[i].pre {
			copy(img[l*LineSize:], pre[:])
		}
	}
}

// preImages returns the number of pre-images held: in precise mode, the
// number of dirty lines.
func (p *Pool) preImages() int {
	n := 0
	for i := range p.shards {
		n += len(p.shards[i].pre)
	}
	return n
}

// DirtyLines returns the number of cache lines currently dirty.
func (p *Pool) DirtyLines() int {
	total := 0
	for w := range p.dirtyBits {
		total += bits.OnesCount64(p.dirtyBits[w].Load())
	}
	return total
}

// PendingLines returns the number of lines issued via FlushOpt and not yet
// drained by a Fence.
func (p *Pool) PendingLines() int { return int(p.pendingCount.Load()) }

// Eviction returns the pool's crash-time eviction policy.
func (p *Pool) Eviction() EvictPolicy { return p.evict }

// SetEviction changes the crash-time eviction policy. Like Crash itself it
// requires external quiescence.
func (p *Pool) SetEviction(e EvictPolicy) { p.evict = e }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() StatsSnapshot { return p.stats.snapshot() }

// ResetStats zeroes all counters.
func (p *Pool) ResetStats() { p.stats.reset() }

// Latency returns the pool's configured cost model.
func (p *Pool) Latency() Latency { return p.lat }
