// Package pmem implements a crash-consistent persistent-heap allocator over a
// simulated NVM pool. It plays the role PMDK's libpmemobj allocator plays for
// Clobber-NVM: transactions allocate persistent objects from it (pmalloc),
// and its metadata updates are failure-atomic without a durability point of
// their own — they ride the fences of the transaction that made them.
//
// # Design
//
// The heap is divided among a fixed number of arenas so that worker threads
// allocate without contending (PMDK has per-thread allocation classes for the
// same reason). Each arena owns, persistently,
//
//   - segregated free lists, one head per size class, and one list of huge
//     blocks,
//   - a bump region refilled in large chunks from a central region,
//   - one redo-record buffer,
//
// and, in volatile memory, a mirror of its heads and bump cursor. All
// allocation decisions are made on the mirror.
//
// # Reserve / publish / apply
//
// Metadata changes go through a Tx, the arena's transactional handle, in
// three steps:
//
//   - Reserve. Tx.Alloc pops the mirror's free-list head or advances its bump
//     cursor; Tx.Free only queues the block. Nothing in the persistent arena
//     is stored. (A bump block's header is written, since it lies in the
//     unbumped span where it means nothing until the cursor passes it, and a
//     grab from the central region — rare — is committed on its own.)
//   - Publish. Tx.Publish writes one redo record: a sequence number, a commit
//     sequence, and the list of 8-byte stores (address, absolute value) that
//     bring the persistent arena to the mirror's state — the final bump
//     cursor, the final head of every touched list, the header word of every
//     block taken from a list (marking it live) and of every freed block
//     (marking it free and carrying its link). The record is checksummed and
//     flushed with FlushOpt only; the caller's next fence makes it durable.
//   - Apply. Once the caller's commit is durable, Tx.Apply performs the
//     record's stores and flushes them, again without a fence; the next fence
//     the owner issues retires them.
//
// A record is committed when it is intact and its commit condition holds:
// either unconditionally (the plain Alloc/Free wrappers, which fence between
// publish and apply), or "the arena owner's status word has reached sequence
// s" — a transaction engine binds its worker slot's status word to the arena
// (Tx.Bind), so the record becomes committed under the fence that commits
// the transaction. The status word is read as seq<<2|phase; phase 1 means
// the transaction is still ongoing, and any other phase — idle, or a redo
// engine's "committed, applying" — means it has committed.
//
// Three invariants make recovery a rule instead of a log replay:
//
//  1. The persistent arena is untouched before commit. An interrupted
//     transaction's reservations exist only in the mirror, so they vanish
//     with it.
//  2. The record is durable by the commit fence. A committed transaction's
//     record can always be re-applied, and re-application is idempotent
//     because every value is absolute.
//  3. An apply is retired by a fence before the next record is written.
//     So while record n+1 overwrites record n, committed or torn, the arena
//     is durably in record n's state and needs neither. A fence the owner
//     issues anyway does the retiring for free — the next transaction's begin
//     fence, or the fence a redo engine puts after its in-place apply — and
//     the owner says so with Tx.Retired; the plain wrappers fence after their
//     own apply, and whoever finds an apply unretired fences before writing.
//
// Attach therefore looks at each arena's record: if it is intact and
// committed it is re-applied, if intact and uncommitted it is invalidated.
// Then the mirror is loaded. No heap scan, no per-engine reclaim loop.
//
// # Block headers and free-list links
//
// The word in front of a block's user bytes says whether the block is live
// or free (two magics), which arena and class it belongs to, and — for a
// free class block — the link to the next free block, in its low half. User
// stores cannot reach it, and a reservation never rewrites it: a popped
// block keeps its free header, link included, until the pop is applied, so
// the persistent free list stays intact up to then. Free rejects a block
// whose header is not live, and a block the open reservation has already
// queued, with ErrBadFree: a double free cannot put a block on a list twice.
//
// # Huge blocks
//
// Allocations beyond the largest class are served first-fit from a huge
// free list each arena keeps, grown by grabs from the central region. A huge
// block's link is its last word, past the usable bytes, since the low half
// of its header holds its size. Huge blocks go through the same reserve /
// publish / apply steps as class blocks: the unlink, the header words and
// the list head are stores of the arena's redo record. Only the grab is
// immediate — it puts the new span on the arena's huge free list under its
// own fences, and the reservation then takes it from there like any other —
// so a crash never leaks a huge block a transaction allocated or freed;
// what a crash can leak is the one span being grabbed at that instant.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"clobbernvm/internal/nvm"
)

// NumArenas is the number of independent allocation arenas.
const NumArenas = 64

const (
	headerSize = 8 // per-block header preceding user data

	blockMagic = 0xA110 // "alloc": a live block
	freeMagic  = 0xF4EE // "free": a block on a free list

	hugeClass = 0xFF

	// ChunkSize is the refill granularity from the central region. A crash
	// can leak the span an arena was grabbing at that instant: one chunk, or
	// one huge block if that is larger.
	ChunkSize = 1 << 16 // 64 KiB

	// linkShift scales the 32-bit free-list link kept in a header word.
	linkShift = 3
	// maxPoolSize is the largest pool a 32-bit link can address.
	maxPoolSize = 1 << (32 + linkShift)
)

// classSizes are the block sizes (including the 8-byte header) of the
// segregated size classes.
var classSizes = buildClassSizes()

func buildClassSizes() []uint64 {
	var s []uint64
	for sz := uint64(32); sz <= 1024; sz += 32 {
		s = append(s, sz)
	}
	for sz := uint64(2048); sz <= 65536; sz *= 2 {
		s = append(s, sz)
	}
	return s
}

func classFor(userSize uint64) (int, bool) {
	need := userSize + headerSize
	for i, sz := range classSizes {
		if sz >= need {
			return i, true
		}
	}
	return 0, false
}

// Persistent layout of the allocator metadata block (allocated at HeapBase):
//
//	[0:8)    magic
//	[8:16)   centralBump
//	[16:24)  centralLimit (= pool size)
//	[64:...) NumArenas arena records
//
// Arena record layout (arenaStride bytes):
//
//	[0:8)                 bump
//	[8:16)                limit
//	[16:24)               huge free-list head
//	[24:24+8*numClasses)  free-list heads
//	[arenaFixed:+8)       record area: base | capacity<<recCapShift
//	[arenaFixed+8:+8)     owner's status word address (0 = none bound)
//	[inlineOff:...)       inline record buffer of inlineCap entries
const (
	metaMagic = 0x504d454d414c4c32 // "PMEMALL2"

	// inlineCap is the entry capacity of the record buffer every arena
	// starts with: enough for any plain Alloc, Free or central grab.
	inlineCap = 6

	recCapShift = 40
)

var (
	numClasses  = len(classSizes)
	arenaFixed  = uint64(24 + 8*numClasses)
	inlineOff   = roundUp(arenaFixed+16, nvm.LineSize)
	arenaStride = inlineOff + recBytes(inlineCap)
	// Arena records start at a cache-line boundary (arenasOffset) and are a
	// line multiple long, so no two arenas — nor the central header — ever
	// share a line: a line flush by one arena can then never carry a
	// neighbour's in-flight metadata to the media.
	arenasOffset = uint64(nvm.LineSize)
	metaSize     = roundUp(arenasOffset+uint64(NumArenas)*arenaStride, nvm.LineSize)
)

func roundUp(x, to uint64) uint64 { return (x + to - 1) / to * to }

// ErrOutOfMemory reports heap exhaustion.
var ErrOutOfMemory = errors.New("pmem: out of persistent memory")

// ErrBadFree reports a Free of an address that is not a live allocation.
var ErrBadFree = errors.New("pmem: free of invalid address")

// ErrRecordFull reports a reservation with more changes than the arena's
// redo record can hold (see Tx.Bind).
var ErrRecordFull = errors.New("pmem: allocator redo record full")

// Allocator is a persistent-heap allocator bound to a pool. The zero value
// is not usable; obtain one with Create or Attach. An Allocator holds the
// volatile mirror of the pool's arenas, so a pool must be driven by one
// Allocator at a time, and a crashed or restored pool by a fresh Attach.
type Allocator struct {
	pool Pool

	metaBase uint64

	centralMu sync.Mutex
	arenas    [NumArenas]Tx

	stats AllocStats
}

// Pool is the subset of *nvm.Pool the allocator needs.
type Pool interface {
	Load(addr uint64, buf []byte)
	Load64(addr uint64) uint64
	Store(addr uint64, data []byte)
	Store64(addr uint64, v uint64)
	FlushOpt(addr, n uint64)
	Fence()
	Persist(addr, n uint64)
	// CommitFence / CommitPersist route the ordering fence through the
	// pool's group-commit coordinator when one is enabled; with the
	// coordinator off they are exactly Fence / Persist. The allocator uses
	// them for the fences it does issue itself (plain Alloc/Free, refill,
	// huge blocks) so they amortize with concurrent commit fences.
	CommitFence()
	CommitPersist(addr, n uint64)
	Size() uint64
	HeapBase() uint64
	RootSlot(i int) uint64
}

// AllocStats counts allocator activity (volatile). The counters are atomics
// so that the hot Alloc/Free paths never serialize on a global stats lock —
// with per-arena allocation the counters are the only state shared by all
// worker threads.
type AllocStats struct {
	Allocs     atomic.Int64
	Frees      atomic.Int64
	BytesAlloc atomic.Int64
	Refills    atomic.Int64
}

// Snapshot returns a copy of the counters.
func (s *AllocStats) Snapshot() (allocs, frees, bytes, refills int64) {
	return s.Allocs.Load(), s.Frees.Load(), s.BytesAlloc.Load(), s.Refills.Load()
}

// rootSlotAllocator is the pool root slot holding the metadata base address.
const rootSlotAllocator = 0

// Create formats a fresh allocator on the pool. Any previous heap content is
// ignored. The metadata base address is stored in pool root slot 0.
func Create(p Pool) (*Allocator, error) {
	a := &Allocator{pool: p, metaBase: p.HeapBase()}
	if a.metaBase+metaSize+ChunkSize > p.Size() {
		return nil, fmt.Errorf("%w: pool too small (%d bytes)", ErrOutOfMemory, p.Size())
	}
	if p.Size() > maxPoolSize {
		return nil, fmt.Errorf("pmem: pool of %d bytes exceeds the %d the free-list links address", p.Size(), uint64(maxPoolSize))
	}
	zero := make([]byte, metaSize)
	p.Store(a.metaBase, zero)
	p.Store64(a.metaBase, metaMagic)
	p.Store64(a.metaBase+8, a.metaBase+metaSize) // centralBump
	p.Store64(a.metaBase+16, p.Size())           // centralLimit
	for ar := 0; ar < NumArenas; ar++ {
		p.Store64(a.arenaBase(ar)+arenaFixed, (a.arenaBase(ar)+inlineOff)|inlineCap<<recCapShift)
	}
	p.Persist(a.metaBase, metaSize)
	p.Store64(p.RootSlot(rootSlotAllocator), a.metaBase)
	p.Persist(p.RootSlot(rootSlotAllocator), 8)
	for ar := range a.arenas {
		if err := a.arenas[ar].init(a, ar); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Attach opens the allocator already formatted on the pool (after a restart
// or crash): every arena's newest committed record is re-applied, an
// uncommitted one is discarded, and the volatile mirror is loaded.
func Attach(p Pool) (*Allocator, error) {
	base := p.Load64(p.RootSlot(rootSlotAllocator))
	if base == 0 {
		return nil, errors.New("pmem: pool has no allocator (root slot 0 empty)")
	}
	if base+metaSize > p.Size() || base+metaSize < base || p.Load64(base) != metaMagic {
		return nil, errors.New("pmem: allocator metadata corrupt (bad magic)")
	}
	a := &Allocator{pool: p, metaBase: base}
	stored := false
	for ar := range a.arenas {
		t := &a.arenas[ar]
		if err := t.init(a, ar); err != nil {
			return nil, err
		}
		stored = t.settle() || stored
	}
	if stored {
		// An invalidated record must be gone before its owner's status word
		// can move past its sequence, or it would read as committed; and the
		// fence retires the re-applied ones.
		p.Fence()
		for ar := range a.arenas {
			a.arenas[ar].unretired = false
		}
	}
	return a, nil
}

func (a *Allocator) arenaBase(ar int) uint64 {
	return a.metaBase + arenasOffset + uint64(ar)*arenaStride
}
func (a *Allocator) bumpAddr(ar int) uint64     { return a.arenaBase(ar) }
func (a *Allocator) limitAddr(ar int) uint64    { return a.arenaBase(ar) + 8 }
func (a *Allocator) hugeHeadAddr(ar int) uint64 { return a.arenaBase(ar) + 16 }
func (a *Allocator) headAddr(ar, class int) uint64 {
	return a.arenaBase(ar) + 24 + uint64(class)*8
}

// heapStart is the first address a block can have.
func (a *Allocator) heapStart() uint64 { return a.metaBase + metaSize }

// --- block headers -----------------------------------------------------------

// A block header packs magic(16) | arena(8) | class(8) | low(32) into one
// uint64. The magic tells a live block from one on a free list. low is the
// free-list link (block address >> linkShift) of a class block, meaningful
// only while the block is free, and the size in 16-byte units of a huge
// block, whose link is its last word instead.
func header(magic uint64, ar, class int, low uint32) uint64 {
	return magic<<48 | uint64(ar&0xFF)<<40 | uint64(class&0xFF)<<32 | uint64(low)
}

func liveHeader(ar, class int, low uint32) uint64 { return header(blockMagic, ar, class, low) }

// freeHeader is the header of a free class block linked to next.
func freeHeader(ar, class int, next uint64) uint64 {
	return header(freeMagic, ar, class, uint32(next>>linkShift))
}

func linkOf(hdr uint64) uint64 { return uint64(uint32(hdr)) << linkShift }

// hugeLink is the address of a huge block's link word.
func hugeLink(block uint64, units uint32) uint64 { return block + uint64(units)*16 - 8 }

// hugeNeed is the block size serving a huge allocation of size bytes:
// header, user bytes and link, in whole lines.
func hugeNeed(size uint64) uint64 { return roundUp(size+2*headerSize, nvm.LineSize) }

// blockOf validates addr as an address Alloc could have returned and parses
// the header in front of it. A free block — freed already, or never
// allocated — is rejected like any other address that is not a live block's.
func (a *Allocator) blockOf(addr uint64) (blockRef, error) {
	if addr < a.heapStart()+headerSize || addr > a.pool.Size() || addr%8 != 0 {
		return blockRef{}, fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	block := addr - headerSize
	h := a.pool.Load64(block)
	if h>>48 != blockMagic {
		return blockRef{}, fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	ar, class, low := int(h>>40&0xFF), int(h>>32&0xFF), uint32(h)
	if ar >= NumArenas || (class >= numClasses && class != hugeClass) ||
		(class == hugeClass && (low == 0 || block+uint64(low)*16 > a.pool.Size())) {
		return blockRef{}, fmt.Errorf("%w: %#x (corrupt header)", ErrBadFree, addr)
	}
	return blockRef{block, ar, class, low}, nil
}

// --- plain allocation --------------------------------------------------------

// Alloc allocates size bytes of persistent memory, using the arena selected
// by hint (callers pass a per-thread slot id; any int works). The returned
// address is the first usable byte. The allocation is durable before Alloc
// returns (two fences: one commits the record, one retires its apply); its
// contents are NOT zeroed durable — callers initialize and persist content
// themselves. Alloc must not be called on an arena whose Tx the calling
// goroutine holds open.
func (a *Allocator) Alloc(hint int, size uint64) (uint64, error) {
	t := a.Tx(hint)
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, err := t.reserve(size)
	if err != nil {
		return 0, err
	}
	t.commitSelf()
	return addr, nil
}

// Free returns the block containing addr (an address returned by Alloc) to a
// free list of the arena it came from, durably (two fences, as for Alloc).
func (a *Allocator) Free(addr uint64) error {
	f, err := a.blockOf(addr)
	if err != nil {
		return err
	}
	t := &a.arenas[f.ar]
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.queueFree(f); err != nil {
		return err
	}
	t.commitSelf()
	return nil
}

// UsableSize returns the usable byte count of the allocation at addr.
func (a *Allocator) UsableSize(addr uint64) (uint64, error) {
	f, err := a.blockOf(addr)
	if err != nil {
		return 0, err
	}
	if f.class == hugeClass {
		return uint64(f.low)*16 - 2*headerSize, nil
	}
	return classSizes[f.class] - headerSize, nil
}

// Stats exposes the allocator counters.
func (a *Allocator) Stats() *AllocStats { return &a.stats }

func (a *Allocator) noteAlloc(size uint64) {
	a.stats.Allocs.Add(1)
	a.stats.BytesAlloc.Add(int64(size))
}

// grabCentral advances the central bump by size and persists it. A crash
// between the grab and the record that hands the span to its owner leaks the
// span (bounded by one grab per crash), never double-owns it. PMDK makes the
// same trade-off for zone metadata.
func (a *Allocator) grabCentral(size uint64) (uint64, error) {
	// Unlock is deferred so the lock releases even if a store panics with a
	// simulated crash — a held centralMu would wedge every other worker of a
	// concurrent fault-injection run.
	a.centralMu.Lock()
	defer a.centralMu.Unlock()
	p := a.pool
	cb := p.Load64(a.metaBase + 8)
	cl := p.Load64(a.metaBase + 16)
	if cb+size > cl {
		return 0, fmt.Errorf("%w: central region exhausted (bump %#x limit %#x need %#x)", ErrOutOfMemory, cb, cl, size)
	}
	p.Store64(a.metaBase+8, cb+size)
	p.CommitPersist(a.metaBase+8, 8)
	return cb, nil
}

// --- redo records ------------------------------------------------------------

// Record buffer layout (recBytes(cap) bytes, one per arena):
//
//	[0:8)    seq        (stamp, rising per arena; 0 = empty)
//	[8:16)   commitSeq  (sequence the owner's status word must reach; 0 =
//	                    committed as soon as intact)
//	[16:24)  n<<32 | checksum
//	[24:...) n × (addr, value)
//
// The odd header keeps a two-store record — a bump and a head, say — inside
// one cache line.
const recHeader = 24

func recBytes(entries int) uint64 {
	return roundUp(recHeader+16*uint64(entries), nvm.LineSize)
}

// blockRef is a parsed block: one queued by Free, or taken from a free list.
// low is a huge block's size in 16-byte units.
type blockRef struct {
	block     uint64
	ar, class int
	low       uint32
}

// store is one 8-byte store of a redo record.
type store struct{ addr, val uint64 }

type record struct {
	seq, commitSeq uint64
	stores         []store
}

func (r *record) checksum() uint32 {
	// Simple mixing checksum; detects torn 8-byte-granularity writes.
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 29
	}
	mix(r.seq)
	mix(r.commitSeq)
	mix(uint64(len(r.stores)))
	for _, s := range r.stores {
		mix(s.addr)
		mix(s.val)
	}
	return uint32(h ^ h>>32)
}

// Tx is one arena's transactional handle: the volatile mirror of the arena
// plus the reservation currently open on it. The exported methods are for a
// single owner at a time (a transaction engine's worker slot); they take the
// arena lock on the first Alloc or Free of a reservation and hold it until
// Apply or Abort, so plain Alloc/Free calls that land on the same arena wait
// for the transaction instead of publishing its reservations.
type Tx struct {
	a  *Allocator
	ar int
	mu sync.Mutex

	// Mirror of the persistent arena, ahead of it by the open reservation.
	bump, limit uint64
	heads       []uint64

	recBase    uint64 // record buffer, recBytes(recCap) long
	recCap     int
	commitWord uint64 // owner's status word, 0 if none is bound
	seq        uint64 // stamp of the last record written or found
	unretired  bool   // no fence is known to have followed the last apply

	// The open reservation.
	open      bool                // mu is held on behalf of the Tx owner
	bumped    bool                // mirror bump is ahead of the persistent one
	dirty     uint64              // classes whose mirror head is ahead
	freeMask  uint64              // classes of the queued frees
	pops      []blockRef          // blocks taken from a free list
	frees     []blockRef          // blocks queued by Free
	hugeFrees int                 // huge blocks among frees
	queued    map[uint64]struct{} // the blocks in frees: a second Free is rejected
	// links holds the huge free list's words (head, block links) as the
	// reservation leaves them; the list itself is read through it.
	links []store

	pending []store // stores of the published record, awaiting Apply
	img     []byte  // record staging buffer
}

// Tx returns the transactional handle of the arena hint selects.
func (a *Allocator) Tx(hint int) *Tx {
	ar := hint % NumArenas
	if ar < 0 {
		ar = -ar
	}
	return &a.arenas[ar]
}

// init binds the handle to its arena and loads the record-area pointer.
func (t *Tx) init(a *Allocator, ar int) error {
	t.a, t.ar = a, ar
	t.heads = make([]uint64, numClasses)
	t.queued = map[uint64]struct{}{}
	w := a.pool.Load64(a.arenaBase(ar) + arenaFixed)
	t.recBase, t.recCap = w&(1<<recCapShift-1), int(w>>recCapShift)
	if end := t.recBase + recBytes(t.recCap); t.recBase < a.metaBase || end > a.pool.Size() || end < t.recBase {
		return fmt.Errorf("pmem: arena %d record area [%#x,+%d entries) outside pool", ar, t.recBase, t.recCap)
	}
	t.commitWord = a.pool.Load64(a.arenaBase(ar) + arenaFixed + 8)
	if t.commitWord%8 != 0 || t.commitWord+8 > a.pool.Size() {
		return fmt.Errorf("pmem: arena %d status word %#x outside pool", ar, t.commitWord)
	}
	return nil
}

// load refreshes the mirror from the persistent arena.
func (t *Tx) load() {
	p, a := t.a.pool, t.a
	t.bump, t.limit = p.Load64(a.bumpAddr(t.ar)), p.Load64(a.limitAddr(t.ar))
	for c := range t.heads {
		t.heads[c] = p.Load64(a.headAddr(t.ar, c))
	}
}

// readRecord parses the record buffer.
func (t *Tx) readRecord() (record, bool) {
	p, at := t.a.pool, t.recBase
	r := record{seq: p.Load64(at), commitSeq: p.Load64(at + 8)}
	w := p.Load64(at + 16)
	n := int(w >> 32)
	if r.seq == 0 || n > t.recCap {
		return record{}, false
	}
	r.stores = make([]store, n)
	for i := range r.stores {
		e := at + recHeader + 16*uint64(i)
		r.stores[i] = store{p.Load64(e), p.Load64(e + 8)}
	}
	if uint32(w) != r.checksum() {
		return record{}, false
	}
	size := p.Size()
	for _, s := range r.stores {
		if s.addr%8 != 0 || s.addr+8 > size || s.addr < t.a.metaBase {
			return record{}, false
		}
	}
	return r, true
}

// ownerOngoing is the phase of a bound status word that says the owner's
// transaction at that sequence has not committed. Every engine numbers its
// ongoing phase 1 and keeps its other phases off it.
const ownerOngoing = 1

// committed evaluates a record's commit condition: the owner's status word
// has moved past the record's sequence, or is at it and not ongoing.
func (t *Tx) committed(r record) bool {
	if r.commitSeq == 0 {
		return true
	}
	if t.commitWord == 0 {
		return false
	}
	w := t.a.pool.Load64(t.commitWord)
	return w>>2 > r.commitSeq || (w>>2 == r.commitSeq && w&3 != ownerOngoing)
}

// settle brings the persistent arena to its last committed state and loads
// the mirror. It reports whether it stored anything: a committed record's
// stores again, or the invalidation of an uncommitted one.
func (t *Tx) settle() (stored bool) {
	if r, ok := t.readRecord(); ok {
		t.seq = r.seq
		if t.committed(r) {
			t.applyStores(r.stores)
		} else {
			t.a.pool.Store64(t.recBase, 0)
			t.a.pool.FlushOpt(t.recBase, 8)
		}
		stored = true
	}
	t.load()
	return stored
}

// applyStores performs a record's stores and flushes the lines they touch.
// No fence: whoever fences next retires them.
func (t *Tx) applyStores(stores []store) {
	t.unretired = true
	p := t.a.pool
	lastLine := ^uint64(0)
	for _, s := range stores {
		p.Store64(s.addr, s.val)
		// publish emits an arena's words in address order, so comparing with
		// the previous line is enough to flush each arena line once.
		if line := s.addr / nvm.LineSize; line != lastLine {
			p.FlushOpt(s.addr, 8)
			lastLine = line
		}
	}
}

// writeRecord stages and stores the record for t.pending, flushed but not
// fenced. The last apply must be retired first (invariant 3): if nobody has
// vouched for a fence since, this pays one.
func (t *Tx) writeRecord(commitSeq uint64) {
	if t.unretired {
		t.a.pool.CommitFence()
		t.unretired = false
	}
	t.seq++
	r := record{seq: t.seq, commitSeq: commitSeq, stores: t.pending}
	n := recHeader + 16*len(r.stores)
	if cap(t.img) < n {
		t.img = make([]byte, n, 2*n)
	}
	img := t.img[:n]
	le := binary.LittleEndian
	le.PutUint64(img[0:], r.seq)
	le.PutUint64(img[8:], r.commitSeq)
	le.PutUint64(img[16:], uint64(len(r.stores))<<32|uint64(r.checksum()))
	for i, s := range r.stores {
		le.PutUint64(img[recHeader+16*i:], s.addr)
		le.PutUint64(img[recHeader+16*i+8:], s.val)
	}
	t.a.pool.Store(t.recBase, img)
	t.a.pool.FlushOpt(t.recBase, uint64(n))
}

// commitNow commits stores on the spot, whatever reservation is open: record,
// fence, apply, fence. It is how a span grabbed from the central region
// reaches the arena — a grab handed to a reservation that never commits would
// otherwise leak on every abort — and costs two fences on top of the grab's,
// since no fence of the caller's is promised before the reservation's own
// record overwrites this one.
func (t *Tx) commitNow(stores ...store) {
	t.pending = append(t.pending[:0], stores...)
	t.writeRecord(0)
	t.a.pool.CommitFence()
	t.applyPending()
	t.a.pool.CommitFence()
	t.unretired = false
}

// --- reservation -------------------------------------------------------------

// room reports whether the reservation's record can take n more stores. A
// class block costs one for its header and at most one for its list's head
// (or the bump cursor); a huge block one for its header and two list words.
func (t *Tx) room(n int) bool {
	used := bits.OnesCount64(t.dirty|t.freeMask) + len(t.pops) + len(t.frees) + 2*t.hugeFrees + len(t.links)
	if t.bumped {
		used++
	}
	return used+n <= t.recCap
}

func (t *Tx) full() error { return fmt.Errorf("%w: %d entries", ErrRecordFull, t.recCap) }

// reserve allocates from the mirror. Caller holds t.mu.
func (t *Tx) reserve(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	if !t.room(2) {
		return 0, t.full()
	}
	a, p := t.a, t.a.pool
	class, ok := classFor(size)
	if !ok {
		block, err := t.reserveHuge(hugeNeed(size))
		if err != nil {
			return 0, fmt.Errorf("huge alloc of %d bytes: %w", size, err)
		}
		a.noteAlloc(size)
		return block + headerSize, nil
	}
	blockSize := classSizes[class]

	// Fast path: pop the mirror's free-list head. The block's header is left
	// alone: the persistent head still points at it and needs its link.
	if head := t.heads[class]; head != 0 {
		t.heads[class] = linkOf(p.Load64(head))
		t.dirty |= 1 << uint(class)
		t.pops = append(t.pops, blockRef{block: head, class: class})
		a.noteAlloc(size)
		return head + headerSize, nil
	}

	// Bump path.
	if t.bump+blockSize > t.limit {
		if err := t.refill(); err != nil {
			return 0, err
		}
	}
	block := t.bump
	t.bump += blockSize
	t.bumped = true
	// The header lies beyond the persistent bump cursor, where it means
	// nothing until the cursor passes it; it rides the caller's next fence.
	p.Store64(block, liveHeader(t.ar, class, 0))
	p.FlushOpt(block, 8)
	a.noteAlloc(size)
	return block + headerSize, nil
}

// refill grabs a chunk from the central region and commits the arena's new
// bump and limit on the spot. The old chunk's tail is abandoned.
func (t *Tx) refill() error {
	a := t.a
	cb, err := a.grabCentral(ChunkSize)
	if err != nil {
		return err
	}
	a.stats.Refills.Add(1)
	t.unretired = false // grabCentral fenced
	t.commitNow(store{a.bumpAddr(t.ar), cb}, store{a.limitAddr(t.ar), cb + ChunkSize})
	t.bump, t.limit, t.bumped = cb, cb+ChunkSize, false
	return nil
}

// hugeWord reads a word of the arena's huge free list as the open
// reservation leaves it.
func (t *Tx) hugeWord(addr uint64) uint64 {
	for _, l := range t.links {
		if l.addr == addr {
			return l.val
		}
	}
	return t.a.pool.Load64(addr)
}

func (t *Tx) setHugeWord(addr, val uint64) {
	for i := range t.links {
		if t.links[i].addr == addr {
			t.links[i].val = val
			return
		}
	}
	t.links = append(t.links, store{addr, val})
}

// reserveHuge unlinks the first block of at least need bytes from the huge
// free list, growing the list from the central region if there is none. The
// list is short in practice (huge allocations are rare in every workload of
// the paper).
func (t *Tx) reserveHuge(need uint64) (uint64, error) {
	a, p := t.a, t.a.pool
	head := a.hugeHeadAddr(t.ar)
	prev := head
	for cur := t.hugeWord(prev); cur != 0; cur = t.hugeWord(prev) {
		units := uint32(p.Load64(cur))
		if uint64(units)*16 >= need {
			t.setHugeWord(prev, t.hugeWord(hugeLink(cur, units)))
			t.pops = append(t.pops, blockRef{block: cur, class: hugeClass, low: units})
			return cur, nil
		}
		prev = hugeLink(cur, units)
	}
	// Grow: the new span goes on the persistent list first, at its head, and
	// is then taken from it like any other, so the reservation's view of the
	// rest of the list stays what it was.
	first := t.hugeWord(head)
	block, err := a.grabCentral(need)
	if err != nil {
		return 0, err
	}
	t.unretired = false // grabCentral fenced
	units := uint32(need / 16)
	t.commitNow(
		store{block, header(freeMagic, t.ar, hugeClass, units)},
		store{hugeLink(block, units), p.Load64(head)},
		store{head, block})
	t.setHugeWord(head, first)
	t.pops = append(t.pops, blockRef{block: block, class: hugeClass, low: units})
	return block, nil
}

// queueFree queues a block blockOf has parsed. Caller holds t.mu.
func (t *Tx) queueFree(f blockRef) error {
	if _, dup := t.queued[f.block]; dup {
		return fmt.Errorf("%w: %#x (freed twice)", ErrBadFree, f.block+headerSize)
	}
	if f.class == hugeClass {
		if !t.room(3) {
			return t.full()
		}
		t.hugeFrees++
	} else {
		if !t.room(2) {
			return t.full()
		}
		t.freeMask |= 1 << uint(f.class)
	}
	t.queued[f.block] = struct{}{}
	t.frees = append(t.frees, f)
	t.a.stats.Frees.Add(1)
	return nil
}

// publish links the queued frees into the mirror and writes the record that
// brings the persistent arena up to it. It reports whether there is one.
func (t *Tx) publish(commitSeq uint64) bool {
	a := t.a
	t.pending = t.pending[:0]
	// Pops before frees: a block allocated and freed by the same reservation
	// ends up free.
	for _, f := range t.pops {
		t.pending = append(t.pending, store{f.block, liveHeader(t.ar, f.class, f.low)})
	}
	for _, f := range t.frees {
		if f.class == hugeClass {
			head := a.hugeHeadAddr(t.ar)
			t.pending = append(t.pending, store{f.block, header(freeMagic, t.ar, hugeClass, f.low)})
			t.setHugeWord(hugeLink(f.block, f.low), t.hugeWord(head))
			t.setHugeWord(head, f.block)
			continue
		}
		t.pending = append(t.pending, store{f.block, freeHeader(t.ar, f.class, t.heads[f.class])})
		t.heads[f.class] = f.block
	}
	t.dirty |= t.freeMask
	if t.bumped {
		t.pending = append(t.pending, store{a.bumpAddr(t.ar), t.bump})
	}
	t.pending = append(t.pending, t.links...)
	for d := t.dirty; d != 0; d &= d - 1 {
		class := bits.TrailingZeros64(d)
		t.pending = append(t.pending, store{a.headAddr(t.ar, class), t.heads[class]})
	}
	if len(t.pending) == 0 {
		return false
	}
	t.writeRecord(commitSeq)
	return true
}

// applyPending applies the published record.
func (t *Tx) applyPending() {
	if len(t.pending) > 0 {
		t.applyStores(t.pending)
		t.pending = t.pending[:0]
	}
}

// finish applies what was published and clears the reservation.
func (t *Tx) finish() {
	t.applyPending()
	t.clear()
}

func (t *Tx) clear() {
	t.bumped, t.dirty, t.freeMask, t.hugeFrees = false, 0, 0, 0
	t.pops, t.frees, t.links = t.pops[:0], t.frees[:0], t.links[:0]
	t.pending = t.pending[:0]
	if len(t.queued) > 0 {
		clear(t.queued)
	}
}

// commitSelf commits the reservation under the allocator's own fences: the
// plain Alloc/Free path. The second fence retires the apply, so that a plain
// operation never leaves an arena's owner an apply its begin fence did not
// cover.
func (t *Tx) commitSelf() {
	published := t.publish(0)
	if published {
		t.a.pool.CommitFence()
	}
	t.finish()
	if published {
		t.a.pool.CommitFence()
		t.unretired = false
	}
}

func (t *Tx) enter() {
	if !t.open {
		t.mu.Lock()
		t.open = true
	}
}

func (t *Tx) leave() {
	t.open = false
	t.mu.Unlock()
}

// Alloc reserves size bytes for the owner's transaction. Nothing in the
// persistent arena changes until Apply; Abort (or a crash) drops the
// reservation.
func (t *Tx) Alloc(size uint64) (uint64, error) {
	t.enter()
	return t.reserve(size)
}

// Free queues the block at addr to be freed when the transaction's record is
// applied. The block is not reused, and its contents stay readable, until
// then.
func (t *Tx) Free(addr uint64) error {
	t.enter()
	f, err := t.a.blockOf(addr)
	if err != nil {
		// A block this reservation took from a free list still has its free
		// header; freeing it again is legitimate.
		i := slices.IndexFunc(t.pops, func(pop blockRef) bool { return pop.block+headerSize == addr })
		if i < 0 {
			return err
		}
		f = t.pops[i]
	}
	return t.queueFree(f)
}

// Retired tells the arena that its owner has fenced since the handle's last
// Apply — a transaction's begin fence, or the fence a redo engine issues
// after applying in place — so Publish need not. It refers to the open
// reservation and does nothing without one.
func (t *Tx) Retired() {
	if t.open {
		t.unretired = false
	}
}

// Publish writes the reservation's redo record, flushed but not fenced; the
// caller's commit fence must follow. Unless Retired has vouched for a fence
// since the previous Apply, Publish issues one first. The record is committed
// once the bound status word (read as seq<<2|phase) reaches sequence seq in
// any phase but ongoing (1), or moves past it. seq 0 commits the record as
// soon as it is durable, for callers whose commit point is that fence itself.
func (t *Tx) Publish(seq uint64) {
	if t.open {
		t.publish(seq)
	}
}

// Apply performs the published record's stores on the persistent arena,
// flushed but not fenced, and ends the reservation. Call it only after the
// commit condition given to Publish is durable.
func (t *Tx) Apply() {
	if !t.open {
		return
	}
	defer t.leave()
	t.finish()
}

// Abort drops the open reservation, if any: the mirror returns to the
// persistent arena's state. It stores nothing, and is safe to defer.
func (t *Tx) Abort() {
	if !t.open {
		return
	}
	defer t.leave()
	t.clear()
	t.load()
}

// Bind makes the arena a worker slot's own: its records can wait on the
// slot's status word at commitWord (see Publish), and its redo record is made
// large enough for a reservation that frees up to frees blocks and reuses as
// many freed ones (blocks from fresh memory cost it nothing). Engines call it
// once per slot at creation; the record area is allocated from the heap and
// the arena switched to it durably.
func (t *Tx) Bind(commitWord uint64, frees int) error {
	need := 2*frees + numClasses + 2
	if need >= 1<<(64-recCapShift) {
		return fmt.Errorf("pmem: record of %d entries too large", need)
	}
	// A line-aligned buffer keeps a small record in one line.
	size := recBytes(need)
	raw, err := t.a.Alloc(t.ar, size+nvm.LineSize)
	if err != nil {
		return fmt.Errorf("pmem: arena %d record area: %w", t.ar, err)
	}
	base := roundUp(raw, nvm.LineSize)
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.a.pool
	// Zero the area (stale bytes must not parse as a record) before the arena
	// points at it. The last record stays behind in the old area; its apply
	// was retired by the Alloc above.
	p.Store(base, make([]byte, size))
	p.Persist(base, size)
	ptr := t.a.arenaBase(t.ar) + arenaFixed
	p.Store64(ptr, base|uint64(need)<<recCapShift)
	p.Store64(ptr+8, commitWord)
	p.Persist(ptr, 16)
	t.recBase, t.recCap, t.commitWord = base, need, commitWord
	return nil
}
