package pds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// LFHashMap is a lock-free persistent hashmap: bucket-chained CAS lists whose
// mutating ops publish a per-thread announcement record in NVM before the
// linearizing CAS, so recovery can detect an in-flight op and deterministically
// complete it or roll it back — no undo log entries for the structure's own
// pointers. It applies the "tracking in order to recover" recipe for
// detectable CAS to the paper's log-less re-execution philosophy: instead of
// logging every pointer mutation, each op logs one fixed-size intent record
// and recovery re-derives the outcome from the surviving state.
//
// # Layout
//
// Header block (anchored in a pool root slot, published by an atomic 8-byte
// root-slot store):
//
//	[0:8)   magic
//	[8:16)  bucket count
//	[16:24) announcement region base (line-aligned)
//	[24:32) announcement slot count
//	[32:)   bucket head pointers
//
// Chain node (16 bytes): [kv word][next]. The kv word carries the logical
// state: bit 0 set marks the node deleted (persistently — a durable mark IS
// the delete). Node addresses are 8-byte aligned so the bit is free. Inserts
// always push at the bucket head, so chains are newest-first and the first
// key match from the head decides an op's view of the key; next pointers are
// immutable after publication. Marked nodes stay physically linked until the
// next recovery unlinks them — deferring physical deletion is what keeps the
// runtime protocol to a single linearizing CAS per op.
//
// Announcement record (one 64-byte line per worker slot; written whole, so
// one Store, and torn-line evictions are caught by the trailing checksum):
//
//	w0 tag      op | slot<<8 | seq<<16 (tag==0 means no op in flight)
//	w1 target   address of the word the linearizing CAS hits
//	w2 expect   CAS expected value
//	w3 new      CAS new value
//	w4 block0   insert: node addr; update: new kv addr
//	w5 block1   insert: kv addr;   update: old kv addr
//	w6 contentsum  checksum over the content the op published (see below)
//	w7 recsum   checksum over w0..w6, bound to the slot id
//
// Durability protocol (two fences per op on the uncontended path):
//
//  1. allocate and write node/kv content; FlushOpt the content lines
//  2. write the announcement; FlushOpt its line; Fence  — content and
//     intent are durable before the CAS can possibly become durable
//  3. CAS64 (the linearization point)
//  4. FlushOpt the target line; Fence — the effect is durable; return
//  5. retire: zero the announcement tag; FlushOpt (no fence — any later
//     fence, or recovery, settles it)
//
// Because step 2 fences before step 3, any durable effect that depends on
// this op's CAS (a later op that read the published pointer and durably
// committed) implies the announcement is durable too, so recovery can always
// roll the missing CAS forward and preserve the dependent effect. The
// contentsum guards the one case roll-forward would be wrong: a crash at the
// fence in step 2 can evict the announcement line but lose content lines, and
// a checksum mismatch then demotes the op to a rollback — always admissible
// for an op that never returned.
//
// Recovery resolves the surviving announcements JOINTLY, not slot by slot.
// Two valid records can target the same word with the same expected value —
// racing CASes of which at most one can have won — and whether an insert of
// key k may roll forward depends on whether a competing delete of k's live
// node does. So recovery lifts every valid record first, groups them by
// target word, and replays each target as a chain from its durable value:
// at every value exactly one arbitrated winner rolls forward (a record
// announced against another record's new value proves that record's CAS
// won; otherwise deletes are preferred, then slot order — all conflicting
// ops are unreturned, so any single choice is admissible). Node-word
// targets settle before bucket-head targets, and an insert whose chain
// still holds a live node for its key is demoted to rollback rather than
// double-creating the key.
//
// Reclamation is deliberately lazy: the runtime never frees (no reclamation
// races, no ABA — addresses are never reused while a concurrent op could
// hold them), and recovery — the only single-threaded phase — also leaks
// rather than free, so re-running an interrupted recovery can never double
// free. Logically deleted nodes are physically unlinked at recovery; their
// blocks, like rolled-back allocations, are reclaimed only by reformatting
// the heap. This mirrors the bounded leak windows the allocator's journal
// already accepts and keeps every recovery step idempotent.
//
// LFHashMap runs against engines that expose their allocator (all four
// failure-atomicity engines; the ido/justdo meters don't): ops bypass the
// transactional engine entirely — the engine's own recovery still runs for
// other structures' txfuncs, after the structure's CAS recovery has resolved
// at attach time (OpenStructure runs before Engine.Recover in every harness).
type LFHashMap struct {
	eng      Engine
	pool     *nvm.Pool
	alloc    *pmem.Allocator
	rootSlot int

	hdr     uint64
	annBase uint64

	// seq is the per-slot announcement sequence. Only the slot's owning
	// worker touches its entry (the engine-wide one-thread-per-slot
	// discipline), so plain increments suffice.
	seq [txn.MaxSlots]uint64

	lastRecovery lfRecovery
}

var (
	_ Store            = (*LFHashMap)(nil)
	_ InvariantChecker = (*LFHashMap)(nil)
)

// LFBuckets is the bucket count. Smaller than the stripe-locked hashmap's
// table: crash sweeps restore the whole pool image per persist point, and the
// CAS lists never rely on short chains for correctness.
const LFBuckets = 1 << 12

const (
	lfMagic     = 0x4c464b4c464d4150 // "LFKLFMAP"
	lfHdrSize   = 32 + LFBuckets*8
	lfAnnSlots  = txn.MaxSlots
	lfMarkBit   = uint64(1)
	lfNodeSize  = 16
	lfTagOp     = uint64(0xff)
	lfOpInsert  = uint64(1)
	lfOpUpdate  = uint64(2)
	lfOpDelMark = uint64(3)
)

// AllocatorProvider is the extra capability LFHashMap needs from its engine:
// direct access to the persistent allocator, because its ops allocate outside
// any transaction.
type AllocatorProvider interface {
	Allocator() *pmem.Allocator
}

// NewLFHashMap opens the lock-free hashmap anchored at pool root slot
// rootSlot, creating it if the slot is empty. Opening an existing map runs
// announcement recovery: every in-flight CAS recorded at the crash is
// completed or rolled back, and logically deleted nodes are physically
// unlinked — before the transactional engine's own recovery runs. The caller
// must be single-threaded until NewLFHashMap returns.
func NewLFHashMap(eng Engine, rootSlot int) (*LFHashMap, error) {
	ap, ok := eng.(AllocatorProvider)
	if !ok {
		return nil, fmt.Errorf("pds: lfhashmap requires an engine exposing its allocator, got %s", eng.Name())
	}
	h := &LFHashMap{eng: eng, pool: eng.Pool(), alloc: ap.Allocator(), rootSlot: rootSlot}
	slotAddr := h.pool.RootSlot(rootSlot)

	if hdr := h.pool.Load64(slotAddr); hdr != 0 {
		if !h.inPool(hdr, lfHdrSize) || h.pool.Load64(hdr) != lfMagic {
			return nil, fmt.Errorf("pds: root slot %d does not hold a lfhashmap", rootSlot)
		}
		if got := h.pool.Load64(hdr + 8); got != LFBuckets {
			return nil, fmt.Errorf("pds: lfhashmap bucket count %d, want %d", got, LFBuckets)
		}
		h.hdr = hdr
		h.annBase = h.pool.Load64(hdr + 16)
		if h.annBase%nvm.LineSize != 0 || !h.inPool(h.annBase, lfAnnSlots*nvm.LineSize) {
			return nil, fmt.Errorf("pds: lfhashmap announcement region %#x corrupt", h.annBase)
		}
		if err := h.recover(); err != nil {
			return nil, err
		}
		return h, nil
	}

	// Create: build header and announcement region, then publish with one
	// atomic root-slot store. A crash before the publish leaks the blocks
	// and leaves the slot empty for a clean re-create.
	hdr, err := h.alloc.Alloc(0, lfHdrSize)
	if err != nil {
		return nil, err
	}
	annRaw, err := h.alloc.Alloc(0, (lfAnnSlots+1)*nvm.LineSize)
	if err != nil {
		return nil, err
	}
	annBase := (annRaw + nvm.LineSize - 1) &^ uint64(nvm.LineSize-1)
	h.pool.Store(hdr, make([]byte, lfHdrSize))
	h.pool.Store64(hdr, lfMagic)
	h.pool.Store64(hdr+8, LFBuckets)
	h.pool.Store64(hdr+16, annBase)
	h.pool.Store64(hdr+24, lfAnnSlots)
	h.pool.Store(annBase, make([]byte, lfAnnSlots*nvm.LineSize))
	h.pool.Flush(hdr, lfHdrSize)
	h.pool.Flush(annBase, lfAnnSlots*nvm.LineSize)
	h.pool.Fence()
	h.pool.Store64(slotAddr, hdr)
	h.pool.Persist(slotAddr, 8)
	h.hdr = hdr
	h.annBase = annBase
	return h, nil
}

// Name implements Store.
func (h *LFHashMap) Name() string { return "lfhashmap" }

func (h *LFHashMap) bucketAddr(b uint64) uint64 { return h.hdr + 32 + b*8 }

// inPool reports whether [addr, addr+n) lies inside the pool. The
// subtraction form cannot wrap, so a corrupt near-2^64 address reads as out
// of bounds instead of bypassing the check and panicking in the pool.
func (h *LFHashMap) inPool(addr, n uint64) bool {
	size := h.pool.Size()
	return addr < size && size-addr >= n
}

func (h *LFHashMap) annAddr(slot int) uint64 {
	return h.annBase + uint64(slot)*nvm.LineSize
}

// mem adapts the pool+allocator pair to txn.Mem so the shared kv-block
// helpers work outside a transaction. hint spreads allocations across arenas
// by worker slot.
type lfMem struct {
	pool  *nvm.Pool
	alloc *pmem.Allocator
	hint  int
}

func (m lfMem) Load(addr txn.Addr, buf []byte)   { m.pool.Load(addr, buf) }
func (m lfMem) Load64(addr txn.Addr) uint64      { return m.pool.Load64(addr) }
func (m lfMem) Store(addr txn.Addr, data []byte) { m.pool.Store(addr, data) }
func (m lfMem) Store64(addr txn.Addr, v uint64)  { m.pool.Store64(addr, v) }
func (m lfMem) Alloc(size uint64) (txn.Addr, error) {
	return m.alloc.Alloc(m.hint, size)
}
func (m lfMem) Free(addr txn.Addr) error { return m.alloc.Free(addr) }
func (m lfMem) WillStore([]txn.Range)    {}

func (h *LFHashMap) mem(slot int) lfMem { return lfMem{h.pool, h.alloc, slot} }

// --- checksums --------------------------------------------------------------

// lfMix folds one word into a running FNV-style hash, word-wise.
func lfMix(acc, v uint64) uint64 {
	acc ^= v
	acc *= 0x100000001b3
	return acc
}

// lfSumBytes hashes a byte range read from the pool.
func lfSumBytes(pool *nvm.Pool, addr, n uint64) uint64 {
	buf := make([]byte, n)
	pool.Load(addr, buf)
	acc := uint64(0xcbf29ce484222325)
	for _, b := range buf {
		acc = lfMix(acc, uint64(b))
	}
	return acc
}

// lfKVSum hashes a kv block (header + key + value).
func lfKVSum(pool *nvm.Pool, kv uint64) (uint64, error) {
	if kv == 0 || kv >= pool.Size() || pool.Size()-kv < 8 {
		return 0, fmt.Errorf("kv header %#x outside pool", kv)
	}
	var hdr [8]byte
	pool.Load(kv, hdr[:])
	klen := uint64(binary.LittleEndian.Uint32(hdr[0:]))
	vlen := uint64(binary.LittleEndian.Uint32(hdr[4:]))
	end := kv + 8 + klen + vlen
	if end > pool.Size() || end < kv {
		return 0, fmt.Errorf("kv block %#x lengths (%d,%d) outside pool", kv, klen, vlen)
	}
	return lfSumBytes(pool, kv, 8+klen+vlen), nil
}

// lfRecSum checksums announcement words w0..w6 bound to the slot id, so a
// torn line (a prefix of fresh words over a stale suffix) or a record
// replayed into the wrong slot reads as invalid.
func lfRecSum(slot int, w [7]uint64) uint64 {
	acc := uint64(0x9e3779b97f4a7c15) ^ uint64(slot)
	for _, v := range w {
		acc = lfMix(acc, v)
	}
	// Never collide with the "no announcement" encoding.
	if acc == 0 {
		acc = 1
	}
	return acc
}

// --- announcements ----------------------------------------------------------

// announce publishes the intent record for the upcoming CAS and makes it —
// and the content it references — durable (protocol steps 1b/2). It must be
// called before every CAS attempt, including retries with a refreshed expect.
func (h *LFHashMap) announce(slot int, op, target, expect, newv, block0, block1, contentsum uint64) {
	h.seq[slot]++
	tag := op | uint64(slot)<<8 | h.seq[slot]<<16
	w := [7]uint64{tag, target, expect, newv, block0, block1, contentsum}
	var line [nvm.LineSize]byte
	for i, v := range w {
		binary.LittleEndian.PutUint64(line[i*8:], v)
	}
	binary.LittleEndian.PutUint64(line[56:], lfRecSum(slot, w))
	a := h.annAddr(slot)
	h.pool.Store(a, line[:])
	h.pool.FlushOpt(a, nvm.LineSize)
	h.pool.Fence()
}

// retire clears the announcement after the op's effect is durable. No fence:
// a crash before the retire line settles leaves a valid announcement whose
// effect check recognizes the op as complete.
func (h *LFHashMap) retire(slot int) {
	a := h.annAddr(slot)
	h.pool.Store64(a, 0)
	h.pool.FlushOpt(a, 8)
}

// commitCAS persists the linearizing CAS (protocol step 4) and retires the
// announcement.
func (h *LFHashMap) commitCAS(slot int, target uint64) {
	h.pool.FlushOpt(target&^7, 8)
	h.pool.Fence()
	h.retire(slot)
}

// --- operations -------------------------------------------------------------

// findResult is one traversal's verdict on a key.
type findResult struct {
	head uint64 // bucket head observed at the start of the walk
	node uint64 // first node whose key matches (0 if none)
	kvw  uint64 // that node's kv word as loaded (mark bit included)
}

// find walks the bucket chain from an atomically loaded head and returns the
// first key match. Newest nodes are closest to the head, so the first match
// is authoritative: a marked first match means the key is absent (any deeper
// match is older and necessarily marked too).
func (h *LFHashMap) find(bucket uint64, key []byte) findResult {
	m := h.mem(0)
	r := findResult{head: h.pool.AtomicLoad64(bucket)}
	steps := 0
	for n := r.head; n != 0; n = h.pool.Load64(n + 8) {
		if steps++; steps > maxWalkSteps {
			panic(fmt.Sprintf("pds: lfhashmap chain exceeded %d nodes", maxWalkSteps))
		}
		kvw := h.pool.AtomicLoad64(n)
		if kvKeyEqual(m, kvw&^lfMarkBit, key) {
			r.node, r.kvw = n, kvw
			return r
		}
	}
	return r
}

func (h *LFHashMap) checkSlot(slot int) error {
	if slot < 0 || slot >= lfAnnSlots {
		return fmt.Errorf("%w: %d (lfhashmap has %d announcement slots)", txn.ErrBadSlot, slot, lfAnnSlots)
	}
	return nil
}

// Insert implements Store: add or update a key. Lock-free — conflicting ops
// are arbitrated by the CAS; a failed CAS re-reads and retries with a fresh
// announcement.
func (h *LFHashMap) Insert(slot int, key, value []byte) error {
	if err := h.checkSlot(slot); err != nil {
		return err
	}
	m := h.mem(slot)
	bucket := h.bucketAddr(fnv1a(key) % LFBuckets)

	// The kv block is immutable content shared by both paths and survives
	// retries; its checksum feeds the announcement's contentsum.
	kv, err := kvWrite(m, key, value)
	if err != nil {
		return err
	}
	kvLen := uint64(8 + len(key) + len(value))
	h.pool.FlushOpt(kv, kvLen)
	kvsum, err := lfKVSum(h.pool, kv)
	if err != nil {
		return err
	}

	var node uint64 // lazily allocated fresh-insert node, reused on retry
	for {
		f := h.find(bucket, key)
		if f.node != 0 && f.kvw&lfMarkBit == 0 {
			// Update: swing the live node's kv word to the new block.
			h.announce(slot, lfOpUpdate, f.node, f.kvw, kv, kv, f.kvw, kvsum)
			if h.pool.CAS64(f.node, f.kvw, kv) {
				h.commitCAS(slot, f.node)
				return nil
			}
			continue // kv word moved (concurrent update or delete): re-read
		}
		// Fresh insert (absent, or the only matches are deleted): push a new
		// node at the head.
		if node == 0 {
			if node, err = m.Alloc(lfNodeSize); err != nil {
				return err
			}
			m.Store64(node, kv)
		}
		m.Store64(node+8, f.head)
		h.pool.FlushOpt(node, lfNodeSize)
		contentsum := lfMix(kvsum, f.head)
		h.announce(slot, lfOpInsert, bucket, f.head, node, node, kv, contentsum)
		if h.pool.CAS64(bucket, f.head, node) {
			h.commitCAS(slot, bucket)
			return nil
		}
	}
}

// Get implements Store. Reads are wait-free per chain and take no
// announcement: the linearization point is the atomic load of the matching
// node's kv word (or of the bucket head for an absent key).
func (h *LFHashMap) Get(slot int, key []byte) ([]byte, bool, error) {
	if err := h.checkSlot(slot); err != nil {
		return nil, false, err
	}
	bucket := h.bucketAddr(fnv1a(key) % LFBuckets)
	f := h.find(bucket, key)
	if f.node == 0 || f.kvw&lfMarkBit != 0 {
		return nil, false, nil
	}
	return kvValue(h.mem(slot), f.kvw), true, nil
}

// Delete implements Store: a durable mark on the kv word IS the delete; the
// node stays chained until the next recovery unlinks it.
func (h *LFHashMap) Delete(slot int, key []byte) (bool, error) {
	if err := h.checkSlot(slot); err != nil {
		return false, err
	}
	bucket := h.bucketAddr(fnv1a(key) % LFBuckets)
	for {
		f := h.find(bucket, key)
		if f.node == 0 || f.kvw&lfMarkBit != 0 {
			return false, nil
		}
		h.announce(slot, lfOpDelMark, f.node, f.kvw, f.kvw|lfMarkBit, 0, 0, 0)
		if h.pool.CAS64(f.node, f.kvw, f.kvw|lfMarkBit) {
			h.commitCAS(slot, f.node)
			return true, nil
		}
	}
}

// Len implements Store: the count of live (unmarked) nodes. Head-insertion
// guarantees at most one unmarked node per key.
func (h *LFHashMap) Len(slot int) (int, error) {
	if err := h.checkSlot(slot); err != nil {
		return 0, err
	}
	n, steps := 0, 0
	for b := uint64(0); b < LFBuckets; b++ {
		for node := h.pool.AtomicLoad64(h.bucketAddr(b)); node != 0; node = h.pool.Load64(node + 8) {
			if steps++; steps > maxWalkSteps {
				return 0, fmt.Errorf("lfhashmap: walk exceeded %d steps (cycle?)", maxWalkSteps)
			}
			if h.pool.AtomicLoad64(node)&lfMarkBit == 0 {
				n++
			}
		}
	}
	return n, nil
}

// CheckInvariants verifies the chains: header sanity, in-pool acyclic links,
// sane kv blocks, hash-correct bucket placement, and at most one LIVE node
// per key (deleted duplicates deeper in a chain are the documented residue of
// delete-then-reinsert and are checked for ordering: every marked duplicate
// must be older, i.e. farther from the head, than the live node).
func (h *LFHashMap) CheckInvariants(slot int) error {
	if err := h.checkSlot(slot); err != nil {
		return err
	}
	pool := h.pool
	m := h.mem(slot)
	if h.hdr == 0 {
		return fmt.Errorf("lfhashmap: nil header")
	}
	if got := pool.Load64(h.hdr); got != lfMagic {
		return fmt.Errorf("lfhashmap: header magic %#x, want %#x", got, lfMagic)
	}
	if got := pool.Load64(h.hdr + 8); got != LFBuckets {
		return fmt.Errorf("lfhashmap: bucket count %d, want %d", got, LFBuckets)
	}
	seenNodes := map[uint64]struct{}{}
	liveKeys := map[string]uint64{}
	steps := 0
	for b := uint64(0); b < LFBuckets; b++ {
		// First-match-from-head is the read rule, so within a bucket every
		// marked duplicate of a key must be DEEPER than its live node: a
		// live node below a marked one would be invisible to Get.
		markedSeen := map[string]struct{}{}
		for node := pool.AtomicLoad64(h.bucketAddr(b)); node != 0; node = pool.Load64(node + 8) {
			if steps++; steps > maxWalkSteps {
				return fmt.Errorf("lfhashmap: chain walk exceeded %d steps (cycle?)", maxWalkSteps)
			}
			if node%8 != 0 || !h.inPool(node, lfNodeSize) {
				return fmt.Errorf("lfhashmap: bucket %d node %#x outside pool or misaligned", b, node)
			}
			if _, dup := seenNodes[node]; dup {
				return fmt.Errorf("lfhashmap: node %#x linked twice (cycle or cross-link)", node)
			}
			seenNodes[node] = struct{}{}
			kvw := pool.AtomicLoad64(node)
			kv := kvw &^ lfMarkBit
			if err := kvSane(m, pool, kv); err != nil {
				return fmt.Errorf("lfhashmap: bucket %d node %#x: %v", b, node, err)
			}
			key := kvKey(m, kv)
			if want := fnv1a(key) % LFBuckets; want != b {
				return fmt.Errorf("lfhashmap: key %q in bucket %d, hash selects %d", key, b, want)
			}
			if kvw&lfMarkBit == 0 {
				if prev, dup := liveKeys[string(key)]; dup {
					return fmt.Errorf("lfhashmap: key %q live in buckets %d and %d", key, prev, b)
				}
				if _, shadowed := markedSeen[string(key)]; shadowed {
					return fmt.Errorf("lfhashmap: key %q has a live node below a deleted one (invisible to first-match reads)", key)
				}
				liveKeys[string(key)] = b
			} else {
				markedSeen[string(key)] = struct{}{}
			}
		}
	}
	return nil
}

// --- recovery ---------------------------------------------------------------

// lfRecovery summarizes one announcement recovery pass (diagnostics).
type lfRecovery struct {
	Completed     int // announcements whose effect was already durable
	RolledForward int // interrupted CASes re-applied
	RolledBack    int // interrupted ops erased (never returned, content torn or CAS lost)
	TornRecords   int // announcement lines that failed their checksum
	Unlinked      int // logically deleted nodes physically removed
}

// LastRecovery returns the counters of the recovery pass this handle ran at
// attach time (zero value when the map was freshly created).
func (h *LFHashMap) LastRecovery() lfRecovery { return h.lastRecovery }

// lfAnnRec is one checksum-valid announcement record lifted from its slot
// before resolution. Records are resolved jointly, not slot by slot: see the
// type comment's recovery paragraph.
type lfAnnRec struct {
	slot       int
	op         uint64
	target     uint64
	expect     uint64
	newv       uint64
	block0     uint64
	block1     uint64
	contentsum uint64
}

// recover resolves every announced in-flight CAS and sweeps logically
// deleted nodes. Single-threaded; every step is idempotent (no frees, plain
// stores only, and every roll-forward is an announced transition that a
// re-run reclassifies as complete), so a crash during recovery re-runs
// cleanly.
func (h *LFHashMap) recover() error {
	pool := h.pool
	var rec lfRecovery

	// Lift every armed announcement. A checksum or slot-binding failure is a
	// torn line: the op never reached its pre-CAS fence, so nothing it did
	// is visible and the record is discarded.
	var recs []lfAnnRec
	armed := make([]bool, lfAnnSlots)
	for s := 0; s < lfAnnSlots; s++ {
		var line [nvm.LineSize]byte
		pool.Load(h.annAddr(s), line[:])
		var w [7]uint64
		for i := range w {
			w[i] = binary.LittleEndian.Uint64(line[i*8:])
		}
		if w[0] == 0 {
			continue
		}
		armed[s] = true
		recsum := binary.LittleEndian.Uint64(line[56:])
		if recsum != lfRecSum(s, w) || int(w[0]>>8&0xff) != s ||
			w[1]%8 != 0 || !h.inPool(w[1], 8) {
			rec.TornRecords++
			continue
		}
		recs = append(recs, lfAnnRec{
			slot: s, op: w[0] & lfTagOp,
			target: w[1], expect: w[2], newv: w[3],
			block0: w[4], block1: w[5], contentsum: w[6],
		})
	}

	// Joint resolution, grouped by target word. Node-word targets
	// (update/delete CASes) settle before bucket-head targets (insert
	// CASes): whether an insert of key k may roll forward depends on
	// whether the chain still holds a live node for k, which the node-word
	// verdicts decide.
	byTarget := map[uint64][]lfAnnRec{}
	var order []uint64
	for _, r := range recs {
		if _, seen := byTarget[r.target]; !seen {
			order = append(order, r.target)
		}
		byTarget[r.target] = append(byTarget[r.target], r)
	}
	headLo, headHi := h.hdr+32, h.hdr+32+LFBuckets*8
	isHead := func(t uint64) bool { return t >= headLo && t < headHi }
	sort.Slice(order, func(i, j int) bool {
		if hi, hj := isHead(order[i]), isHead(order[j]); hi != hj {
			return !hi
		}
		return order[i] < order[j]
	})
	applied := false
	for _, target := range order {
		if h.resolveTarget(target, byTarget[target], &rec) {
			applied = true
		}
	}
	// The resolution stores must be durable before the announcements that
	// justify them are erased: a crash that kept a slot clear but lost its
	// roll-forward would silently drop an op whose dependent durable
	// effects survive.
	if applied {
		pool.Fence()
	}

	dirty := applied
	for s := 0; s < lfAnnSlots; s++ {
		if armed[s] {
			pool.Store64(h.annAddr(s), 0)
			pool.FlushOpt(h.annAddr(s), 8)
			dirty = true
		}
	}

	// Physically unlink every logically deleted node. Chains are short-lived
	// between recoveries, so one pass with plain stores suffices; the blocks
	// themselves are leaked by design (see the type comment).
	steps := 0
	for b := uint64(0); b < LFBuckets; b++ {
		prev := h.bucketAddr(b)
		node := pool.Load64(prev)
		for node != 0 {
			if steps++; steps > maxWalkSteps {
				return fmt.Errorf("pds: lfhashmap recovery walk exceeded %d steps", maxWalkSteps)
			}
			if node%8 != 0 || !h.inPool(node, lfNodeSize) {
				return fmt.Errorf("pds: lfhashmap recovery: bucket %d links node %#x outside pool", b, node)
			}
			next := pool.Load64(node + 8)
			if pool.Load64(node)&lfMarkBit != 0 {
				pool.Store64(prev, next)
				pool.FlushOpt(prev, 8)
				dirty = true
				rec.Unlinked++
			} else {
				prev = node + 8
			}
			node = next
		}
	}
	if dirty {
		pool.Fence()
	}
	h.lastRecovery = rec
	return nil
}

// resolveTarget replays the announced CASes on one word. The durable value
// plus the records form a replay chain: the records whose expected value
// matches the current word are the CASes that could have won next; exactly
// one (the arbitrated winner) rolls forward, and the word advances to its
// new value — which may enable a dependent record announced against that
// value. Addresses are never reused within a crash epoch, so the chain
// never revisits a value and a conflict loser never becomes eligible again.
// Records left over when no candidate matches either already took effect
// durably (complete) or lost their race (rolled back — none of them
// returned, so erasure is admissible). Returns whether any store was made.
func (h *LFHashMap) resolveTarget(target uint64, cands []lfAnnRec, rec *lfRecovery) bool {
	pool := h.pool
	cur := pool.Load64(target)
	reached := map[uint64]bool{cur: true}
	applied := false
	remaining := append([]lfAnnRec(nil), cands...)
	for {
		var elig []int
		for i, c := range remaining {
			if c.expect == cur && h.announcedContentOK(c) {
				elig = append(elig, i)
			}
		}
		if len(elig) == 0 {
			break
		}
		win := elig[0]
		if len(elig) > 1 {
			win = arbitrate(remaining, elig)
		}
		c := remaining[win]
		remaining = append(remaining[:win], remaining[win+1:]...)
		if c.op == lfOpInsert {
			if h.reachable(target, c.block0) {
				// The node is already linked (the CAS was durable after
				// all): the op is complete, and re-applying the head store
				// would cycle the chain.
				rec.Completed++
				continue
			}
			if h.chainHasLiveKey(target, kvKey(h.mem(0), c.block1)) {
				// Rolling forward would create a second live node for the
				// key. The op never returned, so demote it to a rollback.
				rec.RolledBack++
				continue
			}
		}
		pool.Store64(target, c.newv)
		pool.FlushOpt(target, 8)
		rec.RolledForward++
		applied = true
		cur = c.newv
		reached[cur] = true
	}
	for _, c := range remaining {
		switch {
		case c.op == lfOpInsert && h.reachable(target, c.block0):
			rec.Completed++
		case c.op != lfOpInsert && reached[c.newv]:
			rec.Completed++
		default:
			// A durable value the chain never reached: the op lost its race
			// (or a later durable op moved the word past it). Nothing to do.
			rec.RolledBack++
		}
	}
	return applied
}

// arbitrate picks which of several same-expect candidates rolls forward. At
// most one of the racing CASes can have won at runtime, and none of the ops
// returned, so any single choice is admissible — but some are provably
// right:
//
//  1. a candidate whose new value another record on the same target expects
//     must have won — the observer announced against its result;
//  2. otherwise prefer a delete: erasing a never-returned op's key is the
//     conservative verdict, and when a surviving insert announcement
//     re-inserts the victim key it is also the provable one (the inserter
//     can only have seen the key absent via the delete's mark);
//  3. otherwise the lowest slot, for determinism.
//
// elig is in slot order, so "first match" implements the lower tie-breaks.
func arbitrate(cands []lfAnnRec, elig []int) int {
	for _, i := range elig {
		for j, c := range cands {
			if j != i && c.expect == cands[i].newv {
				return i
			}
		}
	}
	for _, i := range elig {
		if cands[i].op == lfOpDelMark {
			return i
		}
	}
	return elig[0]
}

// announcedContentOK gates roll-forward eligibility on the published content
// having survived the crash: content lines can be lost at the announce fence
// itself, and a mismatch demotes the op to a rollback.
func (h *LFHashMap) announcedContentOK(c lfAnnRec) bool {
	switch c.op {
	case lfOpInsert:
		return h.insertContentOK(c.block0, c.block1, c.expect, c.contentsum)
	case lfOpUpdate:
		return h.updateContentOK(c.block0, c.contentsum)
	case lfOpDelMark:
		// A delete publishes no content; its new value must be exactly the
		// announced expect with the mark set.
		return c.newv == c.expect|lfMarkBit
	}
	return false
}

// chainHasLiveKey reports whether the chain anchored at the head word holds
// a live (unmarked) node for key. Corrupt links read as "yes": refusing a
// roll-forward is always admissible for an op that never returned.
func (h *LFHashMap) chainHasLiveKey(head uint64, key []byte) bool {
	pool, m := h.pool, h.mem(0)
	steps := 0
	for n := pool.Load64(head); n != 0; n = pool.Load64(n + 8) {
		if n%8 != 0 || !h.inPool(n, lfNodeSize) {
			return true
		}
		if steps++; steps > maxWalkSteps {
			return true
		}
		kvw := pool.Load64(n)
		if kvw&lfMarkBit != 0 {
			continue
		}
		if _, err := lfKVSum(pool, kvw); err != nil {
			return true
		}
		if kvKeyEqual(m, kvw, key) {
			return true
		}
	}
	return false
}

// reachable reports whether node is linked on the chain whose head word is
// at target (insert announcements always target a bucket head).
func (h *LFHashMap) reachable(target, node uint64) bool {
	pool := h.pool
	steps := 0
	for n := pool.Load64(target); n != 0; {
		if n == node {
			return true
		}
		if n%8 != 0 || !h.inPool(n, lfNodeSize) {
			return false
		}
		if steps++; steps > maxWalkSteps {
			return false
		}
		n = pool.Load64(n + 8)
	}
	return false
}

// insertContentOK verifies the to-be-linked node survived the crash intact:
// in-pool, next still equal to the announced expect, kv word sane, and the
// published content (next word + kv block) matching the announced checksum.
// The node's kv word is excluded from the checksum — a dependent update may
// have durably swung it — and validated structurally instead.
func (h *LFHashMap) insertContentOK(node, kv, expect, contentsum uint64) bool {
	pool := h.pool
	if node%8 != 0 || !h.inPool(node, lfNodeSize) {
		return false
	}
	if pool.Load64(node+8) != expect {
		return false
	}
	kvw := pool.Load64(node) &^ lfMarkBit
	if kvw == 0 || !h.inPool(kvw, 8) {
		return false
	}
	kvsum, err := lfKVSum(pool, kv)
	if err != nil {
		return false
	}
	return lfMix(kvsum, expect) == contentsum
}

// updateContentOK verifies the new kv block against the announced checksum.
func (h *LFHashMap) updateContentOK(kv, contentsum uint64) bool {
	kvsum, err := lfKVSum(h.pool, kv)
	if err != nil {
		return false
	}
	return kvsum == contentsum
}

// ErrNotLockFree tags engines that cannot host the lock-free map.
var ErrNotLockFree = errors.New("pds: engine does not support lock-free structures")
