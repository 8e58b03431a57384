// Package memcache is a memcached-style persistent key-value cache (§5.6):
// a 256-bucket hash table plus an LRU eviction list, both persistent, with
// every mutation a failure-atomic transaction. A text-protocol server
// (protocol.go, server.go), a memslap-style load driver (driver.go), and a
// volatile hot-key front cache (frontcache.go) complete the application.
//
// Like the paper's port, the lock protecting the cache is configurable —
// exclusive mutex, spinlock, or reader-writer lock — because memcached's
// coarse-grained locking, not the persistence engine, dominates its scaling
// behaviour (§5.6's observation).
//
// Write lanes (Options.WriteLanes) attack the same observation from the
// other side: the keyspace is partitioned into K independent persistent
// sub-structures (own buckets, own LRU, own cas counter) on the same pool,
// each guarded by its own lock. Writes to different lanes run their
// engine transactions concurrently, so with group commit enabled their
// commit fences enlist in one shared epoch — the fence cost amortizes
// across the socket fan-in instead of serializing behind one global lock.
// Lanes are structurally disjoint, so concurrent lane transactions are in
// the same crash-recovery class as the proptest battery's disjoint
// keyspace cells. WriteLanes <= 1 keeps the original single-header layout
// and behaviour bit-identical.
//
// Get is read-only (it does not touch the LRU list), matching the paper's
// measurement that search operations "do not involve logging mechanisms";
// eviction order is therefore insertion/update recency.
package memcache

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"clobbernvm/internal/pds"
	"clobbernvm/internal/txn"
)

// numBuckets is the per-lane hash-bucket count (memcached grows its table
// by powers of two; a fixed large table keeps chains short at benchmark
// populations).
const numBuckets = 1 << 16

// LockMode selects the global lock implementation, as in §5.6.
type LockMode int

// Lock modes.
const (
	// LockExclusive is memcached's original global mutex.
	LockExclusive LockMode = iota
	// LockSpin is a spinlock (better for insert-intensive mixes, §5.6).
	LockSpin
	// LockRW is a reader-writer lock (better for search-intensive mixes).
	LockRW
)

func (l LockMode) String() string {
	switch l {
	case LockExclusive:
		return "mutex"
	case LockSpin:
		return "spinlock"
	default:
		return "rwlock"
	}
}

// cacheLock abstracts the three lock choices.
type cacheLock interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

type exclusiveLock struct{ mu sync.Mutex }

func (l *exclusiveLock) Lock()    { l.mu.Lock() }
func (l *exclusiveLock) Unlock()  { l.mu.Unlock() }
func (l *exclusiveLock) RLock()   { l.mu.Lock() }
func (l *exclusiveLock) RUnlock() { l.mu.Unlock() }

type spinLock struct{ state atomic.Int32 }

func (l *spinLock) Lock() {
	for !l.state.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}
func (l *spinLock) Unlock()  { l.state.Store(0) }
func (l *spinLock) RLock()   { l.Lock() }
func (l *spinLock) RUnlock() { l.Unlock() }

type rwLock struct{ mu sync.RWMutex }

func (l *rwLock) Lock()    { l.mu.Lock() }
func (l *rwLock) Unlock()  { l.mu.Unlock() }
func (l *rwLock) RLock()   { l.mu.RLock() }
func (l *rwLock) RUnlock() { l.mu.RUnlock() }

func newCacheLock(mode LockMode) cacheLock {
	switch mode {
	case LockSpin:
		return &spinLock{}
	case LockRW:
		return &rwLock{}
	default:
		return &exclusiveLock{}
	}
}

// Header layout: [magic][count][lruHead][lruTail][capacity][cas][buckets...].
// Item layout: [kv][hnext][lnext][lprev][flags][cas].
//
// With WriteLanes > 1 the root slot holds a lane directory instead:
// [laneMagic][laneCount][laneHdr0..laneHdrK-1], where each lane header has
// the single-lane layout above. A key's lane is a pure function of the
// key, so lane choice is deterministic under re-execution.
//
// The cas counter lives in the persistent (lane) header and is bumped
// inside the set txfunc (a load-then-store clobber write), so re-executed
// sets assign the same cas value they did before the crash — cas stays
// deterministic under recovery.
const (
	mcMagic      = 0x4d454d43 // "MEMC": single-lane header
	mcMagicLanes = 0x4d454d4c // "MEML": lane directory

	dirMagic = 0
	dirLanes = 8
	dirPtrs  = 16

	hdrMagic   = 0
	hdrCount   = 8
	hdrLRUHead = 16
	hdrLRUTail = 24
	hdrCap     = 32
	hdrCas     = 40
	hdrBuckets = 48

	itKV    = 0
	itHNext = 8
	itLNext = 16 // itLNext, itLPrev adjacent: lruPushHead stores both at once
	itLPrev = 24
	itFlags = 32
	itCas   = 40
	itSize  = 48
)

// Cache is the persistent memcached-style store.
type Cache struct {
	eng      pds.Engine
	rootSlot int
	lanes    int
	locks    []cacheLock
	front    *frontCache

	// Volatile statistics.
	Hits, Misses, Evictions atomic.Int64
}

// Options configures the cache.
type Options struct {
	// Capacity is the maximum item count before LRU eviction (default 1M).
	// With lanes it is split evenly: each lane evicts at Capacity/WriteLanes.
	Capacity uint64
	// Lock selects the lock implementation (per lane).
	Lock LockMode
	// WriteLanes partitions the keyspace into that many independent
	// persistent sub-structures so writes to different lanes commit
	// concurrently (and share group-commit epochs). 0 or 1 keeps the
	// original single-header layout bit-identical. When attaching to an
	// existing cache the on-pool layout wins over this option.
	WriteLanes int
	// FrontCache enables the volatile in-DRAM hot-key read cache
	// (frontcache.go). Hot reads skip the txn layer entirely; writes
	// invalidate inline before the ack; crash recovery drops the front
	// wholesale. Off by default: the serving path is then bit-identical
	// to a cache built without this option.
	FrontCache bool
	// FrontCacheEntries bounds the front cache (default 4096 entries).
	FrontCacheEntries int
	// FrontCacheNoInvalidate deliberately breaks the front cache's write
	// invalidation. Test-only: the chaos harness uses it to prove its
	// stale-read audit convicts an incoherent front cache.
	FrontCacheNoInvalidate bool
}

// New opens the cache anchored at pool root slot rootSlot, creating it if
// needed, and registers its txfuncs on the engine.
func New(eng pds.Engine, rootSlot int, opts Options) (*Cache, error) {
	if opts.Capacity == 0 {
		opts.Capacity = 1 << 20
	}
	lanes := opts.WriteLanes
	if lanes < 1 {
		lanes = 1
	}
	c := &Cache{eng: eng, rootSlot: rootSlot, lanes: lanes}
	pool := eng.Pool()
	slotAddr := pool.RootSlot(rootSlot)
	c.register()
	if root := pool.Load64(slotAddr); root != 0 {
		switch pool.Load64(root) {
		case mcMagic:
			c.lanes = 1
		case mcMagicLanes:
			c.lanes = int(pool.Load64(root + dirLanes))
		default:
			return nil, fmt.Errorf("memcache: root slot %d does not hold a cache", rootSlot)
		}
	} else if c.lanes == 1 {
		if err := eng.Run(0, c.fn("init"), txn.NewArgs().PutUint64(opts.Capacity)); err != nil {
			return nil, err
		}
	} else {
		args := txn.NewArgs().PutUint64(opts.Capacity).PutUint64(uint64(c.lanes))
		if err := eng.Run(0, c.fn("initlanes"), args); err != nil {
			return nil, err
		}
	}
	c.locks = make([]cacheLock, c.lanes)
	for i := range c.locks {
		c.locks[i] = newCacheLock(opts.Lock)
	}
	if opts.FrontCache {
		c.front = newFrontCache(opts.FrontCacheEntries, opts.FrontCacheNoInvalidate)
	}
	return c, nil
}

func (c *Cache) fn(op string) string { return fmt.Sprintf("memcache%d:%s", c.rootSlot, op) }

// root returns whatever the root slot anchors: a single-lane header or a
// lane directory.
func (c *Cache) root(m txn.Mem) txn.Addr {
	return m.Load64(c.eng.Pool().RootSlot(c.rootSlot))
}

// laneIndex maps a key to its write lane: a pure function of the key so
// re-executed transactions pick the same lane.
func laneIndex(key []byte, lanes int) uint64 {
	if lanes <= 1 {
		return 0
	}
	// High hash bits, so the lane choice decorrelates from the bucket
	// choice (hashKey uses the low bits via the modulus).
	return (frontHash(key) >> 32) % uint64(lanes)
}

// laneHdr resolves the header governing key: the root itself in the
// single-lane layout, or the key's lane header from the directory.
func (c *Cache) laneHdr(m txn.Mem, key []byte) txn.Addr {
	root := c.root(m)
	if m.Load64(root+dirMagic) == mcMagic {
		return root
	}
	lane := laneIndex(key, int(m.Load64(root+dirLanes)))
	return m.Load64(root + dirPtrs + txn.Addr(lane*8))
}

// lockFor returns the lane lock governing key.
func (c *Cache) lockFor(key []byte) cacheLock {
	return c.locks[laneIndex(key, c.lanes)]
}

func hashKey(key []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h % numBuckets
}

func bucketAddr(hdr txn.Addr, b uint64) txn.Addr { return hdr + hdrBuckets + b*8 }

// kv block layout is the same as pds: [klen u32][vlen u32][key][val]; we
// duplicate the tiny helpers here to keep the packages independent.
func kvWrite(m txn.Mem, key, val []byte) (txn.Addr, error) {
	addr, err := m.Alloc(8 + uint64(len(key)) + uint64(len(val)))
	if err != nil {
		return 0, err
	}
	m.Store64(addr, uint64(len(key))|uint64(len(val))<<32)
	if len(key) > 0 {
		m.Store(addr+8, key)
	}
	if len(val) > 0 {
		m.Store(addr+8+uint64(len(key)), val)
	}
	return addr, nil
}

func kvLens(m txn.Mem, addr txn.Addr) (int, int) {
	w := m.Load64(addr)
	return int(uint32(w)), int(w >> 32)
}

func kvKeyEqual(m txn.Mem, addr txn.Addr, key []byte) bool {
	klen, _ := kvLens(m, addr)
	if klen != len(key) {
		return false
	}
	buf := make([]byte, klen)
	m.Load(addr+8, buf)
	return string(buf) == string(key)
}

func kvVal(m txn.Mem, addr txn.Addr) []byte {
	klen, vlen := kvLens(m, addr)
	buf := make([]byte, vlen)
	if vlen > 0 {
		m.Load(addr+8+uint64(klen), buf)
	}
	return buf
}

func kvKey(m txn.Mem, addr txn.Addr) []byte {
	klen, _ := kvLens(m, addr)
	buf := make([]byte, klen)
	if klen > 0 {
		m.Load(addr+8, buf)
	}
	return buf
}

// lruUnlink detaches item from the LRU list.
func lruUnlink(m txn.Mem, hdr, item txn.Addr) {
	prev, next := m.Load64(item+itLPrev), m.Load64(item+itLNext)
	if prev != 0 {
		m.Store64(prev+itLNext, next)
	} else {
		m.Store64(hdr+hdrLRUHead, next)
	}
	if next != 0 {
		m.Store64(next+itLPrev, prev)
	} else {
		m.Store64(hdr+hdrLRUTail, prev)
	}
}

// lruPushHead makes item the most recently used. The item's two links are
// adjacent words and go out as one store, so relinking an item that was on
// the list (an update read both) costs one clobber entry, not two.
func lruPushHead(m txn.Mem, hdr, item txn.Addr) {
	head := m.Load64(hdr + hdrLRUHead)
	var links [16]byte // itLNext = head, itLPrev = 0
	binary.LittleEndian.PutUint64(links[:], head)
	m.Store(item+itLNext, links[:])
	if head != 0 {
		m.Store64(head+itLPrev, item)
	} else {
		m.Store64(hdr+hdrLRUTail, item)
	}
	m.Store64(hdr+hdrLRUHead, item)
}

// bucketUnlink removes item from its hash chain.
func bucketUnlink(m txn.Mem, hdr, item txn.Addr, key []byte) {
	b := bucketAddr(hdr, hashKey(key))
	prev := txn.Addr(0)
	for cur := m.Load64(b); cur != 0; cur = m.Load64(cur + itHNext) {
		if cur == item {
			next := m.Load64(cur + itHNext)
			if prev == 0 {
				m.Store64(b, next)
			} else {
				m.Store64(prev+itHNext, next)
			}
			return
		}
		prev = cur
	}
}

// initHeader lays out one single-lane-format header.
func initHeader(m txn.Mem, capacity uint64) (txn.Addr, error) {
	hdr, err := m.Alloc(hdrBuckets + numBuckets*8)
	if err != nil {
		return 0, err
	}
	m.Store64(hdr+hdrMagic, mcMagic)
	m.Store64(hdr+hdrCount, 0)
	m.Store64(hdr+hdrLRUHead, 0)
	m.Store64(hdr+hdrLRUTail, 0)
	m.Store64(hdr+hdrCap, capacity)
	m.Store64(hdr+hdrCas, 0)
	m.Store(hdr+hdrBuckets, make([]byte, numBuckets*8))
	return hdr, nil
}

// storeUpdate is the in-place-update half of a storing txfunc: replace
// the item's kv block and move it to the LRU head.
func storeUpdate(m txn.Mem, hdr, it, kv txn.Addr, key, val []byte, flags, cas uint64) error {
	nkv, err := kvWrite(m, key, val)
	if err != nil {
		return err
	}
	m.Store64(it+itKV, nkv) // clobber
	m.Store64(it+itFlags, flags)
	m.Store64(it+itCas, cas)
	if err := m.Free(kv); err != nil {
		return err
	}
	lruUnlink(m, hdr, it)
	lruPushHead(m, hdr, it)
	return nil
}

// storeInsert is the fresh-insert half of a storing txfunc: new item at
// the bucket head and LRU head, evicting the LRU tail when over capacity
// (inside the same transaction: a store that evicts is still one atomic
// operation). Reports whether an eviction happened.
func (c *Cache) storeInsert(m txn.Mem, hdr, b txn.Addr, key, val []byte, flags, cas uint64) error {
	kv, err := kvWrite(m, key, val)
	if err != nil {
		return err
	}
	it, err := m.Alloc(itSize)
	if err != nil {
		return err
	}
	m.Store64(it+itKV, kv)
	m.Store64(it+itHNext, m.Load64(b))
	m.Store64(it+itFlags, flags)
	m.Store64(it+itCas, cas)
	m.Store64(b, it) // clobber: bucket head
	lruPushHead(m, hdr, it)
	count := m.Load64(hdr+hdrCount) + 1
	m.Store64(hdr+hdrCount, count) // clobber: item count

	if count > m.Load64(hdr+hdrCap) {
		tail := m.Load64(hdr + hdrLRUTail)
		if tail != 0 && tail != it {
			tkv := m.Load64(tail + itKV)
			bucketUnlink(m, hdr, tail, kvKey(m, tkv))
			lruUnlink(m, hdr, tail)
			m.Store64(hdr+hdrCount, count-1)
			if err := m.Free(tkv); err != nil {
				return err
			}
			if err := m.Free(tail); err != nil {
				return err
			}
			c.Evictions.Add(1)
		}
	}
	return nil
}

func (c *Cache) register() {
	slotAddr := c.eng.Pool().RootSlot(c.rootSlot)

	c.eng.Register(c.fn("init"), func(m txn.Mem, args *txn.Args) error {
		hdr, err := initHeader(m, args.Uint64(0))
		if err != nil {
			return err
		}
		m.Store64(slotAddr, hdr)
		return nil
	})

	c.eng.Register(c.fn("initlanes"), func(m txn.Mem, args *txn.Args) error {
		capacity, lanes := args.Uint64(0), args.Uint64(1)
		dir, err := m.Alloc(dirPtrs + lanes*8)
		if err != nil {
			return err
		}
		m.Store64(dir+dirMagic, mcMagicLanes)
		m.Store64(dir+dirLanes, lanes)
		per := capacity / lanes
		if per == 0 {
			per = 1
		}
		for i := uint64(0); i < lanes; i++ {
			hdr, err := initHeader(m, per)
			if err != nil {
				return err
			}
			m.Store64(dir+dirPtrs+txn.Addr(i*8), hdr)
		}
		m.Store64(slotAddr, dir)
		return nil
	})

	// A set that updates writes four clobber entries, one fence each: hdrCas
	// (here), it+itKV (storeUpdate), the item's link pair and hdrLRUHead
	// (lruPushHead). hdrCas and hdrLRUHead are three words apart in the
	// header; making them one entry would change the on-media layout.
	c.eng.Register(c.fn("set"), func(m txn.Mem, args *txn.Args) error {
		key, val := args.Bytes(0), args.Bytes(1)
		flags := args.Uint64(2)
		hdr := c.laneHdr(m, key)
		b := bucketAddr(hdr, hashKey(key))
		cas := m.Load64(hdr+hdrCas) + 1
		m.Store64(hdr+hdrCas, cas) // clobber: cas counter

		// Update in place if present.
		for it := m.Load64(b); it != 0; it = m.Load64(it + itHNext) {
			kv := m.Load64(it + itKV)
			if kvKeyEqual(m, kv, key) {
				return storeUpdate(m, hdr, it, kv, key, val, flags, cas)
			}
		}
		return c.storeInsert(m, hdr, b, key, val, flags, cas)
	})

	// add stores only when the key is absent; the in-transaction presence
	// check (not the caller's pre-check) is what re-execution replays, so
	// the decision is deterministic under recovery. A no-op add does not
	// bump the cas counter.
	c.eng.Register(c.fn("add"), func(m txn.Mem, args *txn.Args) error {
		key, val := args.Bytes(0), args.Bytes(1)
		flags := args.Uint64(2)
		hdr := c.laneHdr(m, key)
		b := bucketAddr(hdr, hashKey(key))
		for it := m.Load64(b); it != 0; it = m.Load64(it + itHNext) {
			if kvKeyEqual(m, m.Load64(it+itKV), key) {
				return nil // present: add is a no-op
			}
		}
		cas := m.Load64(hdr+hdrCas) + 1
		m.Store64(hdr+hdrCas, cas)
		return c.storeInsert(m, hdr, b, key, val, flags, cas)
	})

	// replace stores only when the key is present (same determinism
	// argument as add).
	c.eng.Register(c.fn("replace"), func(m txn.Mem, args *txn.Args) error {
		key, val := args.Bytes(0), args.Bytes(1)
		flags := args.Uint64(2)
		hdr := c.laneHdr(m, key)
		b := bucketAddr(hdr, hashKey(key))
		for it := m.Load64(b); it != 0; it = m.Load64(it + itHNext) {
			kv := m.Load64(it + itKV)
			if kvKeyEqual(m, kv, key) {
				cas := m.Load64(hdr+hdrCas) + 1
				m.Store64(hdr+hdrCas, cas)
				return storeUpdate(m, hdr, it, kv, key, val, flags, cas)
			}
		}
		return nil // absent: replace is a no-op
	})

	c.eng.Register(c.fn("delete"), func(m txn.Mem, args *txn.Args) error {
		key := args.Bytes(0)
		hdr := c.laneHdr(m, key)
		b := bucketAddr(hdr, hashKey(key))
		for it := m.Load64(b); it != 0; it = m.Load64(it + itHNext) {
			kv := m.Load64(it + itKV)
			if kvKeyEqual(m, kv, key) {
				bucketUnlink(m, hdr, it, key)
				lruUnlink(m, hdr, it)
				m.Store64(hdr+hdrCount, m.Load64(hdr+hdrCount)-1)
				if err := m.Free(kv); err != nil {
					return err
				}
				return m.Free(it)
			}
		}
		return nil
	})
}

// afterWrite runs inside the writer's exclusive lane critical section,
// after the transaction and before the ack: invalidate the written key in
// the front cache, and drop the front wholesale if the transaction
// evicted a (different, unknown-to-us) key from the persistent LRU.
func (c *Cache) afterWrite(key []byte, evictionsBefore int64) {
	if c.front == nil {
		return
	}
	c.front.invalidate(key)
	if c.Evictions.Load() != evictionsBefore {
		c.front.dropAll()
	}
}

// Set stores key=value with zero flags.
func (c *Cache) Set(slot int, key, value []byte) error {
	return c.SetFlags(slot, key, value, 0)
}

// SetFlags stores key=value with the memcached client-opaque flags word.
func (c *Cache) SetFlags(slot int, key, value []byte, flags uint32) error {
	lk := c.lockFor(key)
	lk.Lock()
	defer lk.Unlock()
	ev := c.Evictions.Load()
	err := c.eng.Run(slot, c.fn("set"),
		txn.NewArgs().PutBytes(key).PutBytes(value).PutUint64(uint64(flags)))
	c.afterWrite(key, ev)
	return err
}

// contains reports whether key is present in the persistent store. The
// caller must hold the key's lane lock.
func (c *Cache) contains(slot int, key []byte) (bool, error) {
	exists := false
	err := c.eng.RunRO(slot, func(m txn.Mem) error {
		hdr := c.laneHdr(m, key)
		for it := m.Load64(bucketAddr(hdr, hashKey(key))); it != 0; it = m.Load64(it + itHNext) {
			if kvKeyEqual(m, m.Load64(it+itKV), key) {
				exists = true
				return nil
			}
		}
		return nil
	})
	return exists, err
}

// Add stores key=value only if the key is absent, reporting whether it
// stored (memcached add semantics).
func (c *Cache) Add(slot int, key, value []byte, flags uint32) (bool, error) {
	lk := c.lockFor(key)
	lk.Lock()
	defer lk.Unlock()
	exists, err := c.contains(slot, key)
	if err != nil || exists {
		return false, err
	}
	ev := c.Evictions.Load()
	err = c.eng.Run(slot, c.fn("add"),
		txn.NewArgs().PutBytes(key).PutBytes(value).PutUint64(uint64(flags)))
	c.afterWrite(key, ev)
	return err == nil, err
}

// Replace stores key=value only if the key is present, reporting whether
// it stored (memcached replace semantics).
func (c *Cache) Replace(slot int, key, value []byte, flags uint32) (bool, error) {
	lk := c.lockFor(key)
	lk.Lock()
	defer lk.Unlock()
	exists, err := c.contains(slot, key)
	if err != nil || !exists {
		return false, err
	}
	ev := c.Evictions.Load()
	err = c.eng.Run(slot, c.fn("replace"),
		txn.NewArgs().PutBytes(key).PutBytes(value).PutUint64(uint64(flags)))
	c.afterWrite(key, ev)
	return err == nil, err
}

// Get returns the value for key.
func (c *Cache) Get(slot int, key []byte) ([]byte, bool, error) {
	v, _, found, err := c.GetFlags(slot, key)
	return v, found, err
}

// GetFlags returns the value and stored flags for key.
func (c *Cache) GetFlags(slot int, key []byte) ([]byte, uint32, bool, error) {
	v, flags, _, found, err := c.GetWithCAS(slot, key)
	return v, flags, found, err
}

// GetWithCAS returns the value, stored flags and cas id for key (the gets
// command's 5-token VALUE line). With the front cache enabled, hot reads
// are answered from DRAM without touching the lane lock or the txn layer.
func (c *Cache) GetWithCAS(slot int, key []byte) ([]byte, uint32, uint64, bool, error) {
	if c.front != nil {
		if e, ok := c.front.get(key); ok {
			c.Hits.Add(1)
			return e.val, e.flags, e.cas, true, nil
		}
	}
	lk := c.lockFor(key)
	lk.RLock()
	defer lk.RUnlock()
	var out []byte
	var flags uint32
	var cas uint64
	found := false
	err := c.eng.RunRO(slot, func(m txn.Mem) error {
		hdr := c.laneHdr(m, key)
		for it := m.Load64(bucketAddr(hdr, hashKey(key))); it != 0; it = m.Load64(it + itHNext) {
			kv := m.Load64(it + itKV)
			if kvKeyEqual(m, kv, key) {
				out = kvVal(m, kv)
				flags = uint32(m.Load64(it + itFlags))
				cas = m.Load64(it + itCas)
				found = true
				return nil
			}
		}
		return nil
	})
	if found {
		c.Hits.Add(1)
		if c.front != nil && err == nil {
			// Populate under the lane read lock: a concurrent writer for
			// this key cannot be inside its exclusive section, so this
			// entry is erased by any later write's invalidate.
			c.front.put(key, out, flags, cas)
		}
	} else {
		c.Misses.Add(1)
	}
	return out, flags, cas, found, err
}

// Engine returns the cache's persistence engine (for stats reporting).
func (c *Cache) Engine() pds.Engine { return c.eng }

// Counters returns the volatile hit/miss/eviction counters in one call (the
// Backend accessor sessions use for the stats command; a Supervisor forwards
// it to whichever cache incarnation is current).
func (c *Cache) Counters() (hits, misses, evictions int64) {
	return c.Hits.Load(), c.Misses.Load(), c.Evictions.Load()
}

// FrontStats returns the front cache's counters (zero-valued with
// Enabled=false when no front cache is configured).
func (c *Cache) FrontStats() FrontStats { return c.front.stats() }

// Lanes returns the cache's write-lane count.
func (c *Cache) Lanes() int { return c.lanes }

// Delete removes key, reporting whether it existed.
func (c *Cache) Delete(slot int, key []byte) (bool, error) {
	lk := c.lockFor(key)
	lk.Lock()
	defer lk.Unlock()
	exists, err := c.contains(slot, key)
	if err != nil || !exists {
		return false, err
	}
	err = c.eng.Run(slot, c.fn("delete"), txn.NewArgs().PutBytes(key))
	if c.front != nil {
		c.front.invalidate(key)
	}
	return err == nil, err
}

// rlockAll takes every lane's read lock (in index order; writers hold at
// most one lane lock, so ordering cannot deadlock against them).
func (c *Cache) rlockAll() {
	for _, l := range c.locks {
		l.RLock()
	}
}

func (c *Cache) runlockAll() {
	for i := len(c.locks) - 1; i >= 0; i-- {
		c.locks[i].RUnlock()
	}
}

// Len returns the item count (summed across lanes).
func (c *Cache) Len() (int, error) {
	c.rlockAll()
	defer c.runlockAll()
	var n uint64
	err := c.eng.RunRO(0, func(m txn.Mem) error {
		root := c.root(m)
		if m.Load64(root+dirMagic) == mcMagic {
			n = m.Load64(root + hdrCount)
			return nil
		}
		lanes := m.Load64(root + dirLanes)
		for i := uint64(0); i < lanes; i++ {
			hdr := m.Load64(root + dirPtrs + txn.Addr(i*8))
			n += m.Load64(hdr + hdrCount)
		}
		return nil
	})
	return int(n), err
}

// checkHeader verifies one lane header's count, bucket-chain and LRU-list
// consistency.
func checkHeader(m txn.Mem, hdr txn.Addr) error {
	count := m.Load64(hdr + hdrCount)
	// Walk every bucket chain.
	inBuckets := map[txn.Addr]bool{}
	for b := uint64(0); b < numBuckets; b++ {
		for it := m.Load64(bucketAddr(hdr, b)); it != 0; it = m.Load64(it + itHNext) {
			if inBuckets[it] {
				return fmt.Errorf("memcache: bucket cycle at %#x", it)
			}
			inBuckets[it] = true
		}
	}
	if uint64(len(inBuckets)) != count {
		return fmt.Errorf("memcache: count %d but %d items in buckets", count, len(inBuckets))
	}
	// Walk the LRU list both ways.
	seen := 0
	var last txn.Addr
	for it := m.Load64(hdr + hdrLRUHead); it != 0; it = m.Load64(it + itLNext) {
		if !inBuckets[it] {
			return fmt.Errorf("memcache: LRU item %#x missing from buckets", it)
		}
		seen++
		if seen > len(inBuckets) {
			return fmt.Errorf("memcache: LRU cycle")
		}
		last = it
	}
	if seen != len(inBuckets) {
		return fmt.Errorf("memcache: LRU has %d items, buckets %d", seen, len(inBuckets))
	}
	if last != m.Load64(hdr+hdrLRUTail) {
		return fmt.Errorf("memcache: LRU tail mismatch")
	}
	return nil
}

// CheckInvariants verifies count, bucket-chain and LRU-list consistency
// for every lane.
func (c *Cache) CheckInvariants() error {
	c.rlockAll()
	defer c.runlockAll()
	return c.eng.RunRO(0, func(m txn.Mem) error {
		root := c.root(m)
		if m.Load64(root+dirMagic) == mcMagic {
			return checkHeader(m, root)
		}
		lanes := m.Load64(root + dirLanes)
		for i := uint64(0); i < lanes; i++ {
			if err := checkHeader(m, m.Load64(root+dirPtrs+txn.Addr(i*8))); err != nil {
				return fmt.Errorf("lane %d: %w", i, err)
			}
		}
		return nil
	})
}
