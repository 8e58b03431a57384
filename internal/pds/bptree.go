package pds

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"clobbernvm/internal/txn"
)

// B+tree geometry. Keys live inline in fixed slots (the benchmark's B+tree
// keys are 32 bytes, §5.2); values are kv-block pointers in the leaves.
const (
	bptOrder   = 16 // max keys per node
	bptKeyCap  = 32
	bptKeySlot = 8 + bptKeyCap // length word + bytes

	bptIsLeaf = 0
	bptNKeys  = 8
	bptKeys   = 16
	bptPtrs   = bptKeys + bptOrder*bptKeySlot
	bptNext   = bptPtrs + (bptOrder+1)*8
	bptSize   = bptNext + 8
)

// bptStripes is the number of leaf-lock stripes standing in for per-node
// reader-writer locks.
const bptStripes = 512

// BPTree is the persistent B+tree benchmark: "reader-writer locks at the
// granularity of individual nodes, stores keys in the internal nodes, and
// adds both the key and the value to the leaf nodes" (§5.2). This is the
// structure the paper highlights for scalability.
//
// Locking: a tree-level reader-writer lock is held shared by every
// operation; inserts additionally take the target leaf's stripe lock.
// Structural changes (splits) promote to the exclusive tree lock. Non-split
// inserts into different leaves therefore proceed in parallel — the
// fine-grained behaviour the paper credits for B+tree's scaling.
type BPTree struct {
	eng      Engine
	rootSlot int

	treeMu  sync.RWMutex
	stripes [bptStripes]sync.RWMutex
}

var _ Store = (*BPTree)(nil)

const bptMagic = 0x42505452 // "BPTR"

// NewBPTree opens the tree anchored at rootSlot, creating it if needed.
func NewBPTree(eng Engine, rootSlot int) (*BPTree, error) {
	t := &BPTree{eng: eng, rootSlot: rootSlot}
	pool := eng.Pool()
	slotAddr := pool.RootSlot(rootSlot)
	t.register()
	if hdr := pool.Load64(slotAddr); hdr != 0 {
		if pool.Load64(hdr) != bptMagic {
			return nil, fmt.Errorf("pds: root slot %d does not hold a bptree", rootSlot)
		}
		return t, nil
	}
	if err := eng.Run(0, t.fn("init"), txn.NoArgs); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *BPTree) fn(op string) string { return instanceName("bptree", t.rootSlot, op) }

// Name implements Store.
func (t *BPTree) Name() string { return "bptree" }

func (t *BPTree) rootLink(m txn.Mem) txn.Addr {
	return m.Load64(t.eng.Pool().RootSlot(t.rootSlot)) + 8
}

// --- node field helpers ------------------------------------------------------

func bptKeyAddr(n txn.Addr, i int) txn.Addr { return n + bptKeys + uint64(i)*bptKeySlot }
func bptPtrAddr(n txn.Addr, i int) txn.Addr { return n + bptPtrs + uint64(i)*8 }

func bptLoadKey(m txn.Mem, n txn.Addr, i int) []byte {
	a := bptKeyAddr(n, i)
	l := m.Load64(a)
	key := make([]byte, l)
	if l > 0 {
		m.Load(a+8, key)
	}
	return key
}

// bptSlotKey returns the key held in a key-slot image, capped at its length.
func bptSlotKey(slot []byte) []byte {
	end := 8 + binary.LittleEndian.Uint64(slot)
	return slot[8:end:end]
}

// bptCtx is one operation's view of the tree: the Mem it runs on and the
// volatile scratch in which key runs are compared and new node images are
// built. Contexts are pooled, so neither a search nor a shift allocates.
type bptCtx struct {
	m   txn.Mem
	buf [bptOrder * bptKeySlot]byte
}

var bptCtxPool = sync.Pool{New: func() any { return new(bptCtx) }}

func bptOpen(m txn.Mem) *bptCtx {
	c := bptCtxPool.Get().(*bptCtx)
	c.m = m
	return c
}

func (c *bptCtx) close() {
	c.m = nil
	bptCtxPool.Put(c)
}

// search returns the first index i with keys[i] >= key, whether it is an
// exact match, and the node's key count. The live key run is read with one
// Load and compared in the scratch.
func (c *bptCtx) search(n txn.Addr, key []byte) (i int, exact bool, nk int) {
	nk = int(c.m.Load64(n + bptNKeys))
	run := c.buf[:nk*bptKeySlot]
	if nk > 0 {
		c.m.Load(bptKeyAddr(n, 0), run)
	}
	lo, hi := 0, nk
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(bptSlotKey(run[mid*bptKeySlot:]), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	exact = lo < nk && bytes.Equal(bptSlotKey(run[lo*bptKeySlot:]), key)
	return lo, exact, nk
}

// insertAt puts elem at index i of the array of len(elem)-byte elements at
// base, moving elements [i, n) up one place. The new image of [i, n] is built
// in the scratch (elem, then the old run read with one Load) and written with
// one Store: a memmove in every engine's own discipline, logged as one range
// whatever the shift distance.
func (c *bptCtx) insertAt(base txn.Addr, i, n int, elem []byte) {
	at := base + uint64(i*len(elem))
	img := c.buf[:(n-i+1)*len(elem)]
	copy(img, elem)
	if i < n {
		c.m.Load(at, img[len(elem):])
	}
	c.m.Store(at, img)
}

// insertKey makes key the i-th of node n's nk keys.
func (c *bptCtx) insertKey(n txn.Addr, i, nk int, key []byte) {
	var slot [bptKeySlot]byte // length word, bytes, zero padding
	binary.LittleEndian.PutUint64(slot[:], uint64(len(key)))
	copy(slot[8:], key)
	c.insertAt(n+bptKeys, i, nk, slot[:])
}

// insertPtr makes p the i-th of node n's np pointers.
func (c *bptCtx) insertPtr(n txn.Addr, i, np int, p txn.Addr) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], p)
	c.insertAt(n+bptPtrs, i, np, w[:])
}

// copyRun copies nbytes from src to dst through the scratch, one Load and one
// Store, and returns the image.
func (c *bptCtx) copyRun(dst, src txn.Addr, nbytes int) []byte {
	img := c.buf[:nbytes]
	if nbytes > 0 {
		c.m.Load(src, img)
		c.m.Store(dst, img)
	}
	return img
}

// findLeaf descends to the leaf that owns key.
func (c *bptCtx) findLeaf(t *BPTree, key []byte) txn.Addr {
	n := c.m.Load64(t.rootLink(c.m))
	if n == 0 {
		return 0
	}
	for c.m.Load64(n+bptIsLeaf) == 0 {
		i, exact, _ := c.search(n, key)
		if exact {
			i++ // equal keys descend right (children[i] < keys[i] <= children[i+1])
		}
		n = c.m.Load64(bptPtrAddr(n, i))
	}
	return n
}

func (t *BPTree) register() {
	slotAddr := t.eng.Pool().RootSlot(t.rootSlot)

	t.eng.Register(t.fn("init"), func(m txn.Mem, _ *txn.Args) error {
		hdr, err := m.Alloc(16)
		if err != nil {
			return err
		}
		m.Store64(hdr, bptMagic)
		m.Store64(hdr+8, 0)
		m.Store64(slotAddr, hdr)
		return nil
	})

	t.eng.Register(t.fn("ins"), func(m txn.Mem, args *txn.Args) error {
		key, val := args.Bytes(0), args.Bytes(1)
		if len(key) > bptKeyCap {
			return fmt.Errorf("%w: %d bytes (cap %d)", ErrKeyTooLarge, len(key), bptKeyCap)
		}
		c := bptOpen(m)
		defer c.close()
		rl := t.rootLink(m)
		root := m.Load64(rl)
		if root == 0 {
			leaf, err := t.newNode(m, true)
			if err != nil {
				return err
			}
			kv, err := kvWrite(m, key, val)
			if err != nil {
				return err
			}
			c.insertKey(leaf, 0, 0, key)
			c.insertPtr(leaf, 0, 0, kv)
			m.Store64(leaf+bptNKeys, 1)
			m.Store64(rl, leaf)
			return nil
		}
		sepKey, newNode, err := t.insertRec(c, root, key, val)
		if err != nil {
			return err
		}
		if newNode != 0 {
			nr, err := t.newNode(m, false)
			if err != nil {
				return err
			}
			c.insertKey(nr, 0, 0, sepKey)
			m.Store64(bptPtrAddr(nr, 0), root)
			m.Store64(bptPtrAddr(nr, 1), newNode)
			m.Store64(nr+bptNKeys, 1)
			m.Store64(rl, nr)
		}
		return nil
	})

	t.eng.Register(t.fn("del"), func(m txn.Mem, args *txn.Args) error {
		key := args.Bytes(0)
		c := bptOpen(m)
		defer c.close()
		leaf := c.findLeaf(t, key)
		if leaf == 0 {
			return nil
		}
		i, exact, nk := c.search(leaf, key)
		if !exact {
			return nil
		}
		kv := m.Load64(bptPtrAddr(leaf, i))
		// clobber: each run moves down one place over its own old image, one
		// entry per array however far the shift reaches.
		c.copyRun(bptKeyAddr(leaf, i), bptKeyAddr(leaf, i+1), (nk-1-i)*bptKeySlot)
		c.copyRun(bptPtrAddr(leaf, i), bptPtrAddr(leaf, i+1), (nk-1-i)*8)
		m.Store64(leaf+bptNKeys, uint64(nk-1)) // clobber; lazy deletion: no merging
		return m.Free(kv)
	})
}

func (t *BPTree) newNode(m txn.Mem, leaf bool) (txn.Addr, error) {
	n, err := m.Alloc(bptSize)
	if err != nil {
		return 0, err
	}
	isLeaf := uint64(0)
	if leaf {
		isLeaf = 1
	}
	m.Store64(n+bptIsLeaf, isLeaf)
	m.Store64(n+bptNKeys, 0)
	m.Store64(n+bptNext, 0)
	return n, nil
}

// insertRec inserts into the subtree rooted at n. If n split, it returns the
// separator key and the new right sibling for the parent to absorb.
func (t *BPTree) insertRec(c *bptCtx, n txn.Addr, key, val []byte) ([]byte, txn.Addr, error) {
	if c.m.Load64(n+bptIsLeaf) == 1 {
		return t.insertLeaf(c, n, key, val)
	}
	i, exact, _ := c.search(n, key)
	if exact {
		i++
	}
	child := c.m.Load64(bptPtrAddr(n, i))
	sep, newChild, err := t.insertRec(c, child, key, val)
	if err != nil || newChild == 0 {
		return nil, 0, err
	}
	return t.insertInternal(c, n, i, sep, newChild)
}

// insertLeaf puts (key, val) into leaf n, splitting if full.
func (t *BPTree) insertLeaf(c *bptCtx, n txn.Addr, key, val []byte) ([]byte, txn.Addr, error) {
	m := c.m
	i, exact, nk := c.search(n, key)
	if exact {
		old := m.Load64(bptPtrAddr(n, i))
		kv, err := kvWrite(m, key, val)
		if err != nil {
			return nil, 0, err
		}
		m.Store64(bptPtrAddr(n, i), kv) // clobber: value pointer update
		return nil, 0, m.Free(old)
	}
	if nk < bptOrder {
		kv, err := kvWrite(m, key, val)
		if err != nil {
			return nil, 0, err
		}
		// clobber: the old runs [i, nk) are inputs the new images overwrite,
		// one entry each; slot nk was never read and an append logs neither.
		c.insertKey(n, i, nk, key)
		c.insertPtr(n, i, nk, kv)
		m.Store64(n+bptNKeys, uint64(nk+1)) // clobber: occupancy counter
		return nil, 0, nil
	}

	// Split: move the upper half to a new right leaf, then insert into the
	// proper side.
	right, err := t.newNode(m, true)
	if err != nil {
		return nil, 0, err
	}
	mid := bptOrder / 2
	// right's first key is the separator; the insert below cannot displace
	// it (key is either smaller and goes left, or larger and lands after it).
	sep := bytes.Clone(bptSlotKey(c.copyRun(bptKeyAddr(right, 0), bptKeyAddr(n, mid), (nk-mid)*bptKeySlot)))
	c.copyRun(bptPtrAddr(right, 0), bptPtrAddr(n, mid), (nk-mid)*8)
	m.Store64(right+bptNKeys, uint64(nk-mid))
	m.Store64(n+bptNKeys, uint64(mid)) // clobber
	m.Store64(right+bptNext, m.Load64(n+bptNext))
	m.Store64(n+bptNext, right) // clobber

	target := n
	if bytes.Compare(key, sep) >= 0 {
		target = right
	}
	if _, _, err := t.insertLeaf(c, target, key, val); err != nil {
		return nil, 0, err
	}
	return sep, right, nil
}

// insertInternal absorbs a child split (sep, newChild) at position i of
// internal node n, splitting n itself if full.
func (t *BPTree) insertInternal(c *bptCtx, n txn.Addr, i int, sep []byte, newChild txn.Addr) ([]byte, txn.Addr, error) {
	m := c.m
	nk := int(m.Load64(n + bptNKeys))
	if nk < bptOrder {
		c.insertKey(n, i, nk, sep)          // clobber: key run [i, nk)
		c.insertPtr(n, i+1, nk+1, newChild) // clobber: pointer run [i+1, nk]
		m.Store64(n+bptNKeys, uint64(nk+1)) // clobber
		return nil, 0, nil
	}

	// Split internal node: middle key moves up, keys (mid, nk) and pointers
	// (mid, nk] move to the new right sibling.
	right, err := t.newNode(m, false)
	if err != nil {
		return nil, 0, err
	}
	mid := bptOrder / 2
	promoted := bptLoadKey(m, n, mid)
	rk := nk - mid - 1
	c.copyRun(bptKeyAddr(right, 0), bptKeyAddr(n, mid+1), rk*bptKeySlot)
	c.copyRun(bptPtrAddr(right, 0), bptPtrAddr(n, mid+1), (rk+1)*8)
	m.Store64(right+bptNKeys, uint64(rk))
	m.Store64(n+bptNKeys, uint64(mid)) // clobber

	// Insert (sep, newChild) into the appropriate half.
	if i <= mid {
		if _, _, err := t.insertInternal(c, n, i, sep, newChild); err != nil {
			return nil, 0, err
		}
	} else {
		if _, _, err := t.insertInternal(c, right, i-mid-1, sep, newChild); err != nil {
			return nil, 0, err
		}
	}
	return promoted, right, nil
}

func (t *BPTree) stripe(leaf txn.Addr) *sync.RWMutex {
	return &t.stripes[(leaf>>6)%bptStripes]
}

// Insert implements Store. Non-splitting inserts run under the shared tree
// lock plus the leaf's stripe lock; splits promote to the exclusive tree
// lock.
func (t *BPTree) Insert(slot int, key, value []byte) error {
	if len(key) > bptKeyCap {
		return fmt.Errorf("%w: %d bytes (cap %d)", ErrKeyTooLarge, len(key), bptKeyCap)
	}
	args := txn.NewArgs().PutBytes(key).PutBytes(value)

	// The shared-lock fast path runs in a closure with deferred unlocks so a
	// simulated-crash panic inside eng.Run cannot leave treeMu or a stripe
	// lock held (a concurrent fault-injection harness unwinds through here
	// and then expects other workers to keep draining).
	done, err := func() (bool, error) {
		t.treeMu.RLock()
		defer t.treeMu.RUnlock()
		var leaf txn.Addr
		if err := t.eng.RunRO(slot, func(m txn.Mem) error {
			c := bptOpen(m)
			defer c.close()
			leaf = c.findLeaf(t, key)
			return nil
		}); err != nil {
			return true, err
		}
		if leaf == 0 {
			return false, nil
		}
		st := t.stripe(leaf)
		st.Lock()
		defer st.Unlock()
		// Re-check under the stripe lock: another same-leaf insert may have
		// filled it meanwhile. (Splits cannot have happened: they need the
		// exclusive tree lock, excluded by our shared hold.)
		var needSplit bool
		if err := t.eng.RunRO(slot, func(m txn.Mem) error {
			c := bptOpen(m)
			defer c.close()
			_, exact, nk := c.search(leaf, key)
			needSplit = !exact && nk >= bptOrder
			return nil
		}); err != nil {
			return true, err
		}
		if needSplit {
			return false, nil
		}
		return true, t.eng.Run(slot, t.fn("ins"), args)
	}()
	if done {
		return err
	}

	// Split path (or empty tree): exclusive tree lock.
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	return t.eng.Run(slot, t.fn("ins"), args)
}

// Get implements Store.
func (t *BPTree) Get(slot int, key []byte) ([]byte, bool, error) {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	var out []byte
	found := false
	err := t.eng.RunRO(slot, func(m txn.Mem) error {
		c := bptOpen(m)
		defer c.close()
		leaf := c.findLeaf(t, key)
		if leaf == 0 {
			return nil
		}
		st := t.stripe(leaf)
		st.RLock()
		defer st.RUnlock()
		i, exact, _ := c.search(leaf, key)
		if exact {
			out = kvValue(m, m.Load64(bptPtrAddr(leaf, i)))
			found = true
		}
		return nil
	})
	return out, found, err
}

// Delete implements Store (lazy: leaves are never merged).
func (t *BPTree) Delete(slot int, key []byte) (bool, error) {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	var leaf txn.Addr
	exists := false
	if err := t.eng.RunRO(slot, func(m txn.Mem) error {
		c := bptOpen(m)
		defer c.close()
		leaf = c.findLeaf(t, key)
		if leaf != 0 {
			// The stripe read-lock keeps the probe coherent against a
			// concurrent same-leaf insert (which writes under the stripe's
			// exclusive lock).
			st := t.stripe(leaf)
			st.RLock()
			defer st.RUnlock()
			_, exists, _ = c.search(leaf, key)
		}
		return nil
	}); err != nil {
		return false, err
	}
	if !exists {
		return false, nil
	}
	st := t.stripe(leaf)
	st.Lock()
	defer st.Unlock()
	return true, t.eng.Run(slot, t.fn("del"), txn.NewArgs().PutBytes(key))
}

// Len implements Store. It walks every leaf, so it takes the exclusive tree
// lock rather than per-leaf stripe locks.
func (t *BPTree) Len(slot int) (int, error) {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	n := 0
	err := t.eng.RunRO(slot, func(m txn.Mem) error {
		node := m.Load64(t.rootLink(m))
		if node == 0 {
			return nil
		}
		for m.Load64(node+bptIsLeaf) == 0 {
			node = m.Load64(bptPtrAddr(node, 0))
		}
		for node != 0 {
			n += int(m.Load64(node + bptNKeys))
			node = m.Load64(node + bptNext)
		}
		return nil
	})
	return n, err
}

// CheckInvariants verifies ordering and occupancy invariants (for tests). It
// reads the whole tree, so it takes the exclusive tree lock.
func (t *BPTree) CheckInvariants(slot int) error {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	return t.eng.RunRO(slot, func(m txn.Mem) error {
		root := m.Load64(t.rootLink(m))
		if root == 0 {
			return nil
		}
		var walk func(n txn.Addr, lo, hi []byte) error
		walk = func(n txn.Addr, lo, hi []byte) error {
			nk := int(m.Load64(n + bptNKeys))
			if nk > bptOrder {
				return fmt.Errorf("bptree: node %#x overfull (%d)", n, nk)
			}
			var prev []byte
			for i := 0; i < nk; i++ {
				k := bptLoadKey(m, n, i)
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					return fmt.Errorf("bptree: node %#x keys out of order", n)
				}
				if lo != nil && bytes.Compare(k, lo) < 0 {
					return fmt.Errorf("bptree: node %#x key below bound", n)
				}
				if hi != nil && bytes.Compare(k, hi) >= 0 {
					return fmt.Errorf("bptree: node %#x key above bound", n)
				}
				prev = k
			}
			if m.Load64(n+bptIsLeaf) == 1 {
				return nil
			}
			for i := 0; i <= nk; i++ {
				clo, chi := lo, hi
				if i > 0 {
					clo = bptLoadKey(m, n, i-1)
				}
				if i < nk {
					chi = bptLoadKey(m, n, i)
				}
				if err := walk(m.Load64(bptPtrAddr(n, i)), clo, chi); err != nil {
					return err
				}
			}
			return nil
		}
		return walk(root, nil, nil)
	})
}
