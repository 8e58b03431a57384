package pds

import (
	"bytes"
	"encoding/binary"

	"clobbernvm/internal/txn"
)

// Ranger is implemented by the ordered structures (B+tree, red-black tree,
// AVL tree, skiplist): Scan visits keys in [from, to) in ascending order,
// stopping early when fn returns false. Nil bounds are open.
type Ranger interface {
	Scan(slot int, from, to []byte, fn func(key, val []byte) bool) error
}

// inRange applies the [from, to) bounds.
func inRange(key, from, to []byte) (below, above bool) {
	if from != nil && bytes.Compare(key, from) < 0 {
		below = true
	}
	if to != nil && bytes.Compare(key, to) >= 0 {
		above = true
	}
	return
}

// --- B+tree: leaf-chain scan -------------------------------------------------

var _ Ranger = (*BPTree)(nil)

// Scan implements Ranger via the leaf chain. Same-leaf inserts and deletes
// run beside it under the shared tree lock, so each leaf is snapshotted under
// its stripe read lock (as Get reads it) and fn runs after the stripe is
// released.
func (t *BPTree) Scan(slot int, from, to []byte, fn func(key, val []byte) bool) error {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	return t.eng.RunRO(slot, func(m txn.Mem) error {
		c := bptOpen(m)
		defer c.close()
		var leaf txn.Addr
		if from == nil {
			// Leftmost leaf.
			n := m.Load64(t.rootLink(m))
			if n == 0 {
				return nil
			}
			for m.Load64(n+bptIsLeaf) == 0 {
				n = m.Load64(bptPtrAddr(n, 0))
			}
			leaf = n
		} else {
			leaf = c.findLeaf(t, from)
		}
		for leaf != 0 {
			var keys, vals [][]byte
			keys, vals, leaf = t.snapshotLeaf(c, leaf, from, to)
			for i := range keys {
				if !fn(keys[i], vals[i]) {
					return nil
				}
			}
		}
		return nil
	})
}

// snapshotLeaf reads, under the leaf's stripe read lock, the leaf's pairs in
// [from, to) and its successor, or 0 if the range ends in this leaf. The key
// run is one Load into fresh memory (fn may keep what it is given), the
// pointer run one Load into the scratch.
func (t *BPTree) snapshotLeaf(c *bptCtx, leaf txn.Addr, from, to []byte) (keys, vals [][]byte, next txn.Addr) {
	st := t.stripe(leaf)
	st.RLock()
	defer st.RUnlock()
	nk := int(c.m.Load64(leaf + bptNKeys))
	run, ptrs := make([]byte, nk*bptKeySlot), c.buf[:nk*8]
	keys, vals = make([][]byte, 0, nk), make([][]byte, 0, nk)
	if nk > 0 {
		c.m.Load(bptKeyAddr(leaf, 0), run)
		c.m.Load(bptPtrAddr(leaf, 0), ptrs)
	}
	for i := 0; i < nk; i++ {
		key := bptSlotKey(run[i*bptKeySlot:])
		below, above := inRange(key, from, to)
		if below {
			continue
		}
		if above {
			return keys, vals, 0
		}
		keys = append(keys, key)
		vals = append(vals, kvValue(c.m, binary.LittleEndian.Uint64(ptrs[i*8:])))
	}
	return keys, vals, c.m.Load64(leaf + bptNext)
}

// --- red-black tree: bounded in-order walk ------------------------------------

var _ Ranger = (*RBTree)(nil)

// Scan implements Ranger with a bounds-pruned in-order traversal.
func (t *RBTree) Scan(slot int, from, to []byte, fn func(key, val []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.eng.RunRO(slot, func(m txn.Mem) error {
		c := rbCtx{m, t.rootLink(m)}
		var walk func(n txn.Addr) bool
		walk = func(n txn.Addr) bool {
			if n == 0 {
				return true
			}
			kv := c.get(n, rbKV)
			key := kvKey(m, kv)
			below, above := inRange(key, from, to)
			if !below { // left subtree can contain in-range keys
				if !walk(c.get(n, rbLeft)) {
					return false
				}
			}
			if !below && !above {
				if !fn(key, kvValue(m, kv)) {
					return false
				}
			}
			if !above { // right subtree can contain in-range keys
				return walk(c.get(n, rbRight))
			}
			return true
		}
		walk(c.root())
		return nil
	})
}

// --- AVL tree: bounded in-order walk -------------------------------------------

var _ Ranger = (*AVLTree)(nil)

// Scan implements Ranger with a bounds-pruned in-order traversal.
func (t *AVLTree) Scan(slot int, from, to []byte, fn func(key, val []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.eng.RunRO(slot, func(m txn.Mem) error {
		var walk func(n txn.Addr) bool
		walk = func(n txn.Addr) bool {
			if n == 0 {
				return true
			}
			kv := m.Load64(n + avlKV)
			key := kvKey(m, kv)
			below, above := inRange(key, from, to)
			if !below {
				if !walk(m.Load64(n + avlLeft)) {
					return false
				}
			}
			if !below && !above {
				if !fn(key, kvValue(m, kv)) {
					return false
				}
			}
			if !above {
				return walk(m.Load64(n + avlRight))
			}
			return true
		}
		walk(m.Load64(t.rootLink(m)))
		return nil
	})
}

// --- skiplist: level-0 walk ----------------------------------------------------

var _ Ranger = (*SkipList)(nil)

// Scan implements Ranger: position with the skip levels, then follow the
// level-0 chain.
func (s *SkipList) Scan(slot int, from, to []byte, fn func(key, val []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.RunRO(slot, func(m txn.Mem) error {
		hdr := s.headerAddr(m)
		var node txn.Addr
		if from == nil {
			node = m.Load64(headNext(hdr, 0))
		} else {
			preds, hit := s.findPreds(m, from)
			if hit != 0 {
				node = hit
			} else {
				node = m.Load64(preds[0])
			}
		}
		for node != 0 {
			kv := nodeKV(m, node)
			key := kvKey(m, kv)
			if _, above := inRange(key, from, to); above {
				return nil
			}
			if !fn(key, kvValue(m, kv)) {
				return nil
			}
			node = m.Load64(nodeNext(node, 0))
		}
		return nil
	})
}
