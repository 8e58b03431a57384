package pds

import (
	"fmt"

	"clobbernvm/internal/txn"
)

// BlockWalker is implemented by structures that can list the heap blocks
// they are made of. Fault-injection harnesses set the list against the
// allocator's free lists after a recovery: a block that is both reachable
// and free is a double allocation waiting to happen, and heap the walker
// does not reach and the allocator does not hold has leaked.
type BlockWalker interface {
	// Blocks returns the address (as Alloc returned it) of every block
	// reachable from the structure's root, header included. Call it on a
	// structure that passes CheckInvariants; it bounds its walks but does
	// not re-validate pointers.
	Blocks(slot int) ([]txn.Addr, error)
}

var (
	_ BlockWalker = (*HashMap)(nil)
	_ BlockWalker = (*BPTree)(nil)
	_ BlockWalker = (*List)(nil)
)

// chainBlocks appends the node and kv block of every [kv addr][next] node
// on the chain starting at node.
func chainBlocks(m txn.Mem, node txn.Addr, out []txn.Addr) ([]txn.Addr, error) {
	for steps := 0; node != 0; node = m.Load64(node + 8) {
		if steps++; steps > maxWalkSteps {
			return nil, fmt.Errorf("chain walk exceeded %d steps (cycle?)", maxWalkSteps)
		}
		out = append(out, node, m.Load64(node))
	}
	return out, nil
}

// Blocks implements BlockWalker.
func (h *HashMap) Blocks(slot int) (out []txn.Addr, err error) {
	for i := range h.locks {
		h.locks[i].RLock()
		defer h.locks[i].RUnlock()
	}
	err = h.eng.RunRO(slot, func(m txn.Mem) error {
		out = append(out, h.headerAddr(m))
		for b := uint64(0); b < NumBuckets; b++ {
			if out, err = chainBlocks(m, m.Load64(h.bucketAddr(m, b)), out); err != nil {
				return fmt.Errorf("hashmap: bucket %d: %w", b, err)
			}
		}
		return nil
	})
	return out, err
}

// Blocks implements BlockWalker.
func (l *List) Blocks(slot int) (out []txn.Addr, err error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	err = l.eng.RunRO(slot, func(m txn.Mem) error {
		out = append(out, l.headAddr(m)-8)
		if out, err = chainBlocks(m, m.Load64(l.headAddr(m)), out); err != nil {
			return fmt.Errorf("list: %w", err)
		}
		return nil
	})
	return out, err
}

// Blocks implements BlockWalker.
func (t *BPTree) Blocks(slot int) (out []txn.Addr, err error) {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	err = t.eng.RunRO(slot, func(m txn.Mem) error {
		out = append(out, t.rootLink(m)-8)
		var walk func(n txn.Addr, depth int) error
		walk = func(n txn.Addr, depth int) error {
			if depth > 64 {
				return fmt.Errorf("bptree: deeper than 64 levels (cycle?)")
			}
			out = append(out, n)
			nk := int(m.Load64(n + bptNKeys))
			if nk > bptOrder {
				return fmt.Errorf("bptree: node %#x overfull (%d)", n, nk)
			}
			if m.Load64(n+bptIsLeaf) == 1 {
				for i := 0; i < nk; i++ {
					out = append(out, m.Load64(bptPtrAddr(n, i)))
				}
				return nil
			}
			for i := 0; i <= nk; i++ {
				if err := walk(m.Load64(bptPtrAddr(n, i)), depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if root := m.Load64(t.rootLink(m)); root != 0 {
			return walk(root, 0)
		}
		return nil
	})
	return out, err
}
