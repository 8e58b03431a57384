package analysis

import "clobbernvm/internal/ir"

// Corpus returns IR encodings of the transaction bodies of the paper's
// benchmarks. They are simplified to the memory-access skeleton that the
// clobber identification pass reasons about (scalar computation is opaque to
// the pass anyway). The pass is run over this corpus for the
// optimization-effectiveness counts (Figure 13) and the compile-latency
// measurement (Figure 14).
func Corpus() []*ir.Func {
	return []*ir.Func{
		ListInsert(),
		BPTreeInsert(),
		HashmapInsert(),
		SkiplistInsert(),
		RBTreeInsert(),
		MemcachedSet(),
		VacationReserve(),
		YadaRefine(),
	}
}

// ListInsert is the paper's running example (Figure 2): the only clobbered
// input is lst->hd.
func ListInsert() *ir.Func {
	f := ir.NewFunc("list_ins", "*lst", "*v")
	b := f.Entry()
	hd := b.GEP(f.Param(0), 0) // &lst->hd
	n := b.Alloc("n")
	val := b.GEP(n, 0)
	nxt := b.GEP(n, 8)
	b.Store(val, b.Load(f.Param(1), false)) // n->val = *v (strcpy)
	old := b.Load(hd, true)                 // read input lst->hd
	b.Store(nxt, old)                       // n->nxt = lst->hd
	b.Store(hd, n)                          // lst->hd = n   ← clobber write
	b.Ret()
	return f
}

// BPTreeInsert models a non-split leaf insert as pds/bptree.go performs it:
// a range move, not a shift loop. The old run of key slots from the insert
// position on is read with one load and the new image (the key, then the old
// run) is written over the same variable address with one store; the pointer
// run moves the same way; the occupancy counter is read-modify-written. Three
// clobber writes — key run, pointer run, nkeys — whatever the shift distance,
// which is also what the dynamic detector logs for it.
func BPTreeInsert() *ir.Func {
	f := ir.NewFunc("bptree_insert", "*leaf", "key", "val")
	b := f.Entry()
	cntA := b.GEP(f.Param(0), 8)
	cnt := b.Load(cntA, false) // input: occupancy
	pos := b.Arith("search", cnt)

	keys := b.GEPVar(f.Param(0), b.Arith("keys+pos", pos)) // &leaf->keys[pos]
	run := b.Load(keys, false)                             // input: old run [pos, nk)
	b.Store(keys, b.Arith("image", f.Param(1), run))       // new image [pos, nk]  ← clobber

	ptrs := b.GEPVar(f.Param(0), b.Arith("ptrs+pos", pos)) // &leaf->ptrs[pos]
	prun := b.Load(ptrs, false)
	b.Store(ptrs, b.Arith("image", f.Param(2), prun)) // ← clobber

	b.Store(cntA, b.Arith("inc", cnt)) // ← clobber
	b.Ret()
	return f
}

// HashmapInsert models the PMDK-repository hashmap: one bucket-head
// clobber, everything else writes a fresh node.
func HashmapInsert() *ir.Func {
	f := ir.NewFunc("hashmap_insert", "*buckets", "key", "val")
	b := f.Entry()
	h := b.Arith("hash")
	head := b.GEPVar(f.Param(0), h) // &buckets[h]
	n := b.Alloc("entry")
	b.Store(b.GEP(n, 0), b.Arith("k"))
	b.Store(b.GEP(n, 8), b.Arith("v"))
	old := b.Load(head, true)
	b.Store(b.GEP(n, 16), old) // entry->next = bucket head
	b.Store(head, n)           // bucket head = entry  ← clobber
	b.Ret()
	return f
}

// SkiplistInsert models a three-level splice plus two patterns the
// refinement eliminates: an unexposed candidate (a node field written before
// it is read back) and a shadowed candidate (a second write to the same
// level-0 predecessor pointer). Five conservative candidates, three
// refined — the counts §5.9 reports.
func SkiplistInsert() *ir.Func {
	f := ir.NewFunc("skiplist_insert", "*pred0", "*pred1", "*pred2", "key")
	b := f.Entry()
	n := b.Alloc("node")

	// Unexposed pattern on the key buffer: write kb->key, read it back
	// through a view the analysis cannot resolve (may-alias), then write
	// kb->key again. If the second store really overwrote the read's
	// location, the first store already had — the read was never an input.
	kb := b.Alloc("keybuf")
	keyA := b.GEP(kb, 0)
	b.Store(keyA, b.Arith("key"))
	view := b.GEPVar(kb, b.Arith("off")) // analysis cannot prove view==keyA
	reread := b.Load(view, false)
	b.Store(keyA, b.Arith("norm", reread)) // unexposed false candidate

	// Three genuine level splices: pred[i]->next is read then overwritten.
	for lvl := 0; lvl < 3; lvl++ {
		predNext := b.GEP(f.Param(lvl), 8)
		old := b.Load(predNext, true)
		b.Store(b.GEP(n, int64(8+8*lvl)), old) // n->next[lvl] = old
		b.Store(predNext, n)                   // pred->next = n ← clobber
	}

	// Shadowed pattern: a second store to pred0->next (e.g. a fix-up path):
	// the first splice already clobbered it.
	pred0Next := b.GEP(f.Param(0), 8)
	b.Store(pred0Next, b.Arith("fixup", b.Load(b.GEP(n, 8), true)))
	b.Ret()
	return f
}

// RBTreeInsert models insertion plus one recolor/rotation step: parent and
// grandparent pointers and colors are read then overwritten.
func RBTreeInsert() *ir.Func {
	f := ir.NewFunc("rbtree_insert", "*root", "key")
	b := f.Entry()
	n := b.Alloc("node")
	b.Store(b.GEP(n, 0), b.Arith("key"))
	b.Store(b.GEP(n, 24), b.Arith("RED"))

	parentA := b.GEPVar(f.Param(0), b.Arith("searchpath"))
	parent := b.Load(parentA, true) // input: link to attach under
	childA := b.GEP(parent, 8)
	oldChild := b.Load(childA, true)
	_ = oldChild
	b.Store(childA, n) // attach ← clobber of parent->child

	rebalance := f.NewBlock("rebalance")
	exit := f.NewBlock("exit")
	b.CondBr(b.Arith("redparent"), rebalance, exit)

	colorA := rebalance.GEP(parent, 24)
	c := rebalance.Load(colorA, false)
	rebalance.Store(colorA, rebalance.Arith("flip", c)) // recolor ← clobber
	gpA := rebalance.GEPVar(f.Param(0), rebalance.Arith("gp"))
	gp := rebalance.Load(gpA, true)
	rotA := rebalance.GEP(gp, 8)
	rebalance.Store(rotA, rebalance.Load(rotA, true)) // rotation ← clobber
	rebalance.Br(exit)
	exit.Ret()
	return f
}

// MemcachedSet models the memcached store path: hash-bucket chain head
// clobber, LRU head/tail clobbers, fresh item writes.
func MemcachedSet() *ir.Func {
	f := ir.NewFunc("mc_set", "*table", "*lru", "key", "val")
	b := f.Entry()
	it := b.Alloc("item")
	b.Store(b.GEP(it, 0), b.Arith("key"))
	b.Store(b.GEP(it, 8), b.Arith("val"))

	bucket := b.GEPVar(f.Param(0), b.Arith("hash"))
	b.Store(b.GEP(it, 16), b.Load(bucket, true)) // it->hnext = bucket head
	b.Store(bucket, it)                          // ← clobber

	lruHead := b.GEP(f.Param(1), 0)
	oldHead := b.Load(lruHead, true)
	b.Store(b.GEP(it, 24), oldHead) // it->next = lru head
	b.Store(lruHead, it)            // ← clobber
	prevA := b.GEP(oldHead, 32)
	b.Store(prevA, it) // oldHead->prev = it (read? no — plain output)
	b.Ret()
	return f
}

// VacationReserve models a STAMP vacation reservation: table lookups,
// then decrement of free-count and customer-list clobbers.
func VacationReserve() *ir.Func {
	f := ir.NewFunc("vacation_reserve", "*tbl", "*cust", "id")
	b := f.Entry()
	rec := b.Load(b.GEPVar(f.Param(0), b.Arith("find")), true)
	freeA := b.GEP(rec, 8)
	free := b.Load(freeA, false)
	ok := b.Arith("free>0", free)
	yes := f.NewBlock("reserve")
	no := f.NewBlock("bail")
	b.CondBr(ok, yes, no)

	yes.Store(freeA, yes.Arith("dec", free)) // ← clobber (free count)
	resA := yes.GEP(f.Param(1), 16)
	oldRes := yes.Load(resA, true)
	r := yes.Alloc("reservation")
	yes.Store(yes.GEP(r, 0), yes.Arith("id"))
	yes.Store(yes.GEP(r, 8), oldRes)
	yes.Store(resA, r) // ← clobber (customer reservation list)
	yes.Ret()
	no.Ret()
	return f
}

// YadaRefine models one Ruppert refinement step: pop from the work queue
// (head clobber), retriangulate a cavity (fresh triangles), push new bad
// triangles (another head clobber), update the mesh triangle links.
func YadaRefine() *ir.Func {
	f := ir.NewFunc("yada_refine", "*queue", "*mesh")
	b := f.Entry()
	headA := b.GEP(f.Param(0), 0)
	tri := b.Load(headA, true)                  // queue head (input)
	b.Store(headA, b.Load(b.GEP(tri, 0), true)) // pop ← clobber

	loop := f.NewBlock("cavity")
	done := f.NewBlock("done")
	b.Br(loop)
	// cavity loop: unlink neighbour triangles (read then overwrite links).
	nb := loop.Load(loop.GEPVar(f.Param(1), loop.Arith("walk")), true)
	linkA := loop.GEP(nb, 8)
	loop.Store(linkA, loop.Load(linkA, true)) // relink ← clobber (per edge)
	loop.CondBr(loop.Arith("more"), loop, done)

	nt := done.Alloc("newtri")
	done.Store(done.GEP(nt, 0), done.Arith("v0"))
	done.Store(done.GEP(nt, 8), done.Arith("v1"))
	oldHead := done.Load(headA, true)
	done.Store(done.GEP(nt, 16), oldHead)
	done.Store(headA, nt) // push new bad triangle ← clobber (shadowed by pop? distinct read)
	done.Ret()
	return f
}
