package pmem

import (
	"testing"

	"clobbernvm/internal/nvm"
)

func TestCheckFreshHeap(t *testing.T) {
	_, a := newAlloc(t, 1<<22)
	rep, err := a.Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FreeBlocks != 0 || rep.HugeFreeBlocks != 0 {
		t.Fatalf("fresh heap has free blocks: %+v", rep)
	}
	if rep.CentralReserve == 0 {
		t.Fatal("fresh heap shows no central reserve")
	}
}

func TestCheckAfterChurn(t *testing.T) {
	_, a := newAlloc(t, 1<<23)
	var live []uint64
	for i := 0; i < 2000; i++ {
		addr, err := a.Alloc(i%7, uint64(16+i%900))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, addr)
		if i%3 == 0 {
			j := (i * 7) % len(live)
			if err := a.Free(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
	rep, err := a.Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FreeBlocks == 0 {
		t.Fatal("churned heap shows no free blocks")
	}
}

func TestCheckAfterCrashAndAttach(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := nvm.New(1<<22, nvm.WithEvictProbability(0.5), nvm.WithSeed(seed))
		a, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		p.ScheduleCrash(20 + seed*13)
		func() {
			defer func() { recover() }()
			var live []uint64
			for i := 0; i < 200; i++ {
				addr, err := a.Alloc(i, 64)
				if err != nil {
					return
				}
				live = append(live, addr)
				if i%2 == 0 && len(live) > 1 {
					_ = a.Free(live[0])
					live = live[1:]
				}
			}
		}()
		p.Crash()
		b, err := Attach(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := b.Check(); err != nil {
			t.Fatalf("seed %d: post-crash heap audit failed: %v", seed, err)
		}
	}
}

func TestCheckDetectsCycle(t *testing.T) {
	p, a := newAlloc(t, 1<<22)
	a1, _ := a.Alloc(0, 64)
	a2, _ := a.Alloc(0, 64)
	_ = a.Free(a1)
	_ = a.Free(a2)
	// Corrupt: point the free block's link at itself.
	blk := a2 - 8 // block base (head of the class free list after two frees)
	p.Store64(blk, p.Load64(blk)&^(1<<32-1)|blk>>linkShift)
	if _, err := a.Check(); err == nil {
		t.Fatal("Check missed an introduced free-list cycle")
	}
}

func TestCheckDetectsOutOfHeapLink(t *testing.T) {
	p, a := newAlloc(t, 1<<22)
	a1, _ := a.Alloc(0, 64)
	_ = a.Free(a1)
	blk := a1 - 8
	p.Store64(blk, p.Load64(blk)&^(1<<32-1)|(p.Size()+1024)>>linkShift) // link beyond the heap
	if _, err := a.Check(); err == nil {
		t.Fatal("Check missed an out-of-heap free-list link")
	}
}
