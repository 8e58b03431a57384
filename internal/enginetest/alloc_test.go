package enginetest

import (
	"errors"
	"testing"

	"clobbernvm/internal/atlas"
	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/redolog"
	"clobbernvm/internal/txn"
	"clobbernvm/internal/undolog"
)

// heapUsage is what a heap audit counts, without the address spans.
type heapUsage struct {
	freeBlocks, hugeFreeBlocks                            int
	freeBytes, hugeFreeBytes, bumpReserve, centralReserve uint64
}

// auditHeap requires a clean pmem.Check. Check takes every arena lock, so it
// also proves no aborted transaction left its arena held.
func auditHeap(t *testing.T, a *pmem.Allocator) heapUsage {
	t.Helper()
	rep, err := a.Check()
	if err != nil {
		t.Fatal(err)
	}
	return heapUsage{rep.FreeBlocks, rep.HugeFreeBlocks,
		rep.FreeBytes, rep.HugeFreeBytes, rep.BumpReserve, rep.CentralReserve}
}

// TestAbortAfterAllocDoesNotLeak aborts a transaction that has allocated or
// freed — before storing anything, so that clobber can abort too — a thousand
// times on every engine: reservations must go back whole, leaving the heap
// audit clean and every count of it where it was.
func TestAbortAfterAllocDoesNotLeak(t *testing.T) {
	boom := errors.New("abort")
	cases := []struct {
		name string
		fn   func(m txn.Mem, victim uint64) error
	}{
		{"alloc", func(m txn.Mem, _ uint64) error {
			for _, size := range []uint64{24, 24, 300, 5000} {
				if _, err := m.Alloc(size); err != nil {
					return err
				}
			}
			return boom
		}},
		{"huge-alloc", func(m txn.Mem, _ uint64) error {
			if _, err := m.Alloc(100_000); err != nil {
				return err
			}
			return boom
		}},
		{"free-then-error", func(m txn.Mem, victim uint64) error {
			if err := m.Free(victim); err != nil {
				return err
			}
			return boom
		}},
	}
	for _, f := range factories[:4] {
		for _, tc := range cases {
			t.Run(f.name+"/"+tc.name, func(t *testing.T) {
				p := nvm.New(1<<24, nvm.WithEviction(nvm.EvictNone))
				a, err := pmem.Create(p)
				if err != nil {
					t.Fatal(err)
				}
				e, err := f.create(p, a)
				if err != nil {
					t.Fatal(err)
				}
				// The victim is a committed block: a Free the abort drops
				// must leave it live.
				cell := p.RootSlot(headSlot)
				e.Register("make-victim", func(m txn.Mem, _ *txn.Args) error {
					v, err := m.Alloc(48)
					if err != nil {
						return err
					}
					m.Store64(cell, v)
					return nil
				})
				e.Register("free-victim", func(m txn.Mem, _ *txn.Args) error {
					return m.Free(m.Load64(cell))
				})
				e.Register("abort", func(m txn.Mem, _ *txn.Args) error {
					return tc.fn(m, m.Load64(cell))
				})
				if err := e.Run(0, "make-victim", txn.NoArgs); err != nil {
					t.Fatal(err)
				}
				// The first attempt may grab from the central region (a chunk
				// refill, a huge span), which stays on the arena's books.
				if err := e.Run(0, "abort", txn.NoArgs); !errors.Is(err, boom) {
					t.Fatalf("err = %v", err)
				}
				before := auditHeap(t, a)
				for i := 0; i < 1000; i++ {
					if err := e.Run(0, "abort", txn.NoArgs); !errors.Is(err, boom) {
						t.Fatalf("abort %d: err = %v", i, err)
					}
				}
				if after := auditHeap(t, a); after != before {
					t.Fatalf("1000 aborts changed the heap:\nbefore %+v\nafter  %+v", before, after)
				}
				if err := e.Run(0, "free-victim", txn.NoArgs); err != nil {
					t.Fatalf("victim not live after the aborted frees: %v", err)
				}
				if after := auditHeap(t, a); after.freeBlocks != before.freeBlocks+1 {
					t.Fatalf("committed free not applied:\nbefore %+v\nafter  %+v", before, after)
				}
			})
		}
	}
}

// TestAllocFreeIssueNoFences holds every engine to the one allocation path:
// inside a transaction, Alloc and Free reserve on the slot's pmem.Tx and issue
// no fence of their own — nor any persist at all for a Free.
func TestAllocFreeIssueNoFences(t *testing.T) {
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			p, e := newPoolEngine(t, f, 11)
			cell := p.RootSlot(headSlot)
			e.Register("swap", func(m txn.Mem, _ *txn.Args) error {
				old := m.Load64(cell)
				s0 := p.Stats()
				fresh, err := m.Alloc(48)
				if err != nil {
					return err
				}
				if d := p.Stats().Sub(s0); d.Fences != 0 {
					t.Errorf("Alloc issued %d fences", d.Fences)
				}
				if old != 0 {
					s0 = p.Stats()
					if err := m.Free(old); err != nil {
						return err
					}
					if d := p.Stats().Sub(s0); d.Fences != 0 || d.Flushes != 0 || d.Stores != 0 {
						t.Errorf("Free issued %d fences, %d flushes, %d stores", d.Fences, d.Flushes, d.Stores)
					}
				}
				m.Store64(cell, fresh)
				return nil
			})
			// Past the first runs the arena has its chunk and a free list, so
			// allocations come from both the bump region and the list.
			for i := 0; i < 20; i++ {
				if err := e.Run(0, "swap", txn.NoArgs); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFreesBeyondRecordCapacityRejected sizes every engine's allocator record
// for four frees per transaction and frees a hundred blocks in one: the Free
// that no longer fits must fail with the engine's own capacity error, the
// transaction abort, and every block stay live for the next ones to free in
// portions that fit.
func TestFreesBeyondRecordCapacityRejected(t *testing.T) {
	const blocks = 100
	for _, tc := range []struct {
		name     string
		tooLarge error
		create   func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error)
	}{
		{"clobber", clobber.ErrTxTooLarge, func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return clobber.Create(p, a, clobber.Options{Options: chassis.Options{Slots: 2, FreeLogCap: 4}})
		}},
		{"pmdk", undolog.ErrTxTooLarge, func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return undolog.Create(p, a, undolog.Options{Slots: 2, FreeLogCap: 4})
		}},
		{"mnemosyne", redolog.ErrTxTooLarge, func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return redolog.Create(p, a, redolog.Options{Slots: 2, FreeLogCap: 4})
		}},
		{"atlas", atlas.ErrTxTooLarge, func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return atlas.Create(p, a, atlas.Options{Slots: 2, FreeLogCap: 4})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := nvm.New(1<<24, nvm.WithEviction(nvm.EvictNone))
			a, err := pmem.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			e, err := tc.create(p, a)
			if err != nil {
				t.Fatal(err)
			}
			// A table of committed blocks, one transaction each.
			table, err := a.Alloc(0, blocks*8)
			if err != nil {
				t.Fatal(err)
			}
			e.Register("fill", func(m txn.Mem, args *txn.Args) error {
				i := args.Uint64(0)
				b, err := m.Alloc(40)
				if err != nil {
					return err
				}
				m.Store64(table+8*i, b)
				return nil
			})
			e.Register("free", func(m txn.Mem, args *txn.Args) error {
				for i := args.Uint64(0); i < args.Uint64(1); i++ {
					if err := m.Free(m.Load64(table + 8*i)); err != nil {
						return err
					}
				}
				return nil
			})
			for i := uint64(0); i < blocks; i++ {
				if err := e.Run(0, "fill", txn.NewArgs().PutUint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			before := auditHeap(t, a)
			err = e.Run(0, "free", txn.NewArgs().PutUint64(0).PutUint64(blocks))
			if !errors.Is(err, tc.tooLarge) {
				t.Fatalf("freeing %d blocks in one transaction: err = %v, want %v", blocks, err, tc.tooLarge)
			}
			if after := auditHeap(t, a); after != before {
				t.Fatalf("rejected transaction changed the heap:\nbefore %+v\nafter  %+v", before, after)
			}
			for i := uint64(0); i < blocks; i += 4 {
				if err := e.Run(0, "free", txn.NewArgs().PutUint64(i).PutUint64(i+4)); err != nil {
					t.Fatalf("freeing blocks %d..%d: %v", i, i+3, err)
				}
			}
			if after := auditHeap(t, a); after.freeBlocks != before.freeBlocks+blocks {
				t.Fatalf("%d frees applied, want %d", after.freeBlocks-before.freeBlocks, blocks)
			}
		})
	}
}
