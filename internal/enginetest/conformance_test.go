// Package enginetest runs one conformance battery across every
// failure-atomicity engine: identical transaction code, identical crash
// schedules, identical all-or-nothing oracles. This mirrors the paper's
// methodology of compiling the same benchmark sources against each library.
package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
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

// factory describes how to create and reopen one engine.
type factory struct {
	name string
	// supportsAbort: can a txfunc return an error after storing?
	supportsAbort bool
	create        func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error)
	attach        func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error)
}

var factories = []factory{
	{
		name: "clobber", supportsAbort: false,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return clobber.Create(p, a, clobber.Options{Options: chassis.Options{Slots: 8}})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return clobber.Attach(p, a, clobber.Options{})
		},
	},
	{
		name: "pmdk", supportsAbort: true,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return undolog.Create(p, a, undolog.Options{Slots: 8})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return undolog.Attach(p, a, undolog.Options{})
		},
	},
	{
		name: "mnemosyne", supportsAbort: true,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return redolog.Create(p, a, redolog.Options{Slots: 8})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return redolog.Attach(p, a, redolog.Options{})
		},
	},
	{
		name: "atlas", supportsAbort: true,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return atlas.Create(p, a, atlas.Options{Slots: 8})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return atlas.Attach(p, a, atlas.Options{})
		},
	},
	// Line-writer variants: the same engines with their data logs in
	// write-combined line mode, so the full conformance battery (crash
	// schedules included) also proves the streaming persistence path.
	{
		name: "clobber-line", supportsAbort: false,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return clobber.Create(p, a, clobber.Options{Options: chassis.Options{Slots: 8, LineLog: true}})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return clobber.Attach(p, a, clobber.Options{})
		},
	},
	{
		name: "pmdk-line", supportsAbort: true,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return undolog.Create(p, a, undolog.Options{Slots: 8, LineLog: true})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return undolog.Attach(p, a, undolog.Options{})
		},
	},
	{
		name: "mnemosyne-line", supportsAbort: true,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return redolog.Create(p, a, redolog.Options{Slots: 8, LineLog: true})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return redolog.Attach(p, a, redolog.Options{})
		},
	},
	{
		name: "atlas-line", supportsAbort: true,
		create: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return atlas.Create(p, a, atlas.Options{Slots: 8, LineLog: true})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (txn.Engine, error) {
			return atlas.Attach(p, a, atlas.Options{})
		},
	},
}

const headSlot = 8

// registerOps registers the shared list push/pop txfuncs.
func registerOps(e txn.Engine, head uint64) {
	e.Register("push", func(m txn.Mem, args *txn.Args) error {
		node, err := m.Alloc(24)
		if err != nil {
			return err
		}
		m.Store64(node, args.Uint64(0))
		m.Store64(node+8, m.Load64(head))
		m.Store64(node+16, args.Uint64(0)*2) // second field, more log traffic
		m.Store64(head, node)
		return nil
	})
	e.Register("pop", func(m txn.Mem, args *txn.Args) error {
		node := m.Load64(head)
		if node == 0 {
			return nil
		}
		m.Store64(head, m.Load64(node+8))
		return m.Free(node)
	})
}

func listValues(p *nvm.Pool, head uint64) []uint64 {
	var out []uint64
	for n := p.Load64(head); n != 0; n = p.Load64(n + 8) {
		out = append(out, p.Load64(n))
		if len(out) > 100000 {
			panic("cycle")
		}
	}
	return out
}

func newPoolEngine(t *testing.T, f factory, seed int64) (*nvm.Pool, txn.Engine) {
	t.Helper()
	p := nvm.New(1<<24, nvm.WithEvictProbability(0.5), nvm.WithSeed(seed))
	a, err := pmem.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.create(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return p, e
}

func reopenEngine(t *testing.T, f factory, p *nvm.Pool) txn.Engine {
	t.Helper()
	p.Crash()
	a, err := pmem.Attach(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.attach(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConformanceCommitDurability(t *testing.T) {
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			p, e := newPoolEngine(t, f, 1)
			head := p.RootSlot(headSlot)
			registerOps(e, head)
			for i := uint64(1); i <= 10; i++ {
				if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			e2 := reopenEngine(t, f, p)
			registerOps(e2, head)
			if _, err := e2.Recover(); err != nil {
				t.Fatal(err)
			}
			got := listValues(p, head)
			if len(got) != 10 || got[0] != 10 || got[9] != 1 {
				t.Fatalf("list after crash = %v", got)
			}
		})
	}
}

func TestConformanceCrashSweepAllOrNothing(t *testing.T) {
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			for n := int64(1); n <= 60; n += 1 {
				p, e := newPoolEngine(t, f, n)
				head := p.RootSlot(headSlot)
				registerOps(e, head)
				if err := e.Run(0, "push", txn.NewArgs().PutUint64(1)); err != nil {
					t.Fatal(err)
				}

				p.ScheduleCrash(n)
				fired := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							err, ok := r.(error)
							if !ok || !errors.Is(err, nvm.ErrCrash) {
								panic(r)
							}
							fired = true
						}
					}()
					_ = e.Run(1, "push", txn.NewArgs().PutUint64(2))
				}()
				if !fired {
					return // transaction completes in < n stores: sweep done
				}

				e2 := reopenEngine(t, f, p)
				registerOps(e2, head)
				if _, err := e2.Recover(); err != nil {
					t.Fatalf("crash@%d: %v", n, err)
				}
				got := fmt.Sprint(listValues(p, head))
				absent := fmt.Sprint([]uint64{1})
				complete := fmt.Sprint([]uint64{2, 1})
				if got != absent && got != complete {
					t.Fatalf("crash@%d: torn state %v", n, got)
				}
				// And the pool must remain usable: one more push.
				if err := e2.Run(0, "push", txn.NewArgs().PutUint64(3)); err != nil {
					t.Fatalf("crash@%d: post-recovery push: %v", n, err)
				}
				if after := listValues(p, head); after[0] != 3 {
					t.Fatalf("crash@%d: post-recovery list = %v", n, after)
				}
			}
		})
	}
}

func TestConformanceCrashSweepWithPop(t *testing.T) {
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			for n := int64(1); n <= 40; n++ {
				p, e := newPoolEngine(t, f, 100+n)
				head := p.RootSlot(headSlot)
				registerOps(e, head)
				for i := uint64(1); i <= 3; i++ {
					if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				p.ScheduleCrash(n)
				fired := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							err, ok := r.(error)
							if !ok || !errors.Is(err, nvm.ErrCrash) {
								panic(r)
							}
							fired = true
						}
					}()
					_ = e.Run(0, "pop", txn.NoArgs)
				}()
				if !fired {
					return
				}
				e2 := reopenEngine(t, f, p)
				registerOps(e2, head)
				if _, err := e2.Recover(); err != nil {
					t.Fatalf("crash@%d: %v", n, err)
				}
				got := fmt.Sprint(listValues(p, head))
				absent := fmt.Sprint([]uint64{3, 2, 1})
				complete := fmt.Sprint([]uint64{2, 1})
				if got != absent && got != complete {
					t.Fatalf("crash@%d: torn state %v", n, got)
				}
			}
		})
	}
}

func TestConformanceAbort(t *testing.T) {
	boom := errors.New("abort")
	for _, f := range factories {
		if !f.supportsAbort {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			p, e := newPoolEngine(t, f, 3)
			head := p.RootSlot(headSlot)
			registerOps(e, head)
			if err := e.Run(0, "push", txn.NewArgs().PutUint64(7)); err != nil {
				t.Fatal(err)
			}
			e.Register("dirty-abort", func(m txn.Mem, args *txn.Args) error {
				node, err := m.Alloc(24)
				if err != nil {
					return err
				}
				m.Store64(node, 99)
				m.Store64(node+8, m.Load64(head))
				m.Store64(head, node)
				return boom
			})
			if err := e.Run(0, "dirty-abort", txn.NoArgs); !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			got := listValues(p, head)
			if len(got) != 1 || got[0] != 7 {
				t.Fatalf("abort leaked state: %v", got)
			}
			// Slot stays usable.
			if err := e.Run(0, "push", txn.NewArgs().PutUint64(8)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConformanceReadOnly(t *testing.T) {
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			p, e := newPoolEngine(t, f, 4)
			head := p.RootSlot(headSlot)
			registerOps(e, head)
			if err := e.Run(0, "push", txn.NewArgs().PutUint64(41)); err != nil {
				t.Fatal(err)
			}
			var got uint64
			err := e.RunRO(0, func(m txn.Mem) error {
				got = m.Load64(m.Load64(head))
				return nil
			})
			if err != nil || got != 41 {
				t.Fatalf("RunRO = %d, %v", got, err)
			}
		})
	}
}

func TestConformanceRedoReadYourWrites(t *testing.T) {
	// Within a transaction, loads must observe the transaction's own
	// buffered stores (critical for redo; trivial for in-place engines).
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			p, e := newPoolEngine(t, f, 5)
			cell := p.RootSlot(9)
			e.Register("rmw3", func(m txn.Mem, args *txn.Args) error {
				for i := 0; i < 3; i++ {
					m.Store64(cell, m.Load64(cell)+1)
				}
				// Partial-word read-back through byte stores.
				var b [3]byte
				m.Store(cell+8, []byte{0xAA, 0xBB, 0xCC})
				m.Load(cell+8, b[:])
				if b != [3]byte{0xAA, 0xBB, 0xCC} {
					return fmt.Errorf("read-your-writes violated: %x", b)
				}
				return nil
			})
			if err := e.Run(0, "rmw3", txn.NoArgs); err != nil {
				t.Fatal(err)
			}
			if got := p.Load64(cell); got != 3 {
				t.Fatalf("cell = %d, want 3", got)
			}
		})
	}
}

func TestConformanceMultiSlotParallel(t *testing.T) {
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			p, e := newPoolEngine(t, f, 6)
			heads := []uint64{p.RootSlot(10), p.RootSlot(11), p.RootSlot(12)}
			e.Register("pushN", func(m txn.Mem, args *txn.Args) error {
				head, val := args.Uint64(0), args.Uint64(1)
				node, err := m.Alloc(16)
				if err != nil {
					return err
				}
				m.Store64(node, val)
				m.Store64(node+8, m.Load64(head))
				m.Store64(head, node)
				return nil
			})
			done := make(chan error, len(heads))
			for w := range heads {
				go func(w int) {
					var err error
					for i := uint64(0); i < 50 && err == nil; i++ {
						err = e.Run(w, "pushN", txn.NewArgs().PutUint64(heads[w]).PutUint64(i))
					}
					done <- err
				}(w)
			}
			for range heads {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			for w := range heads {
				if n := len(listValues(p, heads[w])); n != 50 {
					t.Fatalf("worker %d: %d nodes", w, n)
				}
			}
		})
	}
}

// TestConformanceLoggingShape checks the core quantitative claim: for the
// same transactions, clobber logs fewer entries and bytes than PMDK-style
// undo, which logs fewer fences than Atlas; Mnemosyne uses fewer fences per
// transaction than undo.
func TestConformanceLoggingShape(t *testing.T) {
	type shape struct {
		entries, bytes, fences int64
	}
	shapes := map[string]shape{}
	for _, f := range factories {
		p, e := newPoolEngine(t, f, 7)
		head := p.RootSlot(headSlot)
		registerOps(e, head)
		// Warm-up then measure.
		for i := uint64(0); i < 8; i++ {
			if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		s0, p0 := e.Stats().Snapshot(), p.Stats()
		for i := uint64(0); i < 32; i++ {
			if err := e.Run(0, "push", txn.NewArgs().PutUint64(100+i)); err != nil {
				t.Fatal(err)
			}
		}
		ds, dp := e.Stats().Snapshot().Sub(s0), p.Stats().Sub(p0)
		shapes[f.name] = shape{ds.TotalLogEntries(), ds.TotalLogBytes(), dp.Fences}
	}
	cl, pm, at, mn := shapes["clobber"], shapes["pmdk"], shapes["atlas"], shapes["mnemosyne"]
	if cl.entries >= pm.entries {
		t.Errorf("clobber entries (%d) not < pmdk entries (%d)", cl.entries, pm.entries)
	}
	if pm.entries > at.entries {
		t.Errorf("pmdk entries (%d) > atlas entries (%d)", pm.entries, at.entries)
	}
	if cl.fences >= pm.fences {
		t.Errorf("clobber fences (%d) not < pmdk fences (%d)", cl.fences, pm.fences)
	}
	if mn.fences >= pm.fences {
		t.Errorf("mnemosyne fences (%d) not < pmdk fences (%d)", mn.fences, pm.fences)
	}
	t.Logf("per-32-tx shapes: clobber=%+v pmdk=%+v mnemosyne=%+v atlas=%+v", cl, pm, mn, at)
}

// TestConformanceImageCycle exercises the full process-restart path for
// every engine: crash mid-transaction, save the durable pool image to a
// file (what a DAX pool file would contain), reopen it as a new pool, and
// recover there — the A.4 "restart the program" workflow.
func TestConformanceImageCycle(t *testing.T) {
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "pool.img")

			p, e := newPoolEngine(t, f, 9)
			head := p.RootSlot(headSlot)
			registerOps(e, head)
			for i := uint64(1); i <= 4; i++ {
				if err := e.Run(0, "push", txn.NewArgs().PutUint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			p.ScheduleCrash(20)
			func() {
				defer func() { recover() }()
				_ = e.Run(0, "push", txn.NewArgs().PutUint64(5))
			}()
			p.Crash()
			if err := p.SaveImage(path); err != nil {
				t.Fatal(err)
			}

			// "New process": open the image file from scratch.
			q, err := nvm.OpenImage(path)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := pmem.Attach(q)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := f.attach(q, a2)
			if err != nil {
				t.Fatal(err)
			}
			head2 := q.RootSlot(headSlot)
			registerOps(e2, head2)
			if _, err := e2.Recover(); err != nil {
				t.Fatal(err)
			}
			vals := listValues(q, head2)
			if len(vals) != 4 && len(vals) != 5 {
				t.Fatalf("list after image cycle = %v", vals)
			}
			for i, v := range vals {
				if want := uint64(len(vals) - i); v != want {
					t.Fatalf("list after image cycle = %v", vals)
				}
			}
			// And keep working on the reopened pool.
			if err := e2.Run(0, "push", txn.NewArgs().PutUint64(99)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceCrossEngineEquivalence runs one identical randomized
// operation stream through every engine on its own pool and requires the
// observable key-value state to agree pairwise afterwards: the engines must
// differ only in HOW they persist, never in WHAT.
func TestConformanceCrossEngineEquivalence(t *testing.T) {
	type opRec struct {
		push bool
		val  uint64
	}
	rng := rand.New(rand.NewSource(77))
	ops := make([]opRec, 400)
	for i := range ops {
		ops[i] = opRec{push: rng.Intn(3) != 0, val: uint64(rng.Intn(50))}
	}

	finals := map[string][]uint64{}
	for _, f := range factories {
		p, e := newPoolEngine(t, f, 12)
		head := p.RootSlot(headSlot)
		registerOps(e, head)
		for _, op := range ops {
			var err error
			if op.push {
				err = e.Run(0, "push", txn.NewArgs().PutUint64(op.val))
			} else {
				err = e.Run(0, "pop", txn.NoArgs)
			}
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
		}
		// Compare the durable image (post-crash), not just the cache view.
		p.Crash()
		finals[f.name] = listValues(p, head)
	}
	want := finals["clobber"]
	for name, got := range finals {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("engine %s diverged:\n  clobber: %v\n  %s: %v",
				name, want, name, got)
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate stream: empty final state")
	}
}
