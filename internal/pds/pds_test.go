package pds

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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

const testRootSlot = 16

type engineFactory struct {
	name   string
	create func(p *nvm.Pool, a *pmem.Allocator) (Engine, error)
	attach func(p *nvm.Pool, a *pmem.Allocator) (Engine, error)
}

var engineFactories = []engineFactory{
	{
		name: "clobber",
		create: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return clobber.Create(p, a, clobber.Options{Options: chassis.Options{Slots: 8}})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return clobber.Attach(p, a, clobber.Options{})
		},
	},
	{
		name: "pmdk",
		create: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return undolog.Create(p, a, undolog.Options{Slots: 8})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return undolog.Attach(p, a, undolog.Options{})
		},
	},
	{
		name: "mnemosyne",
		create: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return redolog.Create(p, a, redolog.Options{Slots: 8})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return redolog.Attach(p, a, redolog.Options{})
		},
	},
	{
		name: "atlas",
		create: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return atlas.Create(p, a, atlas.Options{Slots: 8})
		},
		attach: func(p *nvm.Pool, a *pmem.Allocator) (Engine, error) {
			return atlas.Attach(p, a, atlas.Options{})
		},
	},
}

type storeFactory struct {
	name string
	open func(e Engine) (Store, error)
}

var storeFactories = []storeFactory{
	{"hashmap", func(e Engine) (Store, error) { return NewHashMap(e, testRootSlot) }},
	{"skiplist", func(e Engine) (Store, error) { return NewSkipList(e, testRootSlot) }},
	{"rbtree", func(e Engine) (Store, error) { return NewRBTree(e, testRootSlot) }},
	{"bptree", func(e Engine) (Store, error) { return NewBPTree(e, testRootSlot) }},
	{"avltree", func(e Engine) (Store, error) { return NewAVLTree(e, testRootSlot) }},
	{"list", func(e Engine) (Store, error) { return NewList(e, testRootSlot) }},
}

type invariantChecker interface {
	CheckInvariants(slot int) error
}

func checkInvariants(t *testing.T, s Store) {
	t.Helper()
	if c, ok := s.(invariantChecker); ok {
		if err := c.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	}
}

func testKey(rng *rand.Rand, space int) []byte {
	return []byte(fmt.Sprintf("key-%06d", rng.Intn(space)))
}

func testValue(rng *rand.Rand) []byte {
	v := make([]byte, 16+rng.Intn(64))
	rng.Read(v)
	return v
}

// TestStoreModelEquivalence runs a random op stream against every structure
// under every engine and compares with a volatile map model.
func TestStoreModelEquivalence(t *testing.T) {
	for _, ef := range engineFactories {
		for _, sf := range storeFactories {
			t.Run(ef.name+"/"+sf.name, func(t *testing.T) {
				pool := nvm.New(1 << 26)
				alloc, err := pmem.Create(pool)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := ef.create(pool, alloc)
				if err != nil {
					t.Fatal(err)
				}
				s, err := sf.open(eng)
				if err != nil {
					t.Fatal(err)
				}
				model := map[string][]byte{}
				rng := rand.New(rand.NewSource(7))

				for i := 0; i < 500; i++ {
					key := testKey(rng, 120)
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4, 5:
						val := testValue(rng)
						if err := s.Insert(0, key, val); err != nil {
							t.Fatalf("op %d insert: %v", i, err)
						}
						model[string(key)] = val
					case 6, 7:
						got, found, err := s.Get(0, key)
						if err != nil {
							t.Fatalf("op %d get: %v", i, err)
						}
						want, ok := model[string(key)]
						if found != ok || (found && !bytes.Equal(got, want)) {
							t.Fatalf("op %d get %q: found=%v want-ok=%v", i, key, found, ok)
						}
					default:
						existed, err := s.Delete(0, key)
						if err != nil {
							t.Fatalf("op %d delete: %v", i, err)
						}
						_, ok := model[string(key)]
						if existed != ok {
							t.Fatalf("op %d delete %q: existed=%v want %v", i, key, existed, ok)
						}
						delete(model, string(key))
					}
				}
				// Full verification pass.
				for k, want := range model {
					got, found, err := s.Get(0, []byte(k))
					if err != nil || !found || !bytes.Equal(got, want) {
						t.Fatalf("final get %q: found=%v err=%v", k, found, err)
					}
				}
				if n, err := s.Len(0); err != nil || n != len(model) {
					t.Fatalf("Len = %d, want %d (err %v)", n, len(model), err)
				}
				checkInvariants(t, s)
			})
		}
	}
}

// TestStoreParallelInserts exercises each structure's locking with multiple
// workers under the clobber engine.
func TestStoreParallelInserts(t *testing.T) {
	for _, sf := range storeFactories {
		t.Run(sf.name, func(t *testing.T) {
			pool := nvm.New(1 << 26)
			alloc, err := pmem.Create(pool)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 8}})
			if err != nil {
				t.Fatal(err)
			}
			s, err := sf.open(eng)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 4
			const perWorker = 150
			done := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					var err error
					for i := 0; i < perWorker && err == nil; i++ {
						key := []byte(fmt.Sprintf("w%d-key-%05d", w, i))
						err = s.Insert(w, key, []byte(fmt.Sprintf("val-%d-%d", w, i)))
					}
					done <- err
				}(w)
			}
			for w := 0; w < workers; w++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if n, err := s.Len(0); err != nil || n != workers*perWorker {
				t.Fatalf("Len = %d want %d (err %v)", n, workers*perWorker, err)
			}
			for w := 0; w < workers; w++ {
				for i := 0; i < perWorker; i += 17 {
					key := []byte(fmt.Sprintf("w%d-key-%05d", w, i))
					if _, found, err := s.Get(0, key); err != nil || !found {
						t.Fatalf("missing %s (err %v)", key, err)
					}
				}
			}
			checkInvariants(t, s)
		})
	}
}

// TestStoreCrashRecovery injects crashes at random points during a workload,
// reopens the pool, recovers, and verifies model equivalence modulo the one
// in-flight operation (which must be atomic: fully present or fully absent).
func TestStoreCrashRecovery(t *testing.T) {
	for _, ef := range engineFactories {
		for _, sf := range storeFactories {
			t.Run(ef.name+"/"+sf.name, func(t *testing.T) {
				for trial := 0; trial < 6; trial++ {
					runCrashTrial(t, ef, sf, int64(trial))
				}
			})
		}
	}
}

func runCrashTrial(t *testing.T, ef engineFactory, sf storeFactory, seed int64) {
	t.Helper()
	pool := nvm.New(1<<26, nvm.WithEvictProbability(0.5), nvm.WithSeed(seed))
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ef.create(pool, alloc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sf.open(eng)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 977))
	model := map[string][]byte{}

	// Committed prefix.
	for i := 0; i < 60; i++ {
		key := testKey(rng, 40)
		val := testValue(rng)
		if err := s.Insert(0, key, val); err != nil {
			t.Fatal(err)
		}
		model[string(key)] = val
	}

	// Crash during one more operation.
	crashKey := testKey(rng, 40)
	crashVal := testValue(rng)
	pool.ScheduleCrash(int64(1 + rng.Intn(120)))
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
		_ = s.Insert(0, crashKey, crashVal)
	}()
	if !fired {
		// Operation completed before the crash point; commit it to the model.
		pool.ScheduleCrash(0)
		model[string(crashKey)] = crashVal
	}

	// Power loss, reopen, recover.
	pool.Crash()
	alloc2, err := pmem.Attach(pool)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	eng2, err := ef.attach(pool, alloc2)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	s2, err := sf.open(eng2) // re-registers txfuncs before Recover
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if _, err := eng2.Recover(); err != nil {
		t.Fatalf("seed %d: recover: %v", seed, err)
	}

	// The crashed insert must be all-or-nothing.
	got, found, err := s2.Get(0, crashKey)
	if err != nil {
		t.Fatalf("seed %d: get crash key: %v", seed, err)
	}
	if found {
		prev, hadPrev := model[string(crashKey)]
		if !bytes.Equal(got, crashVal) && !(hadPrev && bytes.Equal(got, prev)) {
			t.Fatalf("seed %d: crash key has torn value", seed)
		}
		if fired && bytes.Equal(got, crashVal) {
			model[string(crashKey)] = crashVal // recovered to completion
		}
	} else if _, hadPrev := model[string(crashKey)]; hadPrev && fired {
		t.Fatalf("seed %d: crash erased a previously committed key", seed)
	}

	// Every committed key must survive intact.
	for k, want := range model {
		if k == string(crashKey) {
			continue
		}
		got, found, err := s2.Get(0, []byte(k))
		if err != nil || !found || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: committed key %q lost or corrupt (found=%v err=%v)", seed, k, found, err)
		}
	}
	checkInvariants(t, s2.(Store))

	// And the structure must remain fully usable.
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("post-%04d", i))
		if err := s2.Insert(0, key, []byte("post")); err != nil {
			t.Fatalf("seed %d: post-recovery insert: %v", seed, err)
		}
	}
	checkInvariants(t, s2.(Store))
}

// TestBPTreeSplitChain inserts ordered keys to force repeated splits,
// including root splits, then verifies order and contents.
func TestBPTreeSplitChain(t *testing.T) {
	pool := nvm.New(1 << 26)
	alloc, _ := pmem.Create(pool)
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 2}})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBPTree(eng, testRootSlot)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("%08d", i))
		if err := bt.Insert(0, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := bt.Len(0); got != n {
		t.Fatalf("Len = %d", got)
	}
	for i := 0; i < n; i += 37 {
		key := []byte(fmt.Sprintf("%08d", i))
		v, found, err := bt.Get(0, key)
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s: %q found=%v err=%v", key, v, found, err)
		}
	}
}

// TestSkipListLevelsDeterministic confirms level choice depends only on the
// key (re-execution determinism).
func TestSkipListLevelsDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if levelFor(key) != levelFor(key) {
			t.Fatal("level not deterministic")
		}
		if l := levelFor(key); l < 1 || l > SkipLevels {
			t.Fatalf("level %d out of range", l)
		}
	}
}

// TestRBTreeLargeOrdered stresses fixups with sequential inserts + deletes.
func TestRBTreeLargeOrdered(t *testing.T) {
	pool := nvm.New(1 << 26)
	alloc, _ := pmem.Create(pool)
	eng, err := undolog.Create(pool, alloc, undolog.Options{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRBTree(eng, testRootSlot)
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	for i := 0; i < n; i++ {
		if err := rb.Insert(0, []byte(fmt.Sprintf("%06d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rb.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		if ok, err := rb.Delete(0, []byte(fmt.Sprintf("%06d", i))); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := rb.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := rb.Len(0); got != n/2 {
		t.Fatalf("Len = %d, want %d", got, n/2)
	}
}

// TestClobberLogsLessThanPMDKOnStructures verifies §5.3's headline on real
// structures: clobber logs fewer entries and bytes than PMDK undo for the
// same insert workload.
func TestClobberLogsLessThanPMDKOnStructures(t *testing.T) {
	for _, sf := range storeFactories {
		t.Run(sf.name, func(t *testing.T) {
			counts := map[string]txn.StatsSnapshot{}
			for _, ef := range engineFactories[:2] { // clobber, pmdk
				pool := nvm.New(1 << 26)
				alloc, _ := pmem.Create(pool)
				eng, err := ef.create(pool, alloc)
				if err != nil {
					t.Fatal(err)
				}
				s, err := sf.open(eng)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(11))
				val := make([]byte, 256)
				for i := 0; i < 200; i++ {
					key := testKey(rng, 100000)
					if err := s.Insert(0, key, val); err != nil {
						t.Fatal(err)
					}
				}
				counts[ef.name] = eng.Stats().Snapshot()
			}
			cl, pm := counts["clobber"], counts["pmdk"]
			if cl.LogEntries >= pm.LogEntries {
				t.Errorf("clobber_log entries (%d) not < pmdk undo entries (%d)", cl.LogEntries, pm.LogEntries)
			}
			if cl.LogBytes >= pm.LogBytes {
				t.Errorf("clobber_log bytes (%d) not < pmdk undo bytes (%d)", cl.LogBytes, pm.LogBytes)
			}
			t.Logf("%s: clobber %d entries / %d B vs pmdk %d entries / %d B (ratio %.1fx bytes)",
				sf.name, cl.LogEntries, cl.LogBytes, pm.LogEntries, pm.LogBytes,
				float64(pm.LogBytes)/float64(cl.LogBytes+1))
		})
	}
}
