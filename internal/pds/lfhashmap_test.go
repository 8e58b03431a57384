package pds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/ido"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/undolog"
)

// lfSetup provisions a pool + clobber engine + lock-free map for tests.
func lfSetup(t *testing.T, lineLog bool, opts ...nvm.Option) (*nvm.Pool, *LFHashMap) {
	t.Helper()
	pool := nvm.New(1<<26, opts...)
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 8, LineLog: lineLog}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewLFHashMap(eng, testRootSlot)
	if err != nil {
		t.Fatal(err)
	}
	return pool, h
}

// lfReattach simulates power loss and reopens the map: evict non-durable
// lines, re-attach allocator and engine, then NewLFHashMap runs announcement
// recovery.
func lfReattach(t *testing.T, pool *nvm.Pool) *LFHashMap {
	t.Helper()
	pool.Crash()
	alloc, err := pmem.Attach(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := clobber.Attach(pool, alloc, clobber.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewLFHashMap(eng, testRootSlot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestLFHashMapModelEquivalence runs a random op stream against a volatile
// map model, on both clobber log formats.
func TestLFHashMapModelEquivalence(t *testing.T) {
	for _, lineLog := range []bool{false, true} {
		t.Run(fmt.Sprintf("lineLog=%v", lineLog), func(t *testing.T) {
			_, h := lfSetup(t, lineLog)
			model := map[string][]byte{}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 2000; i++ {
				key := testKey(rng, 150)
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5:
					val := testValue(rng)
					if err := h.Insert(0, key, val); err != nil {
						t.Fatalf("op %d insert: %v", i, err)
					}
					model[string(key)] = val
				case 6, 7:
					got, found, err := h.Get(0, key)
					if err != nil {
						t.Fatalf("op %d get: %v", i, err)
					}
					want, ok := model[string(key)]
					if found != ok || (found && !bytes.Equal(got, want)) {
						t.Fatalf("op %d get %q: found=%v want-ok=%v", i, key, found, ok)
					}
				default:
					existed, err := h.Delete(0, key)
					if err != nil {
						t.Fatalf("op %d delete: %v", i, err)
					}
					if _, ok := model[string(key)]; existed != ok {
						t.Fatalf("op %d delete %q: existed=%v want %v", i, key, existed, ok)
					}
					delete(model, string(key))
				}
			}
			for k, want := range model {
				got, found, err := h.Get(0, []byte(k))
				if err != nil || !found || !bytes.Equal(got, want) {
					t.Fatalf("final get %q: found=%v err=%v", k, found, err)
				}
			}
			if n, err := h.Len(0); err != nil || n != len(model) {
				t.Fatalf("Len = %d, want %d (err %v)", n, len(model), err)
			}
			if err := h.CheckInvariants(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLFHashMapRequiresAllocatorEngine confirms the structure refuses
// engines that cannot expose their allocator (the measurement meters), and
// accepts any engine that can — it never uses the txn machinery, so every
// failure-atomicity engine qualifies.
func TestLFHashMapRequiresAllocatorEngine(t *testing.T) {
	pool := nvm.New(1 << 24)
	alloc, _ := pmem.Create(pool)
	if _, err := NewLFHashMap(ido.New(pool, alloc), testRootSlot); err == nil {
		t.Fatal("NewLFHashMap accepted an engine without an allocator accessor")
	}
	eng, err := undolog.Create(pool, alloc, undolog.Options{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLFHashMap(eng, testRootSlot); err != nil {
		t.Fatalf("undolog exposes its allocator but was refused: %v", err)
	}
}

// TestLFHashMapSlotBounds exercises the announcement-slot guard.
func TestLFHashMapSlotBounds(t *testing.T) {
	_, h := lfSetup(t, false)
	if err := h.Insert(lfAnnSlots, []byte("k"), []byte("v")); err == nil {
		t.Fatal("Insert accepted an out-of-range slot")
	}
	if err := h.Insert(-1, []byte("k"), []byte("v")); err == nil {
		t.Fatal("Insert accepted a negative slot")
	}
}

// TestLFHashMapParallelTorture hammers the map from several workers: each
// owns a disjoint key space for verifiable effects, and all share one
// contended key so bucket-head and kv-word CASes genuinely race.
func TestLFHashMapParallelTorture(t *testing.T) {
	_, h := lfSetup(t, false)
	const workers = 8
	const perWorker = 300
	shared := []byte("contended-key")
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%d-key-%05d", w, i%100))
				var err error
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4:
					err = h.Insert(w, key, []byte(fmt.Sprintf("val-%d-%d", w, i)))
				case 5, 6:
					_, err = h.Delete(w, key)
				case 7:
					_, _, err = h.Get(w, key)
				case 8:
					err = h.Insert(w, shared, []byte(fmt.Sprintf("shared-%d-%d", w, i)))
				default:
					_, _, err = h.Get(w, shared)
				}
				if err != nil {
					errs[w] = fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := h.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	// The contended key was only ever inserted: it must hold one of the
	// written values.
	got, found, err := h.Get(0, shared)
	if err != nil || !found {
		t.Fatalf("contended key lost: found=%v err=%v", found, err)
	}
	if !bytes.HasPrefix(got, []byte("shared-")) {
		t.Fatalf("contended key torn: %q", got)
	}
}

// TestLFHashMapReattachSweepsDeleted verifies a clean reopen keeps live
// data, and that recovery physically unlinks logically deleted nodes.
func TestLFHashMapReattachSweepsDeleted(t *testing.T) {
	pool, h := lfSetup(t, false)
	for i := 0; i < 50; i++ {
		if err := h.Insert(0, []byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i += 2 {
		if ok, err := h.Delete(0, []byte(fmt.Sprintf("k-%03d", i))); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	h2 := lfReattach(t, pool)
	if h2.LastRecovery().Unlinked != 25 {
		t.Fatalf("recovery unlinked %d nodes, want 25", h2.LastRecovery().Unlinked)
	}
	for i := 0; i < 50; i++ {
		want := i%2 == 1
		got, found, err := h2.Get(0, []byte(fmt.Sprintf("k-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if found != want {
			t.Fatalf("key %d: found=%v want %v", i, found, want)
		}
		if found && string(got) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("key %d: value %q", i, got)
		}
	}
	if n, _ := h2.Len(0); n != 25 {
		t.Fatalf("Len = %d, want 25", n)
	}
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestLFHashMapCrashRandom injects crashes at random persist points during
// operations and audits all-or-nothing recovery, across several seeds.
func TestLFHashMapCrashRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pool, h := lfSetup(t, false, nvm.WithEvictProbability(0.5), nvm.WithSeed(seed))
			rng := rand.New(rand.NewSource(seed*131 + 7))
			model := map[string][]byte{}
			for i := 0; i < 40; i++ {
				key := testKey(rng, 30)
				val := testValue(rng)
				if err := h.Insert(0, key, val); err != nil {
					t.Fatal(err)
				}
				model[string(key)] = val
			}

			crashKey := testKey(rng, 30)
			crashVal := testValue(rng)
			doDelete := rng.Intn(2) == 0
			pool.ScheduleCrash(int64(1 + rng.Intn(40)))
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
				if doDelete {
					_, _ = h.Delete(0, crashKey)
				} else {
					_ = h.Insert(0, crashKey, crashVal)
				}
			}()
			if !fired {
				pool.ScheduleCrash(0)
				if doDelete {
					delete(model, string(crashKey))
				} else {
					model[string(crashKey)] = crashVal
				}
			}

			h2 := lfReattach(t, pool)

			// The interrupted op must be all-or-nothing.
			got, found, err := h2.Get(0, crashKey)
			if err != nil {
				t.Fatal(err)
			}
			prev, hadPrev := model[string(crashKey)]
			if fired {
				if doDelete {
					if found && !bytes.Equal(got, prev) {
						t.Fatalf("interrupted delete left torn value %q", got)
					}
				} else {
					if found && !bytes.Equal(got, crashVal) && !(hadPrev && bytes.Equal(got, prev)) {
						t.Fatalf("interrupted insert left torn value %q", got)
					}
				}
				// Fold recovery's verdict into the model.
				if found {
					model[string(crashKey)] = got
				} else {
					delete(model, string(crashKey))
				}
			} else if found != hadPrev || (found && !bytes.Equal(got, prev)) {
				t.Fatalf("completed op not durable: found=%v", found)
			}

			for k, want := range model {
				got, found, err := h2.Get(0, []byte(k))
				if err != nil || !found || !bytes.Equal(got, want) {
					t.Fatalf("committed key %q lost or corrupt (found=%v err=%v)", k, found, err)
				}
			}
			if n, err := h2.Len(0); err != nil || n != len(model) {
				t.Fatalf("Len = %d, want %d (err %v)", n, len(model), err)
			}
			if err := h2.CheckInvariants(0); err != nil {
				t.Fatal(err)
			}
			// Post-recovery usability.
			if err := h2.Insert(0, []byte("post"), []byte("post")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- announcement fault injection -------------------------------------------
//
// These white-box tests hand-craft the exact crash windows of the protocol:
// after the announcement fence but before the CAS (roll forward or roll
// back), after the CAS but before retire (completed), and a torn
// announcement line (discard). The exhaustive sweep covers every persist
// point blindly; these pin the recovery classifier's verdicts one by one.

// lfPrepareInsert builds the content and announcement of an insert exactly as
// Insert does, stopping right before the CAS (protocol step 3): the crash
// window where the announcement is durable but the linearizing CAS never
// executed.
func lfPrepareInsert(h *LFHashMap, slot int, key, val []byte) (bucket, node uint64) {
	m := h.mem(slot)
	bucket = h.bucketAddr(fnv1a(key) % LFBuckets)
	kv, err := kvWrite(m, key, val)
	if err != nil {
		panic(err)
	}
	h.pool.FlushOpt(kv, uint64(8+len(key)+len(val)))
	kvsum, err := lfKVSum(h.pool, kv)
	if err != nil {
		panic(err)
	}
	head := h.pool.AtomicLoad64(bucket)
	node, err = m.Alloc(lfNodeSize)
	if err != nil {
		panic(err)
	}
	m.Store64(node, kv)
	m.Store64(node+8, head)
	h.pool.FlushOpt(node, lfNodeSize)
	h.announce(slot, lfOpInsert, bucket, head, node, node, kv, lfMix(kvsum, head))
	return bucket, node
}

func TestLFHashMapRecoveryRollsForwardInsert(t *testing.T) {
	pool, h := lfSetup(t, false)
	if err := h.Insert(0, []byte("anchor"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	lfPrepareInsert(h, 3, []byte("inflight"), []byte("committed-by-recovery"))

	h2 := lfReattach(t, pool)
	if h2.LastRecovery().RolledForward != 1 {
		t.Fatalf("recovery = %+v, want one roll-forward", h2.LastRecovery())
	}
	got, found, err := h2.Get(0, []byte("inflight"))
	if err != nil || !found || string(got) != "committed-by-recovery" {
		t.Fatalf("rolled-forward insert missing: %q found=%v err=%v", got, found, err)
	}
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestLFHashMapRecoveryRollsBackTornContent(t *testing.T) {
	pool, h := lfSetup(t, false)
	if err := h.Insert(0, []byte("anchor"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	_, node := lfPrepareInsert(h, 3, []byte("inflight"), []byte("torn"))
	// Corrupt the published kv block after the announcement: the contentsum
	// no longer matches, so roll-forward must be refused even though the
	// bucket head still equals the announced expect.
	kv := pool.Load64(node) &^ lfMarkBit
	pool.Store64(kv+8, ^uint64(0))
	pool.Flush(kv+8, 8)
	pool.Fence()

	h2 := lfReattach(t, pool)
	if h2.LastRecovery().RolledBack != 1 {
		t.Fatalf("recovery = %+v, want one rollback", h2.LastRecovery())
	}
	if _, found, _ := h2.Get(0, []byte("inflight")); found {
		t.Fatal("torn-content insert was rolled forward")
	}
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestLFHashMapRecoveryCompletesPreRetireCrash(t *testing.T) {
	pool, h := lfSetup(t, false)
	if err := h.Insert(0, []byte("anchor"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Run the full protocol through the CAS and its persistence fence, then
	// "crash" before retire: re-announce the already-applied op so the
	// record survives with the effect already durable.
	bucket, node := lfPrepareInsert(h, 3, []byte("inflight"), []byte("done"))
	head := pool.Load64(node + 8)
	if !pool.CAS64(bucket, head, node) {
		t.Fatal("setup CAS failed")
	}
	pool.FlushOpt(bucket, 8)
	pool.Fence()
	// The announcement is still armed (retire never ran).

	h2 := lfReattach(t, pool)
	if h2.LastRecovery().Completed != 1 {
		t.Fatalf("recovery = %+v, want one completed", h2.LastRecovery())
	}
	got, found, err := h2.Get(0, []byte("inflight"))
	if err != nil || !found || string(got) != "done" {
		t.Fatalf("completed insert lost: %q found=%v err=%v", got, found, err)
	}
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestLFHashMapRecoveryRollsForwardDelete(t *testing.T) {
	pool, h := lfSetup(t, false)
	if err := h.Insert(0, []byte("victim"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Announce the delete mark but never CAS it.
	bucket := h.bucketAddr(fnv1a([]byte("victim")) % LFBuckets)
	node := pool.AtomicLoad64(bucket)
	kvw := pool.AtomicLoad64(node)
	h.announce(2, lfOpDelMark, node, kvw, kvw|lfMarkBit, 0, 0, 0)

	h2 := lfReattach(t, pool)
	if h2.LastRecovery().RolledForward != 1 {
		t.Fatalf("recovery = %+v, want one roll-forward", h2.LastRecovery())
	}
	if _, found, _ := h2.Get(0, []byte("victim")); found {
		t.Fatal("announced delete not rolled forward")
	}
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestLFHashMapRecoveryRollsForwardUpdate(t *testing.T) {
	pool, h := lfSetup(t, false)
	if err := h.Insert(0, []byte("key"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	// Build the new kv block and announce the update CAS without executing it.
	m := h.mem(2)
	bucket := h.bucketAddr(fnv1a([]byte("key")) % LFBuckets)
	node := pool.AtomicLoad64(bucket)
	kvw := pool.AtomicLoad64(node)
	nkv, err := kvWrite(m, []byte("key"), []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	pool.FlushOpt(nkv, 8+3+3)
	kvsum, err := lfKVSum(pool, nkv)
	if err != nil {
		t.Fatal(err)
	}
	h.announce(2, lfOpUpdate, node, kvw, nkv, nkv, kvw, kvsum)

	h2 := lfReattach(t, pool)
	if h2.LastRecovery().RolledForward != 1 {
		t.Fatalf("recovery = %+v, want one roll-forward", h2.LastRecovery())
	}
	got, found, err := h2.Get(0, []byte("key"))
	if err != nil || !found || string(got) != "new" {
		t.Fatalf("announced update not applied: %q found=%v err=%v", got, found, err)
	}
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestLFHashMapRecoveryDiscardsTornAnnouncement(t *testing.T) {
	pool, h := lfSetup(t, false)
	if err := h.Insert(0, []byte("anchor"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn announcement line: a fresh tag word over a stale
	// remainder — exactly what EvictTorn's word-prefix eviction produces.
	a := h.annAddr(5)
	var line [nvm.LineSize]byte
	binary.LittleEndian.PutUint64(line[0:], lfOpInsert|5<<8|99<<16)
	binary.LittleEndian.PutUint64(line[8:], h.bucketAddr(0)) // plausible target
	pool.Store(a, line[:])
	pool.Flush(a, nvm.LineSize)
	pool.Fence()

	h2 := lfReattach(t, pool)
	if h2.LastRecovery().TornRecords != 1 {
		t.Fatalf("recovery = %+v, want one torn record", h2.LastRecovery())
	}
	if got, found, _ := h2.Get(0, []byte("anchor")); !found || string(got) != "a" {
		t.Fatal("torn announcement damaged unrelated data")
	}
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// --- conflicting-announcement windows ---------------------------------------
//
// A crash can leave several valid announcements aimed at the same word with
// the same expected value — racing CASes of which at most one can have won —
// plus dependent announcements on other words. Per-slot resolution would
// resolve them independently against the mutating pool state and could roll
// forward two of them; these tests pin the joint resolver's verdicts.

// lfAnnounceUpdate builds a new kv block and announces an update CAS against
// the given node/kv word without executing it, exactly as Insert's update
// path does up to protocol step 2.
func lfAnnounceUpdate(t *testing.T, h *LFHashMap, slot int, node, kvw uint64, key, val []byte) uint64 {
	t.Helper()
	m := h.mem(slot)
	nkv, err := kvWrite(m, key, val)
	if err != nil {
		t.Fatal(err)
	}
	h.pool.FlushOpt(nkv, uint64(8+len(key)+len(val)))
	kvsum, err := lfKVSum(h.pool, nkv)
	if err != nil {
		t.Fatal(err)
	}
	h.announce(slot, lfOpUpdate, node, kvw, nkv, nkv, kvw, kvsum)
	return nkv
}

// TestLFHashMapRecoveryConflictingUpdateDeleteInsert reconstructs the
// three-op window where slot order would betray a per-slot resolver: B
// announces an update of key k (expect V) and never CASes; D's delete of k
// succeeds in cache but the mark is lost at the crash; A observes the mark
// and fresh-inserts k (announced, head CAS lost too). Resolving slots in
// order would roll B forward, demote D, then roll A forward as well — two
// live nodes for k. Joint resolution must let the delete win the conflict
// and leave exactly A's re-insert live.
func TestLFHashMapRecoveryConflictingUpdateDeleteInsert(t *testing.T) {
	pool, h := lfSetup(t, false, nvm.WithEviction(nvm.EvictNone))
	key := []byte("conflict-key")
	if err := h.Insert(0, key, []byte("V")); err != nil {
		t.Fatal(err)
	}
	bucket := h.bucketAddr(fnv1a(key) % LFBuckets)
	node := pool.AtomicLoad64(bucket)
	kvw := pool.AtomicLoad64(node)

	// Slot 1 (first in a slot-ordered scan): B's update, never CASed.
	lfAnnounceUpdate(t, h, 1, node, kvw, key, []byte("B-update"))
	// Slot 2: D's delete — the CAS succeeds, the marked line is never
	// flushed, so EvictNone drops it at the crash.
	h.announce(2, lfOpDelMark, node, kvw, kvw|lfMarkBit, 0, 0, 0)
	if !pool.CAS64(node, kvw, kvw|lfMarkBit) {
		t.Fatal("setup delete CAS failed")
	}
	// Slot 3: A saw the (volatile) mark and fresh-inserts k; its head CAS is
	// also lost with the crash.
	_, nodeA := lfPrepareInsert(h, 3, key, []byte("A-reinsert"))
	if !pool.CAS64(bucket, node, nodeA) {
		t.Fatal("setup insert CAS failed")
	}

	h2 := lfReattach(t, pool)
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatalf("joint recovery left inconsistent chains: %v", err)
	}
	got, found, err := h2.Get(0, key)
	if err != nil || !found || string(got) != "A-reinsert" {
		t.Fatalf("want the re-insert live, got %q found=%v err=%v", got, found, err)
	}
	if n, _ := h2.Len(0); n != 1 {
		t.Fatalf("Len = %d, want exactly one live node for the key", n)
	}
	r := h2.LastRecovery()
	if r.RolledForward != 2 || r.RolledBack != 1 || r.Unlinked != 1 {
		t.Fatalf("recovery = %+v, want delete+insert forward, update back, one unlink", r)
	}
}

// TestLFHashMapRecoveryChainedAnnouncements exercises the dependency chain
// in the opposite slot order: the delete was announced against the UPDATE's
// new value (proof the update's CAS won in cache), both CASes are lost, and
// a dependent fresh insert of the key is durable. Recovery must replay the
// whole chain — update, then delete, regardless of slot order — or the
// durable insert would coexist with a live stale node.
func TestLFHashMapRecoveryChainedAnnouncements(t *testing.T) {
	pool, h := lfSetup(t, false, nvm.WithEviction(nvm.EvictNone))
	key := []byte("chain-key")
	if err := h.Insert(0, key, []byte("V")); err != nil {
		t.Fatal(err)
	}
	bucket := h.bucketAddr(fnv1a(key) % LFBuckets)
	node := pool.AtomicLoad64(bucket)
	kvw := pool.AtomicLoad64(node)

	// B's update kv block must exist before D can announce against it; the
	// update record itself sits in the HIGHER slot so a slot-ordered scan
	// meets the dependent delete first.
	m := h.mem(2)
	nkv, err := kvWrite(m, key, []byte("B-update"))
	if err != nil {
		t.Fatal(err)
	}
	pool.FlushOpt(nkv, uint64(8+len(key)+8))
	kvsum, err := lfKVSum(pool, nkv)
	if err != nil {
		t.Fatal(err)
	}
	h.announce(1, lfOpDelMark, node, nkv, nkv|lfMarkBit, 0, 0, 0)
	h.announce(2, lfOpUpdate, node, kvw, nkv, nkv, kvw, kvsum)
	if !pool.CAS64(node, kvw, nkv) { // B's CAS won in cache...
		t.Fatal("setup update CAS failed")
	}
	if !pool.CAS64(node, nkv, nkv|lfMarkBit) { // ...then D marked it.
		t.Fatal("setup delete CAS failed")
	}
	// A's fresh insert of the key became DURABLE: recovery must justify it.
	_, nodeA := lfPrepareInsert(h, 3, key, []byte("A-reinsert"))
	if !pool.CAS64(bucket, node, nodeA) {
		t.Fatal("setup insert CAS failed")
	}
	pool.FlushOpt(bucket, 8)
	pool.Fence()

	h2 := lfReattach(t, pool)
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatalf("joint recovery left inconsistent chains: %v", err)
	}
	got, found, err := h2.Get(0, key)
	if err != nil || !found || string(got) != "A-reinsert" {
		t.Fatalf("want the durable re-insert live, got %q found=%v err=%v", got, found, err)
	}
	if n, _ := h2.Len(0); n != 1 {
		t.Fatalf("Len = %d, want exactly one live node for the key", n)
	}
	r := h2.LastRecovery()
	if r.RolledForward != 2 || r.Completed != 1 || r.Unlinked != 1 {
		t.Fatalf("recovery = %+v, want update+delete forward, insert complete, one unlink", r)
	}
}

// TestLFHashMapRecoveryConflictPrefersDelete pins the arbitration fallback:
// an update and a delete announced against the same word and value, neither
// CASed, no other evidence. Exactly one may roll forward, and the resolver
// deterministically prefers the delete.
func TestLFHashMapRecoveryConflictPrefersDelete(t *testing.T) {
	pool, h := lfSetup(t, false, nvm.WithEviction(nvm.EvictNone))
	key := []byte("prefer-delete")
	if err := h.Insert(0, key, []byte("V")); err != nil {
		t.Fatal(err)
	}
	bucket := h.bucketAddr(fnv1a(key) % LFBuckets)
	node := pool.AtomicLoad64(bucket)
	kvw := pool.AtomicLoad64(node)
	lfAnnounceUpdate(t, h, 1, node, kvw, key, []byte("B-update"))
	h.announce(2, lfOpDelMark, node, kvw, kvw|lfMarkBit, 0, 0, 0)

	h2 := lfReattach(t, pool)
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := h2.Get(0, key); found {
		t.Fatal("conflicting delete did not win the roll-forward")
	}
	r := h2.LastRecovery()
	if r.RolledForward != 1 || r.RolledBack != 1 || r.Unlinked != 1 {
		t.Fatalf("recovery = %+v, want exactly one forward (the delete) and one rollback", r)
	}
}

// TestLFHashMapRecoveryDemotesDuplicateInsert pins the insert safety net in
// isolation: a valid fresh-insert announcement for a key whose chain still
// holds a live node (no delete record survives to justify it) must be
// demoted to a rollback rather than double-creating the key.
func TestLFHashMapRecoveryDemotesDuplicateInsert(t *testing.T) {
	pool, h := lfSetup(t, false, nvm.WithEviction(nvm.EvictNone))
	key := []byte("dup-key")
	if err := h.Insert(0, key, []byte("V")); err != nil {
		t.Fatal(err)
	}
	lfPrepareInsert(h, 3, key, []byte("dup"))

	h2 := lfReattach(t, pool)
	if err := h2.CheckInvariants(0); err != nil {
		t.Fatalf("duplicate insert rolled forward: %v", err)
	}
	got, found, err := h2.Get(0, key)
	if err != nil || !found || string(got) != "V" {
		t.Fatalf("original value lost: %q found=%v err=%v", got, found, err)
	}
	if n, _ := h2.Len(0); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	r := h2.LastRecovery()
	if r.RolledForward != 0 || r.RolledBack != 1 {
		t.Fatalf("recovery = %+v, want the insert demoted to rollback", r)
	}
}

// TestLFHashMapRecoveryIdempotent re-runs recovery on an already-recovered
// image: a crash during recovery must leave a state recovery handles again.
func TestLFHashMapRecoveryIdempotent(t *testing.T) {
	pool, h := lfSetup(t, false)
	for i := 0; i < 20; i++ {
		if err := h.Insert(0, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i += 3 {
		if _, err := h.Delete(0, []byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	lfPrepareInsert(h, 3, []byte("inflight"), []byte("x"))

	h2 := lfReattach(t, pool)
	first := h2.LastRecovery()
	if first.RolledForward != 1 || first.Unlinked != 7 {
		t.Fatalf("first recovery = %+v, want one roll-forward and seven unlinks", first)
	}
	h3 := lfReattach(t, pool)
	second := h3.LastRecovery()
	if second.RolledForward != 0 || second.RolledBack != 0 || second.Unlinked != 0 || second.TornRecords != 0 {
		t.Fatalf("second recovery not a no-op: first %+v, second %+v", first, second)
	}
	if n, _ := h3.Len(0); n != 14 { // 20 - 7 deleted + rolled-forward insert
		t.Fatalf("Len = %d, want 14", n)
	}
	if err := h3.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
