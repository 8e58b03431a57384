package shard

import (
	"fmt"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

const (
	testPoolBytes = 1 << 23
	testSlots     = 4
	testRootSlot  = 12
	testDataCap   = 1 << 20
)

// newTestShard provisions one independent persistence domain with a clobber
// engine and a hashmap anchored at testRootSlot.
func newTestShard(t *testing.T) (*Shard, pds.Store) {
	t.Helper()
	pool := nvm.New(testPoolBytes, nvm.WithLatency(nvm.DefaultLatency))
	pool.Prefault()
	pool.SetFastPath(true)
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatalf("pmem.Create: %v", err)
	}
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: testSlots, DataLogCap: testDataCap}})
	if err != nil {
		t.Fatalf("clobber.Create: %v", err)
	}
	st, err := pds.NewHashMap(eng, testRootSlot)
	if err != nil {
		t.Fatalf("NewHashMap: %v", err)
	}
	return &Shard{Pool: pool, Alloc: alloc, Engine: eng}, st
}

// reattachShard rebuilds a shard from a durable pool image — the restart
// half of newTestShard.
func reattachShard(t *testing.T, img []byte) (*Shard, pds.Store) {
	t.Helper()
	pool, err := nvm.NewFromImage(img, nvm.WithLatency(nvm.DefaultLatency))
	if err != nil {
		t.Fatalf("NewFromImage: %v", err)
	}
	pool.Prefault()
	pool.SetFastPath(true)
	alloc, err := pmem.Attach(pool)
	if err != nil {
		t.Fatalf("pmem.Attach: %v", err)
	}
	eng, err := clobber.Attach(pool, alloc, clobber.Options{})
	if err != nil {
		t.Fatalf("clobber.Attach: %v", err)
	}
	st, err := pds.NewHashMap(eng, testRootSlot)
	if err != nil {
		t.Fatalf("reattach NewHashMap: %v", err)
	}
	return &Shard{Pool: pool, Alloc: alloc, Engine: eng}, st
}

// populate routes nKeys keys through the set and inserts each into its
// owning shard's store. Returns key -> owning shard.
func populate(t *testing.T, set *Set, stores []pds.Store, nKeys int) map[string]int {
	t.Helper()
	owners := make(map[string]int, nKeys)
	for i := 0; i < nKeys; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		s := set.ShardOf(key)
		if err := stores[s].Insert(0, key, []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatalf("insert %q on shard %d: %v", key, s, err)
		}
		owners[string(key)] = s
	}
	return owners
}

// TestRecoverAllMergesReports restarts a populated 4-shard set and checks
// the merged report aggregates every shard: Slots sums to 4x the per-shard
// slot count, PerShard and PerShardNS are index-aligned, and every key is
// readable afterwards.
func TestRecoverAllMergesReports(t *testing.T) {
	const n = 4
	shards := make([]*Shard, n)
	stores := make([]pds.Store, n)
	for i := range shards {
		shards[i], stores[i] = newTestShard(t)
	}
	set := NewSet(shards)
	owners := populate(t, set, stores, 200)

	// Simulated whole-process restart: every shard comes back from its
	// coherent image and recovers.
	for i := range shards {
		img := shards[i].Pool.CoherentSnapshot()
		shards[i], stores[i] = reattachShard(t, img)
		set.Replace(i, shards[i])
	}
	rep, err := set.RecoverAll(0)
	if err != nil {
		t.Fatalf("RecoverAll: %v", err)
	}
	if rep.Merged.Slots != n*testSlots {
		t.Errorf("merged Slots = %d, want %d", rep.Merged.Slots, n*testSlots)
	}
	if len(rep.PerShard) != n || len(rep.PerShardNS) != n {
		t.Fatalf("per-shard lengths = %d/%d, want %d", len(rep.PerShard), len(rep.PerShardNS), n)
	}
	for i, ns := range rep.PerShardNS {
		if ns <= 0 {
			t.Errorf("shard %d recovery time not recorded", i)
		}
	}
	if rep.Workers < 1 || rep.Workers > n {
		t.Errorf("workers = %d, want 1..%d", rep.Workers, n)
	}
	if len(rep.Merged.Errors) != 0 {
		t.Errorf("merged errors: %v", rep.Merged.Errors)
	}
	for key, s := range owners {
		v, ok, err := stores[s].Get(0, []byte(key))
		if err != nil || !ok {
			t.Fatalf("after recovery: Get(%q) on shard %d = ok=%v err=%v", key, s, ok, err)
		}
		want := "val-" + key[len("key-"):]
		if string(v) != want {
			t.Fatalf("after recovery: %q = %q, want %q", key, v, want)
		}
	}
}

// TestSingleShardCrashIsolation crashes one shard's pool and checks the
// blast radius: the other shards keep serving reads and writes untouched
// (no drain, no rebuild), and only the victim needs the image-rebuild +
// recovery path before rejoining.
func TestSingleShardCrashIsolation(t *testing.T) {
	const n = 4
	shards := make([]*Shard, n)
	stores := make([]pds.Store, n)
	for i := range shards {
		shards[i], stores[i] = newTestShard(t)
	}
	set := NewSet(shards)
	owners := populate(t, set, stores, 200)

	// Crash the victim the way production does: injection fires mid-write and
	// the sticky latch makes every later access panic with ErrCrash.
	const victim = 1
	shards[victim].Pool.ScheduleCrash(1)
	func() {
		defer func() {
			if r := recover(); r != nvm.ErrCrash {
				t.Errorf("victim access panicked with %v, want ErrCrash", r)
			}
		}()
		stores[victim].Insert(0, []byte("post-crash"), []byte("x"))
		t.Error("victim accepted a write after crash")
	}()
	if !shards[victim].Pool.Crashed() {
		t.Fatal("victim pool not latched after scheduled crash")
	}

	// Survivors never stopped: reads and new writes succeed with the victim
	// still down.
	for key, s := range owners {
		if s == victim {
			continue
		}
		if _, ok, err := stores[s].Get(0, []byte(key)); err != nil || !ok {
			t.Fatalf("survivor shard %d lost %q during victim crash: ok=%v err=%v", s, key, ok, err)
		}
	}
	for s := 0; s < n; s++ {
		if s == victim {
			continue
		}
		if err := stores[s].Insert(0, []byte(fmt.Sprintf("live-%d", s)), []byte("y")); err != nil {
			t.Fatalf("survivor shard %d rejected a write during victim crash: %v", s, err)
		}
	}

	// Recover only the victim from its durable image and swap it back in.
	img := shards[victim].Pool.Snapshot()
	sh, st := reattachShard(t, img)
	if _, err := recoverEngine(sh.Engine); err != nil {
		t.Fatalf("victim recovery: %v", err)
	}
	set.Replace(victim, sh)
	stores[victim] = st

	// The victim's pre-crash durable keys are back; routing is unchanged, so
	// every key still lands on the shard that owns it.
	for key, s := range owners {
		if s != victim {
			continue
		}
		if _, ok, err := stores[victim].Get(0, []byte(key)); err != nil || !ok {
			t.Fatalf("victim lost durable key %q across crash+recover: ok=%v err=%v", key, ok, err)
		}
	}
	if got := set.ShardOf([]byte("key-00000")); got != owners["key-00000"] {
		t.Errorf("routing changed across recovery: key-00000 now -> %d", got)
	}
}

// TestRecoverAllWorkerClamp pins the worker-pool sizing rules.
func TestRecoverAllWorkerClamp(t *testing.T) {
	shards := make([]*Shard, 3)
	for i := range shards {
		shards[i], _ = newTestShard(t)
	}
	set := NewSet(shards)
	rep, err := set.RecoverAll(100) // > N clamps to N (then to GOMAXPROCS)
	if err != nil {
		t.Fatalf("RecoverAll: %v", err)
	}
	if rep.Workers > 3 {
		t.Errorf("workers = %d, want <= 3", rep.Workers)
	}
	rep, err = set.RecoverAll(1)
	if err != nil {
		t.Fatalf("RecoverAll(1): %v", err)
	}
	if rep.Workers != 1 {
		t.Errorf("workers = %d, want 1", rep.Workers)
	}
}
