package harness

import (
	"fmt"
	"testing"

	"clobbernvm/internal/atlas"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/ycsb"
)

// gcTestScale is a small single-structure workload: big enough that the
// clobber engine crosses allocation, bucket-chain and in-place paths, small
// enough to keep the regression test fast.
var gcTestScale = Scale{
	Entries:   400,
	Ops:       400,
	Threads:   []int{1},
	PoolBytes: 1 << 26,
	Latency:   nvm.DefaultLatency,
	Runs:      1,
}

// runInsertFences runs the clobber/hashmap insert workload at the given
// thread count and returns the exact pool fence count of the measured
// region, the obs pool.fences mirror over the same region, and the
// coordinator stats.
func runInsertFences(t *testing.T, threads int, groupCommit bool) (fences, obsFences int64, gcs nvm.GroupCommitStats) {
	t.Helper()
	sc := gcTestScale
	if threads > 2 {
		sc.Threads = []int{threads}
	}
	setup, err := NewSetup(EngineClobber, sc)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStructure(StructHashMap, setup.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if err := populate(store, StructHashMap, sc.Entries, 1); err != nil {
		t.Fatal(err)
	}
	// Enable the coordinator only for the measured region, so the epoch
	// stats and the fence delta describe exactly the same window.
	if groupCommit {
		w := threads
		if w < nvm.DefaultGroupCommitWaiters {
			w = nvm.DefaultGroupCommitWaiters
		}
		setup.Pool.GroupCommit(w, nvm.DefaultGroupCommitDelayNS)
	}
	f0 := setup.Pool.Stats().Fences
	snap0 := obs.Default.Snapshot().Counters["pool.fences"]
	if _, err := measureInsertThroughput(store, StructHashMap, sc.Entries, sc.Ops, threads); err != nil {
		t.Fatal(err)
	}
	return setup.Pool.Stats().Fences - f0,
		obs.Default.Snapshot().Counters["pool.fences"] - snap0,
		setup.Pool.GroupCommitStats()
}

// TestClobberFencesPerOpSingleThread pins the clobber engine's single-thread
// fence behaviour: the obs pool.fences counter mirrors the pool's own fence
// stat exactly, every insert pays at least the engine's three mandatory
// ordering points (v_log append, dirty-line drain, status persist), and —
// the bit-identity property — enabling group commit changes nothing: same
// exact fence count, every epoch solo, zero fences saved.
func TestClobberFencesPerOpSingleThread(t *testing.T) {
	prevOn := obs.Enable(true)
	defer obs.Enable(prevOn)

	off, obsOff, gcsOff := runInsertFences(t, 1, false)
	if off != obsOff {
		t.Fatalf("obs pool.fences=%d disagrees with pool stats fences=%d", obsOff, off)
	}
	if gcsOff != (nvm.GroupCommitStats{}) {
		t.Fatalf("coordinator off but reported stats %+v", gcsOff)
	}
	// Every clobber insert orders at least: v_log append fence, commit
	// dirty-line fence, txn-status persist fence.
	ops := int64(gcTestScale.Ops)
	if off < 3*ops {
		t.Fatalf("clobber issued %d fences for %d inserts; want >= %d (3/op)", off, ops, 3*ops)
	}

	on, obsOn, gcsOn := runInsertFences(t, 1, true)
	if on != obsOn {
		t.Fatalf("obs pool.fences=%d disagrees with pool stats fences=%d", obsOn, on)
	}
	if on != off {
		t.Fatalf("single-thread fence count changed with group commit: %d on vs %d off", on, off)
	}
	if gcsOn.FencesSaved != 0 || gcsOn.MaxOccupancy != 1 || gcsOn.Epochs != gcsOn.Enlisted {
		t.Fatalf("single-thread epochs must be solo: %+v", gcsOn)
	}
}

// TestClobberGroupCommitSavesFences is the amortization regression: with the
// coordinator on at 4 threads, the same insert workload must issue strictly
// fewer fences than with it off, and the coordinator must report shared
// epochs accounting exactly for the savings.
func TestClobberGroupCommitSavesFences(t *testing.T) {
	prevOn := obs.Enable(true)
	defer obs.Enable(prevOn)
	const threads = 4

	off, _, _ := runInsertFences(t, threads, false)
	on, _, gcs := runInsertFences(t, threads, true)
	if on >= off {
		t.Fatalf("group commit at %d threads saved nothing: %d fences on vs %d off", threads, on, off)
	}
	if gcs.FencesSaved <= 0 || gcs.MaxOccupancy < 2 {
		t.Fatalf("no shared epochs at %d threads: %+v", threads, gcs)
	}
	if gcs.Epochs+gcs.FencesSaved != gcs.Enlisted {
		t.Fatalf("inconsistent coordinator stats: %+v", gcs)
	}
	if off-on < gcs.FencesSaved {
		t.Fatalf("pool fence delta %d smaller than coordinator's claimed savings %d", off-on, gcs.FencesSaved)
	}
	t.Logf("fences: off=%d on=%d (saved %d, mean occupancy %.2f)",
		off, on, gcs.FencesSaved, gcs.MeanOccupancy())
}

// TestBaselineFencesPerInsertExact pins the three baseline engines' hashmap
// insert at the fences their logging discipline costs and nothing else: every
// Alloc and Free of the transaction rides those fences, so the only other
// term is the allocator's chunk refill (a central grab plus a record committed
// on the spot: three fences, once per 64 KiB).
func TestBaselineFencesPerInsertExact(t *testing.T) {
	const refillFences = 3
	for _, tc := range []struct {
		engine EngineKind
		// perTx is the fence count of one insert that wrote entries log
		// entries, the commits-th commit of the engine's life.
		perTx func(entries, commits int64) int64
	}{
		// begin + one per undo entry + commit + status.
		{EnginePMDK, func(entries, _ int64) int64 { return 1 + entries + 1 + 1 }},
		// Redo log batch + commit marker + in-place apply + idle status,
		// however many ranges the write set has.
		{EngineMnemosyne, func(_, _ int64) int64 { return 4 }},
		// As pmdk, plus the dependency-ring append, plus the snapshot scan's
		// fence every atlas.SnapshotInterval commits.
		{EngineAtlas, func(entries, commits int64) int64 {
			n := 1 + entries + 1 + 1 + 1
			if commits%atlas.SnapshotInterval == 0 {
				n++
			}
			return n
		}},
	} {
		t.Run(string(tc.engine), func(t *testing.T) {
			sc := gcTestScale
			setup, err := NewSetup(tc.engine, sc)
			if err != nil {
				t.Fatal(err)
			}
			store, err := OpenStructure(StructHashMap, setup.Engine)
			if err != nil {
				t.Fatal(err)
			}
			if err := populate(store, StructHashMap, sc.Entries, 1); err != nil {
				t.Fatal(err)
			}
			g := ycsb.NewGenerator(ycsb.WorkloadLoad, 0, KeySize(StructHashMap), ValueSize, 3)
			for i := 0; i < sc.Ops; i++ {
				s0, p0 := setup.Engine.Stats().Snapshot(), setup.Pool.Stats()
				_, _, _, r0 := setup.Alloc.Stats().Snapshot()
				if err := store.Insert(0, g.Key(sc.Entries+i), g.Next().Value); err != nil {
					t.Fatal(err)
				}
				s1 := setup.Engine.Stats().Snapshot()
				_, _, _, r1 := setup.Alloc.Stats().Snapshot()
				want := tc.perTx(s1.LogEntries-s0.LogEntries, s1.Committed) + refillFences*(r1-r0)
				if got := setup.Pool.Stats().Sub(p0).Fences; got != want {
					t.Fatalf("insert %d: %d fences, want %d (%d log entries, %d refills)",
						i, got, want, s1.LogEntries-s0.LogEntries, r1-r0)
				}
			}
		})
	}
}

// TestBPTreeInsertCostIndependentOfShift pins the range-shaped node edit by
// count: an insert into a 15-key leaf moves its run of keys and its run of
// pointers with one store each, so what it logs does not depend on how far
// the run is. On clobber, position 0 (fifteen slots move) and position 14
// (one slot moves) both write exactly three clobber entries — key run,
// pointer run, nkeys — declared before the first store, so they cost 1 + 1 + 2
// fences (begin, the declared batch, commit and status); an append
// overwrites no input but nkeys and writes one, under the same four fences,
// and so does the delete that takes each key out again. pmdk's undo-entry
// count is the same at every position too, one fence per entry.
func TestBPTreeInsertCostIndependentOfShift(t *testing.T) {
	const refillFences = 3
	for _, tc := range []struct {
		engine EngineKind
		// entries is the exact log-entry count of an insert that shifts and
		// of one that appends; -1 leaves a count to the position check alone.
		shift, appendOnly int64
		// fences is the fence count of an insert that wrote entries entries.
		fences func(entries int64) int64
	}{
		{EngineClobber, 3, 1, func(entries int64) int64 { return 1 + min(entries, 1) + 2 }},
		{EnginePMDK, -1, -1, func(entries int64) int64 { return 1 + entries + 1 + 1 }},
	} {
		t.Run(string(tc.engine), func(t *testing.T) {
			setup, err := NewSetup(tc.engine, gcTestScale)
			if err != nil {
				t.Fatal(err)
			}
			store, err := OpenStructure(StructBPTree, setup.Engine)
			if err != nil {
				t.Fatal(err)
			}
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%028d", i)) }
			val := make([]byte, ValueSize)
			for i := 2; i <= 30; i += 2 { // a root leaf of 15 keys
				if err := store.Insert(0, key(i), val); err != nil {
					t.Fatal(err)
				}
			}
			// measure runs op and checks its fences against its entries.
			measure := func(what string, i int, op func() error) (entries int64) {
				t.Helper()
				s0, p0 := setup.Engine.Stats().Snapshot(), setup.Pool.Stats()
				_, _, _, r0 := setup.Alloc.Stats().Snapshot()
				if err := op(); err != nil {
					t.Fatalf("%s of key %d: %v", what, i, err)
				}
				entries = setup.Engine.Stats().Snapshot().LogEntries - s0.LogEntries
				_, _, _, r1 := setup.Alloc.Stats().Snapshot()
				if got, want := setup.Pool.Stats().Sub(p0).Fences, tc.fences(entries)+refillFences*(r1-r0); got != want {
					t.Fatalf("%s of key %d: %d fences, want %d (%d log entries, %d refills)", what, i, got, want, entries, r1-r0)
				}
				return entries
			}
			// insert measures one insert into the 15-key leaf, and the delete
			// that takes the key out again.
			insert := func(i int) (entries int64) {
				t.Helper()
				entries = measure("insert", i, func() error { return store.Insert(0, key(i), val) })
				measure("delete", i, func() error {
					if ok, err := store.Delete(0, key(i)); err != nil || !ok {
						return fmt.Errorf("ok=%v err=%v", ok, err)
					}
					return nil
				})
				return entries
			}
			front, back, appended := insert(0), insert(29), insert(99)
			t.Logf("log entries per insert: position 0 %d, position 14 %d, append %d", front, back, appended)
			if front != back {
				t.Fatalf("insert at position 0 wrote %d log entries, at position 14 %d: cost depends on the shift distance", front, back)
			}
			if tc.shift >= 0 && (front != tc.shift || appended != tc.appendOnly) {
				t.Fatalf("log entries: shift %d, append %d; want %d and %d", front, appended, tc.shift, tc.appendOnly)
			}
			if appended > front {
				t.Fatalf("an append wrote %d log entries, a shift %d", appended, front)
			}
		})
	}
}
