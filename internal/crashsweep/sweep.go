package crashsweep

import (
	"bytes"
	"errors"
	"fmt"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// Config parameterizes one exhaustive sweep cell.
type Config struct {
	// Engine names a Specs() entry; Structure names a StructureKinds() entry.
	Engine    string
	Structure string
	// Kind selects which persist-point class crashes target (default
	// CrashAtAny: every store, flush and fence).
	Kind nvm.CrashKind
	// Policy is the eviction adversary applied at each crash (default
	// EvictRandom).
	Policy nvm.EvictPolicy
	// Seed drives the eviction adversary. The workload itself is
	// deterministic and seed-independent.
	Seed int64
	// SeedOps inserts committed before the swept window (default 3).
	SeedOps int
	// LiveOps is the crash-swept operation window (default 3): one insert
	// of a fresh key, one update, one delete per group of three.
	LiveOps int
	// Script, if set, replaces the generated workload (SeedOps and LiveOps
	// are ignored): a cell that must reach one particular code path — a
	// split, a shift across a full node — spells out the ops that get there.
	Script *Script
	// PoolSize is the pool size in bytes (default 1<<23: the hashmap's
	// bucket table plus the logging engines' per-slot undo/redo capacity
	// for its init transaction). The whole image is restored per persist
	// point, so keep it as small as the cell allows.
	PoolSize uint64
	// RootSlot anchors the structure (default 16).
	RootSlot int
	// GroupCommit enables the pool's epoch-based group-commit coordinator
	// for the swept workload. The sweep is single-threaded, so epochs have
	// occupancy one and the persist-point ordinals stay identical to a
	// disabled run — this mode exists to prove exactly that.
	GroupCommit bool
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SeedOps <= 0 {
		c.SeedOps = 3
	}
	if c.LiveOps <= 0 {
		c.LiveOps = 3
	}
	if c.PoolSize == 0 {
		c.PoolSize = 1 << 23
	}
	if c.RootSlot == 0 {
		c.RootSlot = 16
	}
}

// Mismatch records one crash point whose post-recovery state matched
// neither the pre-op nor the post-op model — a torn, lost or corrupt state.
type Mismatch struct {
	// Point is the persist-point ordinal the crash fired at (1-based).
	Point int64
	// Op is the index of the live operation in flight at the crash.
	Op int
	// Detail explains what the audit saw.
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("point %d (op %d): %s", m.Point, m.Op, m.Detail)
}

// Result summarizes one sweep cell.
type Result struct {
	Engine        string
	Structure     string
	Kind          nvm.CrashKind
	Policy        nvm.EvictPolicy
	PersistPoints int64
	// Crashes counts points where the scheduled crash fired mid-workload.
	Crashes int
	// Recovered / Reexecuted / RolledBack / RolledForward aggregate the
	// engines' RecoveryReports across all points.
	Recovered     int
	Reexecuted    int
	RolledBack    int
	RolledForward int
	// Quarantined counts slots recovery refused — any nonzero value is
	// also a Mismatch (a pure power failure must never corrupt a log).
	Quarantined int
	Mismatches  []Mismatch
	// RefLogEntries is the engine's log-entry count for each live op of the
	// uncrashed reference run: a fingerprint of the code path the op took.
	RefLogEntries []int64
	// RefFences is the fence count of each live op of the reference run,
	// which says how the op's log entries were ordered.
	RefFences []int64
	// Shards and Victim are set by RunSharded only: the shard count swept
	// over and the shard whose persist points were crash-injected while the
	// others had to keep their state intact.
	Shards int
	Victim int
}

// Ok reports whether the sweep found no consistency violations.
func (r Result) Ok() bool { return len(r.Mismatches) == 0 }

// Op is one deterministic workload step: an insert (or update) of Key, or
// its delete.
type Op struct {
	Delete   bool
	Key, Val string
}

// Script is an explicit workload: Seed is committed before the swept window,
// Live is the window.
type Script struct {
	Seed, Live []Op
}

// BPTreeTwoLevel is a workload whose live window makes the B+tree edits the
// generated mix, with its handful of keys in one leaf, never reaches. The
// seed builds a root over three leaves of 15, 16 and 16 keys (order 16,
// ascending inserts split 8 / 9, then the gaps are filled); the live ops
// insert at position 0 of the 15-key leaf (the longest shift), split the
// middle leaf under the non-full root (a shifting internal insert), and
// delete the first key of the full last leaf.
func BPTreeTwoLevel() *Script {
	var sc Script
	seed := func(i int) {
		sc.Seed = append(sc.Seed, Op{Key: fmt.Sprintf("k%03d", i), Val: fmt.Sprintf("sv-%03d", i)})
	}
	for i := 10; i <= 250; i += 10 { // leaves k010.. (8), k090.. (8), k170.. (9)
		seed(i)
	}
	for i := 1; i <= 7; i++ {
		seed(10 + i)  // first leaf: 15 keys
		seed(170 + i) // last leaf: 16 keys
	}
	for i := 1; i <= 8; i++ {
		seed(90 + i) // middle leaf: 16 keys
	}
	sc.Live = []Op{
		{Key: "k000", Val: "front"},
		{Key: "k0955", Val: "split"}, // lands in the half that stays
		{Delete: true, Key: "k170"},
	}
	return &sc
}

// makeOps builds the deterministic workload: seedOps fresh inserts, then a
// live window cycling insert-fresh / update-seeded / delete-seeded so the
// sweep crosses allocation, in-place clobber and free paths.
func makeOps(seedOps, liveOps int) (seed, live []Op) {
	for i := 0; i < seedOps; i++ {
		seed = append(seed, Op{Key: fmt.Sprintf("seed-%02d", i), Val: fmt.Sprintf("sv-%02d", i)})
	}
	for i := 0; i < liveOps; i++ {
		switch i % 3 {
		case 0:
			live = append(live, Op{Key: fmt.Sprintf("live-%02d", i), Val: fmt.Sprintf("lv-%02d", i)})
		case 1:
			live = append(live, Op{Key: seed[i%seedOps].Key, Val: fmt.Sprintf("up-%02d", i)})
		default:
			live = append(live, Op{Delete: true, Key: seed[(i/3)%seedOps].Key})
		}
	}
	return seed, live
}

// ops returns the cell's workload: the script if it has one, else the
// generated mix.
func (c *Config) ops() (seed, live []Op) {
	if c.Script != nil {
		return c.Script.Seed, c.Script.Live
	}
	return makeOps(c.SeedOps, c.LiveOps)
}

// apply mirrors an op into a volatile model.
func (o Op) apply(m map[string]string) {
	if o.Delete {
		delete(m, o.Key)
	} else {
		m[o.Key] = o.Val
	}
}

// run executes an op against the store.
func (o Op) run(s pds.Store) error {
	if o.Delete {
		_, err := s.Delete(0, []byte(o.Key))
		return err
	}
	return s.Insert(0, []byte(o.Key), []byte(o.Val))
}

// Run executes the sweep for cfg using the named engine from Specs().
func Run(cfg Config) (Result, error) {
	spec, err := EngineByName(cfg.Engine)
	if err != nil {
		return Result{}, err
	}
	return RunSpec(spec, cfg)
}

// RunSpec executes the sweep with an explicit engine spec (tests use this
// to sweep deliberately broken engines and prove the auditor catches them).
func RunSpec(spec EngineSpec, cfg Config) (Result, error) {
	cfg.fill()
	res := Result{Engine: spec.Name, Structure: cfg.Structure, Kind: cfg.Kind, Policy: cfg.Policy}

	pool := nvm.New(cfg.PoolSize, nvm.WithSeed(cfg.Seed), nvm.WithEviction(cfg.Policy))
	if cfg.GroupCommit {
		pool.GroupCommit(nvm.DefaultGroupCommitWaiters, nvm.DefaultGroupCommitDelayNS)
	}
	alloc, err := pmem.Create(pool)
	if err != nil {
		return res, fmt.Errorf("crashsweep: create allocator: %w", err)
	}
	eng, err := spec.Create(pool, alloc)
	if err != nil {
		return res, fmt.Errorf("crashsweep: create %s: %w", spec.Name, err)
	}
	store, err := OpenStructure(cfg.Structure, eng, cfg.RootSlot)
	if err != nil {
		return res, fmt.Errorf("crashsweep: open %s: %w", cfg.Structure, err)
	}

	seedOps, liveOps := cfg.ops()
	for _, o := range seedOps {
		if err := o.run(store); err != nil {
			return res, fmt.Errorf("crashsweep: seed op %v: %w", o, err)
		}
	}

	// base is the logical state after seeding with everything durable;
	// every sweep iteration restores it into both pool views.
	base := pool.CoherentSnapshot()
	unowned, err := CheckHeap(alloc, store, pool.Size())
	if err != nil {
		return res, fmt.Errorf("crashsweep: heap audit of the seeded image: %w", err)
	}

	// models[j] is the expected key-value state after j live ops; a crash
	// during live op j must recover to models[j] or models[j+1].
	models := make([]map[string]string, len(liveOps)+1)
	models[0] = map[string]string{}
	for _, o := range seedOps {
		o.apply(models[0])
	}
	for j, o := range liveOps {
		next := make(map[string]string, len(models[j])+1)
		for k, v := range models[j] {
			next[k] = v
		}
		o.apply(next)
		models[j+1] = next
	}
	universe := map[string]struct{}{}
	for _, m := range models {
		for k := range m {
			universe[k] = struct{}{}
		}
	}

	// reopen restores the base image and reattaches the whole stack.
	reopen := func() (pds.Store, pds.Engine, error) {
		if err := pool.Restore(base); err != nil {
			return nil, nil, err
		}
		a, err := pmem.Attach(pool)
		if err != nil {
			return nil, nil, err
		}
		e, err := spec.Attach(pool, a)
		if err != nil {
			return nil, nil, err
		}
		s, err := OpenStructure(cfg.Structure, e, cfg.RootSlot)
		if err != nil {
			return nil, nil, err
		}
		if _, err := e.Recover(); err != nil {
			return nil, nil, err
		}
		return s, e, nil
	}

	// Reference run: count the workload's persist points.
	store, eng, err = reopen()
	if err != nil {
		return res, fmt.Errorf("crashsweep: reference reopen: %w", err)
	}
	pool.ResetPersistPoints()
	for _, o := range liveOps {
		before, fences := eng.Stats().Snapshot().LogEntries, pool.PersistPoints(nvm.CrashAtFence)
		if err := o.run(store); err != nil {
			return res, fmt.Errorf("crashsweep: reference op %v: %w", o, err)
		}
		res.RefLogEntries = append(res.RefLogEntries, eng.Stats().Snapshot().LogEntries-before)
		res.RefFences = append(res.RefFences, pool.PersistPoints(nvm.CrashAtFence)-fences)
	}
	res.PersistPoints = pool.PersistPoints(cfg.Kind)

	for point := int64(1); point <= res.PersistPoints; point++ {
		store, eng, err = reopen()
		if err != nil {
			return res, fmt.Errorf("crashsweep: point %d: reopen: %w", point, err)
		}
		pool.ScheduleCrashAt(cfg.Kind, point)
		fired, opIdx := false, -1
		for j, o := range liveOps {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						e, ok := r.(error)
						if !ok || !errors.Is(e, nvm.ErrCrash) {
							panic(r)
						}
						fired, opIdx = true, j
					}
				}()
				return o.run(store)
			}()
			if fired {
				break
			}
			if err != nil {
				return res, fmt.Errorf("crashsweep: point %d: op %v: %w", point, o, err)
			}
		}
		pool.ScheduleCrashAt(cfg.Kind, 0)
		if !fired {
			// The workload is deterministic; a point inside the reference
			// count that never fires means the run diverged.
			res.Mismatches = append(res.Mismatches, Mismatch{
				Point: point, Op: -1,
				Detail: "scheduled crash never fired: workload nondeterminism",
			})
			continue
		}
		res.Crashes++

		if spec.Style == StyleMeter {
			// Meters promise nothing about recovery; audit the crash
			// simulator instead: full eviction of the coherent state must
			// reproduce it exactly in the durable view.
			coh := pool.CoherentSnapshot()
			pool.SetEviction(nvm.EvictAll)
			pool.Crash()
			pool.SetEviction(cfg.Policy)
			if !bytes.Equal(coh, pool.Snapshot()) {
				res.Mismatches = append(res.Mismatches, Mismatch{
					Point: point, Op: opIdx,
					Detail: "full eviction did not reproduce coherent state",
				})
			}
			continue
		}

		// Power loss, then a fresh recovery stack.
		pool.Crash()
		a, err := pmem.Attach(pool)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("allocator attach failed: %v", err)})
			continue
		}
		e2, err := spec.Attach(pool, a)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("engine attach failed: %v", err)})
			continue
		}
		store2, err := OpenStructure(cfg.Structure, e2, cfg.RootSlot)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("structure open failed: %v", err)})
			continue
		}
		rep, err := Recover(e2)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("recovery failed: %v", err)})
			continue
		}
		res.Recovered += rep.Recovered
		res.Reexecuted += rep.Reexecuted
		res.RolledBack += rep.RolledBack
		res.RolledForward += rep.RolledForward
		res.Quarantined += rep.Quarantined
		if rep.Quarantined > 0 {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("recovery quarantined %d slot(s) after a pure power failure: %v",
					rep.Quarantined, errors.Join(rep.Errors...))})
			continue
		}

		obs, err := Observe(store2, universe)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: err.Error()})
			continue
		}
		detail := AuditRecovered(store2, obs, models[opIdx], models[opIdx+1])
		if detail == "" {
			detail = AuditHeap(a, store2, pool.Size(), unowned)
		}
		if detail != "" {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx, Detail: detail})
		}
	}
	return res, nil
}
