package proptest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

const (
	rootSlot = 16
	// poolSize keeps per-run setup cheap: the hashmap's bucket table plus
	// the small sweep-sized engine logs fit comfortably in 8 MiB.
	poolSize = 1 << 23
)

// Engines lists the failure-atomicity engines the torture covers. The ido
// and justdo meters are excluded: they promise nothing about recovery, so a
// differential oracle has nothing to check.
func Engines() []string {
	names := []string{}
	for _, s := range crashsweep.Specs() {
		if s.Style == crashsweep.StyleAtomic {
			names = append(names, s.Name)
		}
	}
	return names
}

// Structures lists the persistent structures the torture covers.
func Structures() []string { return crashsweep.StructureKinds() }

// engineSpec resolves an atomic engine by name, sized for the spec's thread
// count (each concurrent worker needs its own transaction slot).
func engineSpec(spec Spec) (crashsweep.EngineSpec, error) {
	slots := 2
	if spec.Threads > slots {
		slots = spec.Threads
	}
	for _, es := range crashsweep.SpecsSized(slots, 1<<20) {
		if es.Name == spec.Engine {
			if es.Style != crashsweep.StyleAtomic {
				return crashsweep.EngineSpec{}, fmt.Errorf("proptest: engine %q is a meter, not failure-atomic", spec.Engine)
			}
			return es, nil
		}
	}
	return crashsweep.EngineSpec{}, fmt.Errorf("proptest: unknown engine %q (want %v)", spec.Engine, Engines())
}

// Run resolves the spec's engine by name and executes it: the exact crash
// point when spec.Point > 0, a crash-free differential pass otherwise.
func Run(spec Spec) (*Failure, error) {
	es, err := engineSpec(spec)
	if err != nil {
		return nil, err
	}
	return RunSpec(es, spec)
}

// TortureNamed resolves the spec's engine by name and runs Torture.
func TortureNamed(spec Spec, samples int) (*Failure, error) {
	es, err := engineSpec(spec)
	if err != nil {
		return nil, err
	}
	return Torture(es, spec, samples)
}

// ShrinkNamed resolves the failure's engine by name and runs Shrink.
func ShrinkNamed(f Failure) (Failure, int, error) {
	es, err := engineSpec(f.Spec)
	if err != nil {
		return f, 0, err
	}
	return Shrink(es, f)
}

// RunSpec executes one spec under an explicit engine spec. Tests pass
// deliberately broken engines here to prove the oracle and shrinker work.
// A nil Failure means the run was consistent; error means the harness
// itself could not run the cell.
func RunSpec(es crashsweep.EngineSpec, spec Spec) (*Failure, error) {
	if spec.Threads > 1 {
		return runConcurrent(es, spec)
	}
	return runSequential(es, spec)
}

// Measure counts the persist points of spec.Kind the full kept sequence
// emits, crash-free. Point sampling and the shrinker's window sweeps draw
// from [1, Measure()].
func Measure(es crashsweep.EngineSpec, spec Spec) (int64, error) {
	spec.Point = 0
	pool, store, _, err := setup(es, spec)
	if err != nil {
		return 0, err
	}
	pool.ResetPersistPoints()
	for _, o := range Materialize(spec) {
		if err := execOp(store, 0, o, nil); err != nil {
			return 0, err
		}
	}
	return pool.PersistPoints(spec.Kind), nil
}

// Torture samples `samples` random crash points over the spec's sequence and
// runs each, returning the first failure. The sampling RNG derives from the
// spec seed, so a torture round is as reproducible as a single run.
func Torture(es crashsweep.EngineSpec, spec Spec, samples int) (*Failure, error) {
	if spec.Threads > 1 {
		return tortureConcurrent(es, spec, samples)
	}
	total, err := Measure(es, spec)
	if err != nil {
		return nil, err
	}
	if f, err := RunSpec(es, spec); f != nil || err != nil {
		return f, err // crash-free differential pass first
	}
	if total == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5DEECE66D))
	for i := 0; i < samples; i++ {
		s := spec
		s.Point = 1 + rng.Int63n(total)
		f, err := RunSpec(es, s)
		if f != nil || err != nil {
			return f, err
		}
	}
	return nil, nil
}

// setup builds the pool/allocator/engine/structure stack for one run.
func setup(es crashsweep.EngineSpec, spec Spec) (*nvm.Pool, pds.Store, pds.Engine, error) {
	size := uint64(poolSize)
	if spec.Threads > 1 {
		size = 1 << 24 // per-slot logs for every worker
	}
	pool := nvm.New(size, nvm.WithSeed(spec.Seed), nvm.WithEviction(spec.Policy))
	if spec.GroupCommit {
		w := nvm.DefaultGroupCommitWaiters
		if spec.Threads > w {
			w = spec.Threads
		}
		pool.GroupCommit(w, nvm.DefaultGroupCommitDelayNS)
	}
	alloc, err := pmem.Create(pool)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("proptest: create allocator: %w", err)
	}
	eng, err := es.Create(pool, alloc)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("proptest: create %s: %w", es.Name, err)
	}
	store, err := crashsweep.OpenStructure(spec.Structure, eng, rootSlot)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("proptest: open %s: %w", spec.Structure, err)
	}
	return pool, store, eng, nil
}

// reattach reopens the full stack after a crash and runs recovery,
// returning the recovered store or an audit detail for recovery failures.
func reattach(es crashsweep.EngineSpec, spec Spec, pool *nvm.Pool) (pds.Store, string) {
	a, err := pmem.Attach(pool)
	if err != nil {
		return nil, fmt.Sprintf("allocator attach failed: %v", err)
	}
	e2, err := es.Attach(pool, a)
	if err != nil {
		return nil, fmt.Sprintf("engine attach failed: %v", err)
	}
	store2, err := crashsweep.OpenStructure(spec.Structure, e2, rootSlot)
	if err != nil {
		return nil, fmt.Sprintf("structure open failed: %v", err)
	}
	rep, err := crashsweep.Recover(e2)
	if err != nil {
		return nil, fmt.Sprintf("recovery failed: %v", err)
	}
	if rep.Quarantined > 0 {
		return nil, fmt.Sprintf("recovery quarantined %d slot(s) after a pure power failure: %v",
			rep.Quarantined, errors.Join(rep.Errors...))
	}
	if _, err := crashsweep.CheckHeap(a, store2, pool.Size()); err != nil {
		return nil, fmt.Sprintf("heap audit after recovery: %v", err)
	}
	return store2, ""
}

// execOp runs one op on the store from the given slot. For lookups, model
// (when non-nil) is the expected pre-op state; a divergent read is returned
// as an error tagged errDiverged.
func execOp(s pds.Store, slot int, o Op, model map[string]string) error {
	switch o.Kind {
	case OpInsert:
		return s.Insert(slot, []byte(o.Key), []byte(o.Val))
	case OpDelete:
		_, err := s.Delete(slot, []byte(o.Key))
		return err
	default:
		got, found, err := s.Get(slot, []byte(o.Key))
		if err != nil {
			return err
		}
		if model == nil {
			return nil
		}
		want, ok := model[o.Key]
		if found != ok || (found && !bytes.Equal(got, []byte(want))) {
			return fmt.Errorf("%w: lookup %q: got (%q,%v), model (%q,%v)",
				errDiverged, o.Key, got, found, want, ok)
		}
		return nil
	}
}

// errDiverged tags a differential mismatch observed without a crash.
var errDiverged = errors.New("differential divergence")

// runSequential is the single-threaded oracle: execute the kept sequence
// with a crash armed at spec.Point (if any), checking every lookup against
// the reference model; on crash, recover and audit the surviving state
// against the two admissible models for the interrupted op, plus structural
// invariants.
func runSequential(es crashsweep.EngineSpec, spec Spec) (*Failure, error) {
	pool, store, _, err := setup(es, spec)
	if err != nil {
		return nil, err
	}
	ops := Materialize(spec)
	models, universe := buildModels(ops)

	if spec.Point > 0 {
		pool.ScheduleCrashAt(spec.Kind, spec.Point)
	}
	fired, opIdx := false, -1
	for j, o := range ops {
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
			return execOp(store, 0, o, models[j])
		}()
		if fired {
			break
		}
		if errors.Is(err, errDiverged) {
			return &Failure{Spec: spec, Op: j, Detail: err.Error()}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("proptest: op %d %v: %w", j, o, err)
		}
	}
	pool.ScheduleCrashAt(spec.Kind, 0)

	if !fired {
		// Crash-free (Point == 0, or the point lay beyond the sequence):
		// the final state must match the full model exactly.
		obs, err := crashsweep.Observe(store, universe)
		if err != nil {
			return &Failure{Spec: spec, Op: -1, Detail: err.Error()}, nil
		}
		final := models[len(ops)]
		if detail := crashsweep.AuditRecovered(store, obs, final, final); detail != "" {
			return &Failure{Spec: spec, Op: -1, Detail: detail}, nil
		}
		return nil, nil
	}

	pool.Crash()
	store2, detail := reattach(es, spec, pool)
	if detail != "" {
		return &Failure{Spec: spec, Op: opIdx, Detail: detail}, nil
	}
	obs, err := crashsweep.Observe(store2, universe)
	if err != nil {
		return &Failure{Spec: spec, Op: opIdx, Detail: err.Error()}, nil
	}
	if detail := crashsweep.AuditRecovered(store2, obs, models[opIdx], models[opIdx+1]); detail != "" {
		return &Failure{Spec: spec, Op: opIdx, Detail: detail}, nil
	}
	return nil, nil
}
