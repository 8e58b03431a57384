package proptest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
)

// Concurrent mode: each of spec.Threads workers runs its own generated op
// stream over a disjoint key space (keys prefixed "w<id>-"), on its own
// transaction slot. The first half of every stream runs as a warm-up on the
// pool's fast (deferred-media) path; arming the crash flips the pool back to
// precise bookkeeping, and the live halves then race until the scheduled
// point fires — the sticky crash latch halts every other worker at its next
// persistence event, exactly like a real power failure.
//
// The warm-up runs each stream on its neighbour's slot, so the live half's
// updates and deletes free blocks that another slot's arena allocated:
// frees cross slots, as they do behind a server whose connections share
// keys.
//
// The oracle is exact because key spaces are disjoint: every linearization
// of the per-worker histories projects, per worker, to the committed prefix
// with at most one in-flight op, all-or-nothing. A worker's recovered
// projection must therefore equal its model after the committed ops, or —
// only if an op was actually in flight — after one more (engines that
// recover by re-execution, like clobber, may complete it).
//
// Concurrent replays re-run the same scenario (same streams, same point
// ordinal) but thread interleaving may move which op the crash lands in;
// the audit validates whatever interleaving occurred.

// tortureConcurrent samples crash points for a concurrent spec. The exact
// live-phase point count depends on thread interleaving, so the sampling
// range is a per-op event-density estimate; points beyond the actual run
// simply never fire and degrade to a crash-free final-state check.
func tortureConcurrent(es crashsweep.EngineSpec, spec Spec, samples int) (*Failure, error) {
	base := spec
	base.Point = 0
	if f, err := RunSpec(es, base); f != nil || err != nil {
		return f, err
	}
	liveOps := (spec.Ops - spec.Ops/2) * spec.Threads
	span := int64(eventsPerOp(spec.Kind)) * int64(liveOps)
	if span < 1 {
		span = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5DEECE66D))
	for i := 0; i < samples; i++ {
		s := spec
		s.Point = 1 + rng.Int63n(span)
		if f, err := RunSpec(es, s); f != nil || err != nil {
			return f, err
		}
	}
	return nil, nil
}

// eventsPerOp estimates how many persistence events of each class one
// structure operation emits, bounding the random crash ordinal so sampled
// points usually land inside the live phase.
func eventsPerOp(kind nvm.CrashKind) int {
	switch kind {
	case nvm.CrashAtStore:
		return 150
	case nvm.CrashAtFlush:
		return 40
	case nvm.CrashAtFence:
		return 12
	default:
		return 200
	}
}

// worker is one concurrent stream's execution record.
type worker struct {
	ops       []Op
	models    []map[string]string
	universe  map[string]struct{}
	committed int
	inFlight  bool
	diverged  error
	runErr    error
}

// workerOps generates worker w's stream: the shared spec seed is offset per
// worker and every key is prefixed into the worker's private space.
func workerOps(spec Spec, w int) []Op {
	wspec := spec
	wspec.Seed = spec.Seed + int64(w)*1000003
	wspec.Keep = nil
	ops := Generate(wspec)
	for i := range ops {
		ops[i].Key = fmt.Sprintf("w%d-%s", w, ops[i].Key)
	}
	return ops
}

func runConcurrent(es crashsweep.EngineSpec, spec Spec) (*Failure, error) {
	if spec.Threads < 2 {
		return nil, fmt.Errorf("proptest: concurrent mode needs threads >= 2")
	}
	pool, store, _, err := setup(es, spec)
	if err != nil {
		return nil, err
	}

	workers := make([]*worker, spec.Threads)
	for w := range workers {
		ops := workerOps(spec, w)
		models, universe := buildModels(ops)
		workers[w] = &worker{ops: ops, models: models, universe: universe}
	}
	warm := spec.Ops / 2

	// runPhase executes each worker's [lo, hi) ops concurrently, worker w on
	// slot (w+shift) mod Threads, stopping a worker at the first crash panic,
	// divergence, or hard error.
	runPhase := func(lo, hi, shift int) {
		var wg sync.WaitGroup
		for w, st := range workers {
			wg.Add(1)
			go func(w, slot int, st *worker) {
				defer wg.Done()
				for j := lo; j < hi && j < len(st.ops); j++ {
					if pool.Crashed() {
						return // power is out; nothing executes
					}
					crashed := false
					err := func() (err error) {
						defer func() {
							if r := recover(); r != nil {
								e, ok := r.(error)
								if !ok || !errors.Is(e, nvm.ErrCrash) {
									panic(r)
								}
								crashed = true
							}
						}()
						return execOp(store, slot, st.ops[j], st.models[j])
					}()
					if crashed {
						st.inFlight = true
						return
					}
					if errors.Is(err, errDiverged) {
						st.diverged = fmt.Errorf("worker %d op %d: %w", w, j, err)
						return
					}
					if err != nil {
						st.runErr = fmt.Errorf("worker %d op %d %v: %w", w, j, st.ops[j], err)
						return
					}
					st.committed = j + 1
				}
			}(w, (w+shift)%spec.Threads, st)
		}
		wg.Wait()
	}

	// Warm-up on the fast path: committed bulk state, no crash armed.
	pool.SetFastPath(true)
	runPhase(0, warm, 1)
	for _, st := range workers {
		if st.runErr != nil {
			return nil, st.runErr
		}
		if st.diverged != nil {
			return &Failure{Spec: spec, Op: st.committed, Detail: st.diverged.Error()}, nil
		}
	}

	// Live phase: arming the crash forces precise mode (syncing the
	// deferred durable view) and resets the point counters.
	if spec.Point > 0 {
		pool.ScheduleCrashAt(spec.Kind, spec.Point)
	} else {
		pool.ResetPersistPoints()
	}
	runPhase(warm, spec.Ops, 0)
	fired := pool.Crashed()
	pool.ScheduleCrashAt(spec.Kind, 0)
	for _, st := range workers {
		if st.runErr != nil {
			return nil, st.runErr
		}
		if st.diverged != nil {
			return &Failure{Spec: spec, Op: st.committed, Detail: st.diverged.Error()}, nil
		}
	}

	audit := func(s pds.Store, recovered bool) *Failure {
		totalWant := 0
		for w, st := range workers {
			obs, err := crashsweep.Observe(s, st.universe)
			if err != nil {
				return &Failure{Spec: spec, Op: st.committed, Detail: err.Error()}
			}
			pre := st.models[st.committed]
			switch {
			case crashsweep.ModelEqual(obs, pre):
				totalWant += len(pre)
			case recovered && st.inFlight && crashsweep.ModelEqual(obs, st.models[st.committed+1]):
				totalWant += len(st.models[st.committed+1])
			default:
				return &Failure{Spec: spec, Op: st.committed, Detail: fmt.Sprintf(
					"worker %d: recovered projection matches neither its %d-op committed prefix nor the in-flight op completing (in-flight=%v): got %v, want %v",
					w, st.committed, st.inFlight, obs, pre)}
			}
		}
		if n, err := s.Len(0); err != nil || n != totalWant {
			return &Failure{Spec: spec, Op: -1,
				Detail: fmt.Sprintf("Len = %d, %v; per-worker projections imply %d", n, err, totalWant)}
		}
		if err := pds.CheckInvariants(s, 0); err != nil {
			return &Failure{Spec: spec, Op: -1,
				Detail: fmt.Sprintf("structural invariant violated: %v", err)}
		}
		return nil
	}

	if !fired {
		// No crash (Point == 0 or beyond the run): exact final-state check.
		return audit(store, false), nil
	}

	pool.Crash()
	store2, detail := reattach(es, spec, pool)
	if detail != "" {
		return &Failure{Spec: spec, Op: -1, Detail: detail}, nil
	}
	return audit(store2, true), nil
}
