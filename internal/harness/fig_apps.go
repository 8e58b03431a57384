package harness

import (
	"time"

	"clobbernvm/internal/memcache"
	"clobbernvm/internal/vacation"
	"clobbernvm/internal/yada"
)

// appRootSlot anchors application structures.
const appRootSlot = 34

// Fig10 measures memcached throughput across the four §5.6 request mixes,
// the thread sweep, the three libraries and both replacement locks.
func Fig10(sc Scale) (*Table, error) {
	t := &Table{
		Name: "fig10",
		Header: []string{"engine", "mix", "lock", "threads", "run",
			"ops_per_sec", "hit_rate"},
	}
	engines := []EngineKind{EngineClobber, EnginePMDK, EngineMnemosyne}
	for _, mix := range memcache.AllMixes {
		// §5.6: spinlock for insert-intensive mixes, reader-writer for
		// search-intensive; run both so the crossover is visible.
		for _, lock := range []memcache.LockMode{memcache.LockSpin, memcache.LockRW} {
			for _, ek := range engines {
				for _, threads := range sc.Threads {
					for run := 0; run < sc.Runs; run++ {
						setup, err := NewSetup(ek, sc)
						if err != nil {
							return nil, err
						}
						cache, err := memcache.New(setup.Engine, appRootSlot,
							memcache.Options{Capacity: uint64(sc.MemcachedOps), Lock: lock})
						if err != nil {
							return nil, err
						}
						res, err := memcache.Drive(cache, memcache.DriverConfig{
							Mix:      mix,
							Threads:  threads,
							Ops:      sc.MemcachedOps,
							KeySpace: sc.MemcachedOps / 2,
							KeySize:  16,
							ValSize:  64,
							Seed:     int64(run + 1),
						})
						if err != nil {
							return nil, err
						}
						hits, misses := cache.Hits.Load(), cache.Misses.Load()
						hitRate := 0.0
						if hits+misses > 0 {
							hitRate = float64(hits) / float64(hits+misses)
						}
						t.add(string(ek), mix.Name, lock.String(), threads, run,
							opsPerSec(res.Ops, res.Elapsed), hitRate)
					}
				}
			}
		}
	}
	return t, nil
}

// Fig11 measures vacation across the two table structures (rbtree vs
// avltree) and the queries-per-task sweep, reporting completion time and
// overhead relative to No-log (Figure 11), followed by what each task cost in
// log bytes, flushes and fences — counts that repeat exactly from run to run.
func Fig11(sc Scale) (*Table, error) {
	t := &Table{
		Name: "fig11",
		Header: []string{"engine", "tree", "queries_per_task", "run",
			"elapsed_ms", "overhead_vs_nolog_pct",
			"log_bytes_per_task", "flushes_per_task", "fences_per_task"},
	}
	engines := []EngineKind{EngineNoLog, EngineClobber, EnginePMDK, EngineMnemosyne}
	for _, kind := range []vacation.TreeKind{vacation.RBTreeTables, vacation.AVLTreeTables} {
		for _, q := range []int{2, 4, 6} {
			var base float64
			for _, ek := range engines {
				for run := 0; run < sc.Runs; run++ {
					r, err := runVacation(ek, kind, q, sc, int64(run))
					if err != nil {
						return nil, err
					}
					ms := r.elapsed.Seconds() * 1000
					if ek == EngineNoLog && run == 0 {
						base = ms
					}
					overhead := 0.0
					if base > 0 {
						overhead = (ms - base) / base * 100
					}
					_, bytes := statsPerTx(r.eng, sc.VacationTasks)
					t.add(string(ek), kind.String(), q, run, ms, overhead, bytes,
						perOp(r.pool.Flushes, sc.VacationTasks), perOp(r.pool.Fences, sc.VacationTasks))
				}
			}
		}
	}
	return t, nil
}

// runVacation measures sc.VacationTasks tasks over freshly populated tables:
// the window's wall time and the engine and pool counters it moved.
func runVacation(ek EngineKind, kind vacation.TreeKind, q int, sc Scale, seed int64) (measured, error) {
	setup, err := NewSetup(ek, sc)
	if err != nil {
		return measured{}, err
	}
	v, err := vacation.New(setup.Engine, appRootSlot, kind)
	if err != nil {
		return measured{}, err
	}
	if err := v.Populate(0, sc.VacationRecords, seed+1); err != nil {
		return measured{}, err
	}
	tasks := vacation.GenTasks(sc.VacationTasks, q, sc.VacationRecords, seed+2)
	s0, p0 := setup.Engine.Stats().Snapshot(), setup.Pool.Stats()
	start := time.Now()
	for _, task := range tasks {
		if err := v.RunTask(0, task); err != nil {
			return measured{}, err
		}
	}
	elapsed := time.Since(start)
	return measured{elapsed, setup.Engine.Stats().Snapshot().Sub(s0), setup.Pool.Stats().Sub(p0)}, nil
}

// Fig12 measures yada completion time across the angle-constraint sweep for
// No-log, PMDK and Clobber-NVM (Figure 12), plus mesh statistics matching
// the artifact's screen output (elements processed, final mesh size).
func Fig12(sc Scale) (*Table, error) {
	t := &Table{
		Name: "fig12",
		Header: []string{"engine", "angle_deg", "run", "elapsed_ms",
			"elements_processed", "final_mesh_size"},
	}
	engines := []EngineKind{EngineNoLog, EnginePMDK, EngineClobber}
	for _, angle := range []float64{15, 20, 25, 30} {
		for _, ek := range engines {
			for run := 0; run < sc.Runs; run++ {
				elapsed, steps, size, err := runYada(ek, angle, sc, int64(run))
				if err != nil {
					return nil, err
				}
				t.add(string(ek), angle, run, elapsed, steps, size)
			}
		}
	}
	return t, nil
}

func runYada(ek EngineKind, angle float64, sc Scale, seed int64) (time.Duration, int, int, error) {
	setup, err := NewSetup(ek, sc)
	if err != nil {
		return 0, 0, 0, err
	}
	ms, err := yada.NewMesh(setup.Engine, appRootSlot, 64*sc.YadaPoints+4096)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := ms.Bootstrap(0, yada.GenInput(sc.YadaPoints, 42)); err != nil {
		return 0, 0, 0, err
	}
	if err := ms.SeedQueue(0, angle); err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	steps, err := ms.RefineAll(0, angle, 200*sc.YadaPoints)
	if err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start)
	st, err := ms.MeshStats(0)
	if err != nil {
		return 0, 0, 0, err
	}
	return elapsed, steps, st.Triangles, nil
}
