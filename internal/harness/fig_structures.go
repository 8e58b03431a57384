package harness

import (
	"errors"
	"sync"
	"time"

	"clobbernvm/internal/clobber"
	"clobbernvm/internal/ido"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
	"clobbernvm/internal/undolog"
	"clobbernvm/internal/ycsb"
)

// populate loads n entries single-threaded (the unmeasured YCSB load
// prefix).
func populate(s pds.Store, kind StructureKind, n int, seed int64) error {
	g := ycsb.NewGenerator(ycsb.WorkloadLoad, n, KeySize(kind), ValueSize, seed)
	for i := 0; i < n; i++ {
		op := g.Next()
		if err := s.Insert(0, op.Key, op.Value); err != nil {
			return err
		}
	}
	return nil
}

// measureInsertThroughput inserts ops fresh keys across threads and returns
// the elapsed time. Keys are partitioned so threads never collide on the
// same key (the YCSB-Load pattern).
func measureInsertThroughput(s pds.Store, kind StructureKind, base, ops, threads int) (time.Duration, error) {
	perThread := ops / threads
	if perThread == 0 {
		perThread = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, threads)
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			g := ycsb.NewGenerator(ycsb.WorkloadLoad, 0, KeySize(kind), ValueSize, int64(t)*7919)
			for i := 0; i < perThread; i++ {
				key := g.Key(base + t*perThread + i)
				op := g.Next()
				if err := s.Insert(t, key, op.Value); err != nil {
					errs[t] = err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// measured is one measured window of a figure: its wall time and the engine and
// pool counters it moved.
type measured struct {
	elapsed time.Duration
	eng     txn.StatsSnapshot
	pool    nvm.StatsSnapshot
}

// runInserts provisions a fresh setup of the engine, loads sc.Entries entries
// into the structure, and measures sc.Ops inserts of fresh keys across
// threads.
func runInserts(ek EngineKind, st StructureKind, sc Scale, threads int) (measured, error) {
	setup, err := NewSetup(ek, sc)
	if err != nil {
		return measured{}, err
	}
	store, err := OpenStructure(st, setup.Engine)
	if err != nil {
		return measured{}, err
	}
	if err := populate(store, st, sc.Entries, 1); err != nil {
		return measured{}, err
	}
	s0, p0 := setup.Engine.Stats().Snapshot(), setup.Pool.Stats()
	elapsed, err := measureInsertThroughput(store, st, sc.Entries, sc.Ops, threads)
	if err != nil {
		return measured{}, err
	}
	return measured{elapsed, setup.Engine.Stats().Snapshot().Sub(s0), setup.Pool.Stats().Sub(p0)}, nil
}

// perOp divides a counter delta by an operation count.
func perOp(n int64, ops int) float64 { return float64(n) / float64(ops) }

// Fig6 measures data-structure insert throughput for the four libraries
// across the thread sweep (Figure 6). Output columns mirror the artifact's
// fig6.csv — engine, structure, threads, run, value size, throughput (ops/s)
// — followed by what each insert cost in log bytes, flushes and fences: the
// counts repeat exactly from run to run, the throughput they explain does
// not.
func Fig6(sc Scale) (*Table, error) {
	t := &Table{
		Name: "fig6",
		Header: []string{"engine", "structure", "threads", "run", "valuesize", "ops_per_sec",
			"log_bytes_per_tx", "flushes_per_tx", "fences_per_tx"},
	}
	engines := []EngineKind{EngineClobber, EnginePMDK, EngineMnemosyne, EngineAtlas}
	for _, st := range AllStructures {
		for _, ek := range engines {
			for _, threads := range sc.Threads {
				for run := 0; run < sc.Runs; run++ {
					r, err := runInserts(ek, st, sc, threads)
					if err != nil {
						return nil, err
					}
					_, bytes := statsPerTx(r.eng, sc.Ops)
					t.add(string(ek), string(st), threads, run, ValueSize,
						opsPerSec(sc.Ops, r.elapsed), bytes,
						perOp(r.pool.Flushes, sc.Ops), perOp(r.pool.Fences, sc.Ops))
				}
			}
		}
	}
	return t, nil
}

// Fig7 measures the logging-strategy breakdown (Figure 7): No-log, v_log
// only, clobber_log only, full Clobber-NVM, and PMDK full undo, single
// threaded — throughput plus log entries and bytes per transaction.
func Fig7(sc Scale) (*Table, error) {
	t := &Table{
		Name: "fig7",
		Header: []string{"variant", "structure", "ops_per_sec",
			"log_entries_per_tx", "log_bytes_per_tx", "flushes_per_tx", "fences_per_tx"},
	}
	variants := []EngineKind{EngineNoLog, EngineClobberVLogOnly, EngineClobberCLogOnly,
		EngineClobber, EnginePMDK}
	for _, st := range AllStructures {
		for _, ek := range variants {
			r, err := runInserts(ek, st, sc, 1)
			if err != nil {
				return nil, err
			}
			entries, bytes := statsPerTx(r.eng, sc.Ops)
			t.add(string(ek), string(st), opsPerSec(sc.Ops, r.elapsed),
				entries, bytes,
				perOp(r.pool.Flushes, sc.Ops), perOp(r.pool.Fences, sc.Ops))
		}
	}
	return t, nil
}

// Fig8 compares the recovery-via-resumption family's log traffic per
// transaction (Figure 8, extended with JUSTDO from §6) by replaying the
// same insert workload through Clobber-NVM, the iDO meter and the JUSTDO
// meter.
func Fig8(sc Scale) (*Table, error) {
	t := &Table{
		Name:   "fig8",
		Header: []string{"system", "structure", "log_entries_per_tx", "log_bytes_per_tx"},
	}
	for _, st := range AllStructures {
		// Clobber.
		r, err := runInserts(EngineClobber, st, sc, 1)
		if err != nil {
			return nil, err
		}
		ce, cb := statsPerTx(r.eng, sc.Ops)
		t.add("clobber", string(st), ce, cb)

		// The instrumentation meters over identical fresh pools/workloads.
		for _, sys := range []string{"ido", "justdo"} {
			pool := nvm.New(sc.PoolBytes, nvm.WithLatency(sc.Latency))
			alloc, err := pmem.Create(pool)
			if err != nil {
				return nil, err
			}
			var eng pds.Engine
			var stats *txn.Stats
			if sys == "ido" {
				m := ido.New(pool, alloc)
				eng, stats = meterEngine{m, pool}, m.Stats()
			} else {
				m := ido.NewJustDo(pool, alloc)
				eng, stats = m, m.Stats()
			}
			mstore, err := OpenStructure(st, eng)
			if err != nil {
				return nil, err
			}
			if err := populate(mstore, st, sc.Entries, 1); err != nil {
				return nil, err
			}
			m0 := stats.Snapshot()
			if _, err := measureInsertThroughput(mstore, st, sc.Entries, sc.Ops, 1); err != nil {
				return nil, err
			}
			ie, ib := statsPerTx(stats.Snapshot().Sub(m0), sc.Ops)
			t.add(sys, string(st), ie, ib)
		}
	}
	return t, nil
}

// meterEngine adapts the iDO meter (which has no Pool accessor of its own)
// to the pds.Engine interface.
type meterEngine struct {
	*ido.Meter
	pool *nvm.Pool
}

func (m meterEngine) Pool() *nvm.Pool { return m.pool }

// Fig9 measures recovery latency after a crash mid-transaction, Clobber vs
// PMDK (Figure 9): pool reattach + log application (+ re-execution for
// clobber), per structure.
func Fig9(sc Scale) (*Table, error) {
	t := &Table{
		Name:   "fig9",
		Header: []string{"engine", "structure", "run", "recovery_ms", "recovered_tx"},
	}
	for _, st := range AllStructures {
		for _, ek := range []EngineKind{EngineClobber, EnginePMDK} {
			for run := 0; run < sc.Runs; run++ {
				ms, recovered, err := MeasureRecovery(ek, st, sc, int64(run))
				if err != nil {
					return nil, err
				}
				t.add(string(ek), string(st), run, ms, recovered)
			}
		}
	}
	return t, nil
}

// MeasureRecovery performs one crash-and-recover cycle: populate, crash at
// a seeded point inside an insert, power-fail the pool, then time the
// reopen + recovery path (the Figure 9 measurement). It returns the timed
// duration and how many transactions recovery completed.
func MeasureRecovery(ek EngineKind, st StructureKind, sc Scale, seed int64) (time.Duration, int, error) {
	pool := nvm.New(sc.PoolBytes, nvm.WithLatency(sc.Latency),
		nvm.WithEvictProbability(0.5), nvm.WithSeed(seed+1))
	alloc, err := pmem.Create(pool)
	if err != nil {
		return 0, 0, err
	}
	eng, err := BuildEngine(ek, pool, alloc, sc.maxSlots(), sc.LineLog)
	if err != nil {
		return 0, 0, err
	}
	store, err := OpenStructure(st, eng)
	if err != nil {
		return 0, 0, err
	}
	if err := populate(store, st, sc.Entries, 1); err != nil {
		return 0, 0, err
	}

	// Crash at a random point inside one more insert.
	g := ycsb.NewGenerator(ycsb.WorkloadLoad, 0, KeySize(st), ValueSize, seed)
	pool.ScheduleCrash(5 + 11*seed%50)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok || !errors.Is(err, nvm.ErrCrash) {
					panic(r)
				}
			}
		}()
		_ = store.Insert(0, g.Key(sc.Entries+int(seed)), g.Next().Value)
	}()
	pool.Crash()

	// Timed region: reopen and recover (the paper's recovery overhead).
	start := time.Now()
	alloc2, err := pmem.Attach(pool)
	if err != nil {
		return 0, 0, err
	}
	var eng2 pds.Engine
	switch ek {
	case EnginePMDK:
		eng2, err = undolog.Attach(pool, alloc2, undolog.Options{})
	default:
		eng2, err = clobber.Attach(pool, alloc2, clobber.Options{})
	}
	if err != nil {
		return 0, 0, err
	}
	if _, err := OpenStructure(st, eng2); err != nil {
		return 0, 0, err
	}
	n, err := eng2.(txn.Engine).Recover()
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), n, nil
}
