package harness

import (
	"fmt"
	"time"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/ycsb"
)

// Extension experiments beyond the paper's figures: a mixed-workload YCSB
// sweep (the paper only measures the Load phase) and a fence-cost ablation
// probing the premise that ordering fences, not flushes, separate the
// engines.

// ExtYCSBMixes measures throughput for YCSB A (50/50 read/update), B (95/5)
// and C (read-only) over the loaded structures, per engine. Redo's read
// interposition makes it fall behind as the read fraction grows — the §5.6
// search-intensive observation, reproduced on the raw structures.
func ExtYCSBMixes(sc Scale) (*Table, error) {
	t := &Table{
		Name:   "ext-ycsb",
		Header: []string{"engine", "structure", "workload", "ops_per_sec", "read_checks_per_op"},
	}
	engines := []EngineKind{EngineClobber, EnginePMDK, EngineMnemosyne}
	workloads := []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC,
		ycsb.WorkloadARMW, ycsb.WorkloadBRMW}
	for _, st := range []StructureKind{StructHashMap, StructRBTree} {
		for _, ek := range engines {
			for _, w := range workloads {
				setup, err := NewSetup(ek, sc)
				if err != nil {
					return nil, err
				}
				store, err := OpenStructure(st, setup.Engine)
				if err != nil {
					return nil, err
				}
				if err := populate(store, st, sc.Entries, 1); err != nil {
					return nil, err
				}
				g := ycsb.NewGenerator(w, sc.Entries, KeySize(st), ValueSize, 7)
				s0 := setup.Engine.Stats().Snapshot()
				start := time.Now()
				for i := 0; i < sc.Ops; i++ {
					op := g.Next()
					switch op.Kind {
					case ycsb.OpRead:
						if _, _, err := store.Get(0, op.Key); err != nil {
							return nil, err
						}
					case ycsb.OpReadModifyWrite:
						if _, _, err := store.Get(0, op.Key); err != nil {
							return nil, err
						}
						if err := store.Insert(0, op.Key, op.Value); err != nil {
							return nil, err
						}
					default:
						if err := store.Insert(0, op.Key, op.Value); err != nil {
							return nil, err
						}
					}
				}
				elapsed := time.Since(start)
				d := setup.Engine.Stats().Snapshot().Sub(s0)
				t.add(string(ek), string(st), w.Name,
					opsPerSec(sc.Ops, elapsed),
					float64(d.ReadChecks)/float64(sc.Ops))
			}
		}
	}
	return t, nil
}

// ExtFenceAblation sweeps the simulated fence latency and reports the
// clobber-vs-PMDK speedup at each point, together with the per-transaction
// fence counts and the persistence wait they and the flushes add up to under
// the cost model (flushes × FlushNS + fences × FenceNS, which repeats exactly
// from run to run). It decomposes clobber logging's advantage into its two
// ingredients: with free fences what remains is log *volume* (fewer entries
// to build, flush and store), while as fences grow expensive the ratio of the
// two waits converges toward the fence-*count* ratio — the
// ordering-instruction effect §2.1 describes. Clobber-NVM waits less at every
// point of the sweep, for shifting reasons; whether that shows as throughput
// depends on what the host's CPU adds on top, which the speedup column
// reports as measured.
func ExtFenceAblation(sc Scale) (*Table, error) {
	t := &Table{
		Name: "ext-fence-ablation",
		Header: []string{"fence_ns", "clobber_ops_per_sec", "pmdk_ops_per_sec", "speedup",
			"clobber_fences_per_tx", "pmdk_fences_per_tx",
			"clobber_wait_ns_per_tx", "pmdk_wait_ns_per_tx"},
	}
	for _, fence := range []int{0, 150, 600, 2400} {
		scl := sc
		scl.Latency = nvm.Latency{FlushNS: sc.Latency.FlushNS, FenceNS: fence}
		var tput, fences, wait [2]float64
		for i, ek := range []EngineKind{EngineClobber, EnginePMDK} {
			r, err := runInserts(ek, StructHashMap, scl, 1)
			if err != nil {
				return nil, err
			}
			tput[i] = opsPerSec(scl.Ops, r.elapsed)
			fences[i] = perOp(r.pool.Fences, scl.Ops)
			wait[i] = perOp(r.pool.Flushes*int64(scl.Latency.FlushNS)+r.pool.Fences*int64(fence), scl.Ops)
		}
		t.add(fmt.Sprint(fence), tput[0], tput[1], tput[0]/tput[1],
			fences[0], fences[1], wait[0], wait[1])
	}
	return t, nil
}
