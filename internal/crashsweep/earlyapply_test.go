package crashsweep

import (
	"fmt"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// earlyApply is a trace sink that breaks an engine's commit order from
// outside it: on the event the engine emits between the fence that makes its
// allocator record durable and the status write that commits it, the sink
// applies the record, so the persistent heap changes on behalf of a
// transaction recovery may still roll back or discard. (The sink runs on the
// committing goroutine, which holds the reservation; the engine's own Apply
// then finds nothing left to do.)
type earlyApply struct {
	engine string
	kind   obs.Kind
	alloc  *pmem.Allocator
}

func (s *earlyApply) Emit(ev obs.Event) {
	if ev.Kind == s.kind && ev.Engine == s.engine {
		s.alloc.Tx(ev.Slot).Apply()
	}
}

// TestSweepConvictsEarlyApply proves the heap audit has teeth for the
// rollback and the redo discipline alike (internal/clobber does the same for
// re-execution): an engine that applies its allocator record before the
// committed status is durable must be caught by the exhaustive sweep, on
// every structure and under every eviction adversary. The cells run one at a
// time and the test is not parallel: the trace sink is process-wide.
func TestSweepConvictsEarlyApply(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	for _, sink := range []*earlyApply{
		// pmdk: after the commit fence, before the idle status.
		{engine: "pmdk", kind: obs.KindFlushFence},
		// mnemosyne: after the redo log's fence, before the commit marker.
		{engine: "mnemosyne", kind: obs.KindLogAppend},
	} {
		spec, err := EngineByName(sink.engine)
		if err != nil {
			t.Fatal(err)
		}
		create, attach := spec.Create, spec.Attach
		spec.Create = func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			sink.alloc = a
			return create(p, a)
		}
		spec.Attach = func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			sink.alloc = a
			return attach(p, a)
		}
		for _, structure := range []string{"hashmap", "bptree", "list"} {
			for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictAll, nvm.EvictRandom} {
				t.Run(fmt.Sprintf("%s/%s/%s", sink.engine, structure, policy), func(t *testing.T) {
					defer obs.SetSink(obs.SetSink(sink))
					res, err := RunSpec(spec, Config{
						Structure: structure, Kind: nvm.CrashAtAny, Policy: policy, Seed: 9,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Ok() {
						t.Fatalf("sweep passed an engine that applies its allocator record before the committed status (%d persist points)", res.PersistPoints)
					}
					t.Logf("%d of %d points convicted, first: %v", len(res.Mismatches), res.PersistPoints, res.Mismatches[0])
				})
			}
		}
	}
}
