package clobber_test

import (
	"fmt"
	"testing"

	"clobbernvm/internal/clobber"
	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// sweepSpec is the default-options engine, every option at its default but
// the sizes: a sweep restores the whole pool image per persist point. made,
// if set, sees every allocator the sweep creates or attaches.
func sweepSpec(made func(*pmem.Allocator)) crashsweep.EngineSpec {
	seen := func(a *pmem.Allocator) {
		if made != nil {
			made(a)
		}
	}
	return crashsweep.EngineSpec{
		Name: "clobber", Style: crashsweep.StyleAtomic,
		Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			seen(a)
			return clobber.Create(p, a, clobber.Options{Slots: 2, ArgsCap: 1024, FreeLogCap: 128})
		},
		Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			seen(a)
			return clobber.Attach(p, a, clobber.Options{})
		},
	}
}

// earlyApply is a trace sink that breaks the commit order from outside the
// engine: on the event the engine emits between its commit fence and the
// committed-status write, it applies the slot's allocator record, so the
// persistent heap changes on behalf of a transaction recovery may still
// re-execute. (The sink runs on the committing goroutine, which holds the
// reservation; the engine's own Apply then finds nothing left to do.)
type earlyApply struct{ alloc *pmem.Allocator }

func (s *earlyApply) Emit(ev obs.Event) {
	if ev.Kind == obs.KindFlushFence && ev.Engine == "clobber" {
		s.alloc.Tx(ev.Slot).Apply()
	}
}

// TestSweepHeapAudit crashes the default-options engine at every persist
// point of an insert / update / delete mix and, besides all-or-nothing
// structure state, requires a clean heap after every recovery: the
// allocator's own audit passes, no block the structure reaches is free or
// unbumped, and the crash leaked at most one refill chunk.
func TestSweepHeapAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	for _, structure := range []string{"hashmap", "bptree", "list"} {
		for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictAll, nvm.EvictRandom} {
			t.Run(fmt.Sprintf("%s/%s", structure, policy), func(t *testing.T) {
				t.Parallel()
				res, err := crashsweep.RunSpec(sweepSpec(nil), crashsweep.Config{
					Structure: structure, Kind: nvm.CrashAtAny, Policy: policy, Seed: 9, LiveOps: 6,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Crashes == 0 || res.Crashes != int(res.PersistPoints) {
					t.Fatalf("%d crashes over %d persist points", res.Crashes, res.PersistPoints)
				}
				for i, m := range res.Mismatches {
					if i == 5 {
						t.Errorf("... %d more mismatches", len(res.Mismatches)-5)
						break
					}
					t.Errorf("mismatch: %v", m)
				}
				if res.Reexecuted == 0 {
					t.Error("no crash point led to a re-execution")
				}
			})
		}
	}
}

// TestSweepConvictsEarlyApply proves the audit has teeth: an engine whose
// allocator record is applied before the committed status is durable touches
// the persistent heap on behalf of a transaction recovery will re-execute,
// and the sweep must catch it. Not parallel: the trace sink is process-wide.
func TestSweepConvictsEarlyApply(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	sink := &earlyApply{}
	defer obs.SetSink(obs.SetSink(sink))
	res, err := crashsweep.RunSpec(sweepSpec(func(a *pmem.Allocator) { sink.alloc = a }), crashsweep.Config{
		Structure: "list", Kind: nvm.CrashAtAny, Policy: nvm.EvictAll, Seed: 9, LiveOps: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatalf("sweep passed an engine that applies its allocator record before the committed status (%d persist points)", res.PersistPoints)
	}
	t.Logf("%d of %d points convicted, first: %v", len(res.Mismatches), res.PersistPoints, res.Mismatches[0])
}
