package crashsweep

import (
	"fmt"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

func TestSweepClobberList(t *testing.T) {
	res, err := Run(Config{
		Engine: "clobber", Structure: "list",
		Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PersistPoints == 0 {
		t.Fatal("sweep found no persist points")
	}
	if res.Crashes != int(res.PersistPoints) {
		t.Fatalf("crashes = %d, want one per persist point (%d)", res.Crashes, res.PersistPoints)
	}
	if !res.Ok() {
		t.Fatalf("sweep found %d mismatches, first: %v", len(res.Mismatches), res.Mismatches[0])
	}
	if res.Quarantined != 0 {
		t.Fatalf("pure power failures quarantined %d slots", res.Quarantined)
	}
	t.Logf("clobber/list: %d persist points, %d recovered (%d re-executed)",
		res.PersistPoints, res.Recovered, res.Reexecuted)
}

func TestSweepPointCountDeterministic(t *testing.T) {
	cfg := Config{Engine: "pmdk", Structure: "list", Kind: nvm.CrashAtStore, Seed: 3}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PersistPoints != b.PersistPoints || a.Crashes != b.Crashes {
		t.Fatalf("non-deterministic sweep: %d/%d points, %d/%d crashes",
			a.PersistPoints, b.PersistPoints, a.Crashes, b.Crashes)
	}
}

func TestSweepMeterStyle(t *testing.T) {
	res, err := Run(Config{
		Engine: "ido", Structure: "list",
		Kind: nvm.CrashAtAny, Policy: nvm.EvictTorn, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PersistPoints == 0 || res.Crashes != int(res.PersistPoints) {
		t.Fatalf("meter sweep: %d points, %d crashes", res.PersistPoints, res.Crashes)
	}
	if !res.Ok() {
		t.Fatalf("crash simulator self-audit failed: %v", res.Mismatches[0])
	}
}

// naiveEngine stores in place with no logging, flushing or recovery: the
// textbook crash-unsafe baseline. The sweep must catch it.
type naiveEngine struct {
	pool  *nvm.Pool
	alloc *pmem.Allocator
	reg   txn.Registry
	stats txn.Stats
}

var _ pds.Engine = (*naiveEngine)(nil)

func (n *naiveEngine) Name() string                        { return "naive" }
func (n *naiveEngine) Register(name string, fn txn.TxFunc) { n.reg.Register(name, fn) }
func (n *naiveEngine) Stats() *txn.Stats                   { return &n.stats }
func (n *naiveEngine) Pool() *nvm.Pool                     { return n.pool }
func (n *naiveEngine) Recover() (int, error)               { return 0, nil }
func (n *naiveEngine) RunRO(slot int, fn txn.ROFunc) error { return fn(naiveMem{n}) }
func (n *naiveEngine) Run(slot int, name string, args *txn.Args) error {
	fn, err := n.reg.Lookup(name)
	if err != nil {
		return err
	}
	if args == nil {
		args = txn.NoArgs
	}
	if err := fn(naiveMem{n}, args); err != nil {
		return err
	}
	n.stats.Committed.Add(1)
	return nil
}

type naiveMem struct{ n *naiveEngine }

var _ txn.Mem = naiveMem{}

func (m naiveMem) Load(addr uint64, buf []byte)        { m.n.pool.Load(addr, buf) }
func (m naiveMem) Load64(addr uint64) uint64           { return m.n.pool.Load64(addr) }
func (m naiveMem) Store(addr uint64, data []byte)      { m.n.pool.Store(addr, data) }
func (m naiveMem) Store64(addr uint64, v uint64)       { m.n.pool.Store64(addr, v) }
func (m naiveMem) Alloc(size uint64) (txn.Addr, error) { return m.n.alloc.Alloc(0, size) }
func (m naiveMem) Free(addr txn.Addr) error            { return m.n.alloc.Free(addr) }

func TestSweepDetectsNonAtomicEngine(t *testing.T) {
	spec := EngineSpec{
		Name: "naive", Style: StyleAtomic,
		Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return &naiveEngine{pool: p, alloc: a}, nil
		},
		Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return &naiveEngine{pool: p, alloc: a}, nil
		},
	}
	res, err := RunSpec(spec, Config{
		Structure: "list", Kind: nvm.CrashAtAny, Policy: nvm.EvictNone, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatal("sweep failed to detect a crash-unsafe engine")
	}
	t.Logf("naive engine: %d/%d points flagged", len(res.Mismatches), res.PersistPoints)
}

// TestSweepBPTreeRangeEdits sweeps the three baseline engines over the
// workloads that reach the B+tree's range-shaped node edits (internal/clobber
// sweeps its own engine over the same two): 16 seeds, so the first live
// insert splits the full root leaf and builds a root, and the two-level
// script — a 15-slot shift, a split under a non-full parent, a delete at the
// front of a full leaf. Every persist point, three adversaries, heap audited.
func TestSweepBPTreeRangeEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	cells := []struct {
		name string
		cfg  Config
	}{
		{"rootsplit", Config{Structure: "bptree", SeedOps: 16, PoolSize: 1 << 22}},
		{"twolevel", Config{Structure: "bptree", Script: BPTreeTwoLevel(), PoolSize: 1 << 22}},
	}
	// Recovery scans the whole data log at every point: keep it small.
	for _, spec := range SpecsSized(sweepSlots, 64<<10) {
		if spec.Name != "pmdk" && spec.Name != "mnemosyne" && spec.Name != "atlas" {
			continue
		}
		for _, cell := range cells {
			for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictAll, nvm.EvictRandom} {
				t.Run(fmt.Sprintf("%s/%s/%s", spec.Name, cell.name, policy), func(t *testing.T) {
					t.Parallel()
					cfg := cell.cfg
					cfg.Kind, cfg.Policy, cfg.Seed = nvm.CrashAtAny, policy, 9
					res, err := RunSpec(spec, cfg)
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
					if res.Recovered == 0 {
						t.Error("no crash point needed recovery")
					}
				})
			}
		}
	}
}
