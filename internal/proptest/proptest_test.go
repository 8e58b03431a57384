package proptest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/undolog"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Engine: "clobber", Structure: "rbtree", Seed: 42, Ops: 30,
			Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom, Point: 17, Threads: 1},
		{Engine: "pmdk", Structure: "hashmap", Seed: -7, Ops: 12,
			Kind: nvm.CrashAtFence, Policy: nvm.EvictTorn, Point: 0, Threads: 4},
		{Engine: "atlas", Structure: "list", Seed: 3, Ops: 8, Keep: []int{0, 2, 7},
			Kind: nvm.CrashAtStore, Policy: nvm.EvictNone, Point: 5, Threads: 1},
		{Engine: "clobber", Structure: "hashmap", Seed: 11, Ops: 24,
			Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom, Point: 40, Threads: 4,
			GroupCommit: true},
	}
	for _, want := range specs {
		line := want.String()
		got, err := Parse(line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		if want.Threads < 1 {
			want.Threads = 1
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %q:\n got %+v\nwant %+v", line, got, want)
		}
	}
	for _, bad := range []string{"", "engine=clobber", "engine=x structure=y ops=zero", "nonsense"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted a malformed spec", bad)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Engine: "clobber", Structure: "list", Seed: 99, Ops: 50}
	a, b := Generate(spec), Generate(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different sequences")
	}
	spec2 := spec
	spec2.Seed = 100
	if reflect.DeepEqual(a, Generate(spec2)) {
		t.Fatal("different seeds generated identical sequences")
	}
	spec.Keep = []int{1, 3, 4}
	kept := Materialize(spec)
	if len(kept) != 3 || kept[0] != a[1] || kept[1] != a[3] || kept[2] != a[4] {
		t.Fatalf("Materialize did not honour Keep: %v", kept)
	}
}

// TestTortureAllCells is the headline budget: >= 200 seeded sequences across
// every atomic engine x every structure, each with sampled crash points, all
// consistent.
func TestTortureAllCells(t *testing.T) {
	engines := Engines()
	structures := Structures()
	const seedsPerCell = 9 // 4 engines x 6 structures x 9 = 216 sequences
	sequences := 0
	for _, engine := range engines {
		for _, structure := range structures {
			engine, structure := engine, structure
			t.Run(engine+"/"+structure, func(t *testing.T) {
				t.Parallel()
				for seed := int64(0); seed < seedsPerCell; seed++ {
					spec := Spec{
						Engine: engine, Structure: structure,
						Seed: seed, Ops: 10,
						Kind:   nvm.CrashKind(seed % 4), // rotate store/flush/fence/any
						Policy: nvm.EvictPolicy(seed % 4),
					}
					es, err := engineSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					f, err := Torture(es, spec, 2)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if f != nil {
						t.Fatalf("seed %d: %v", seed, f.Error())
					}
				}
			})
			sequences += seedsPerCell
		}
	}
	if sequences < 200 {
		t.Fatalf("only %d sequences scheduled, want >= 200", sequences)
	}
	t.Logf("%d torture sequences across %d engines x %d structures",
		sequences, len(engines), len(structures))
}

// skipRecovery wraps a real engine but skips its undo pass at recovery —
// the injected recovery bug the torture must catch. Embedding the interface
// hides the inner engine's RecoverReport, so the harness sees a plain
// Recover that silently does nothing.
type skipRecovery struct {
	pds.Engine
}

func (s skipRecovery) Recover() (int, error) { return 0, nil }

func brokenEngine() crashsweep.EngineSpec {
	return crashsweep.EngineSpec{
		Name: "pmdk-skip", Style: crashsweep.StyleAtomic,
		Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return undolog.Create(p, a, undolog.Options{
				Slots: 2, DataLogCap: 1 << 20, FreeLogCap: 128,
			})
		},
		Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			inner, err := undolog.Attach(p, a, undolog.Options{})
			if err != nil {
				return nil, err
			}
			return skipRecovery{inner}, nil
		},
	}
}

// TestInjectedBugCaughtAndShrunk: the torture must catch the skipped undo
// pass, shrink the reproducer to <= 10 operations, and the printed replay
// spec must re-trigger the failure.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	es := brokenEngine()
	var failure *Failure
	for seed := int64(0); seed < 50 && failure == nil; seed++ {
		spec := Spec{
			Engine: es.Name, Structure: "rbtree",
			Seed: seed, Ops: 30,
			Kind: nvm.CrashAtAny, Policy: nvm.EvictAll, // all dirty lines persist: torn state guaranteed visible
		}
		f, err := Torture(es, spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		failure = f
	}
	if failure == nil {
		t.Fatal("torture did not catch the skipped undo pass in 50 seeds")
	}
	t.Logf("caught: %s", failure.Detail)

	min, evals, err := Shrink(es, *failure)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if min.Spec.Keep == nil {
		t.Fatal("shrunk spec has no Keep set")
	}
	if len(min.Spec.Keep) > 10 {
		t.Fatalf("shrunk reproducer has %d ops, want <= 10 (%v)", len(min.Spec.Keep), min.Spec)
	}
	t.Logf("shrunk to %d op(s) in %d evaluations: %s", len(min.Spec.Keep), evals, min.Spec)

	// The one-line replay command must carry the whole failure: parse the
	// printed spec back and re-run it — same divergence.
	cmd := min.ReplayCommand()
	if !strings.HasPrefix(cmd, `go run ./cmd/torture -replay "`) {
		t.Fatalf("replay command malformed: %s", cmd)
	}
	reparsed, err := Parse(min.Spec.String())
	if err != nil {
		t.Fatalf("printed spec does not parse: %v", err)
	}
	again, err := RunSpec(es, reparsed)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil {
		t.Fatalf("replayed spec %q did not re-trigger the failure", min.Spec)
	}
	t.Logf("replay re-triggered: %s", again.Detail)
}

// TestHealthyEnginePassesWhereBrokenFails pins the oracle's discrimination:
// the exact spec that convicts the broken engine passes on the real one.
func TestHealthyEnginePassesWhereBrokenFails(t *testing.T) {
	// rbtree: rebalancing spreads an op across many clobbers, so a skipped
	// undo pass reliably leaves a torn state. (The list's single-clobber
	// design is nearly undo-free by construction — crashing it mid-op
	// mostly lands in consistent states even with recovery disabled.)
	es := brokenEngine()
	spec := Spec{
		Engine: es.Name, Structure: "rbtree",
		Seed: 1, Ops: 20, Kind: nvm.CrashAtAny, Policy: nvm.EvictAll,
	}
	var failing *Failure
	for seed := int64(0); seed < 50 && failing == nil; seed++ {
		spec.Seed = seed
		f, err := Torture(es, spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		failing = f
	}
	if failing == nil {
		t.Fatal("no failing point found for the broken engine")
	}
	healthy := failing.Spec
	healthy.Engine = "pmdk"
	hes, err := engineSpec(healthy)
	if err != nil {
		t.Fatal(err)
	}
	f, err := RunSpec(hes, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("healthy pmdk failed the broken engine's reproducer: %v", f.Error())
	}
}

// TestConcurrentTorture runs the concurrent-history oracle against healthy
// engines: per-thread streams over disjoint key spaces, warm-up on the fast
// path, a crash mid-flight, and per-worker linearization checks.
func TestConcurrentTorture(t *testing.T) {
	cells := []struct {
		engine, structure string
	}{
		{"clobber", "hashmap"},
		{"clobber", "bptree"},
		{"pmdk", "hashmap"},
		{"atlas", "skiplist"},
	}
	for _, c := range cells {
		c := c
		t.Run(c.engine+"/"+c.structure, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				spec := Spec{
					Engine: c.engine, Structure: c.structure,
					Seed: seed, Ops: 20, Threads: 3,
					Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom,
				}
				es, err := engineSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				f, err := Torture(es, spec, 2)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if f != nil {
					t.Fatalf("seed %d: %v", seed, f.Error())
				}
			}
		})
	}
}

// TestConcurrentTortureGroupCommit reruns the concurrent oracle with the
// epoch group-commit coordinator enabled: crashes now land inside commit
// epochs shared by several worker streams (a leader's fence panic must
// propagate the power failure to every enlisted follower), and recovery must
// still produce a per-worker linearizable history.
func TestConcurrentTortureGroupCommit(t *testing.T) {
	cells := []struct {
		engine, structure string
	}{
		{"clobber", "hashmap"},
		{"pmdk", "rbtree"},
		{"mnemosyne", "hashmap"},
		{"atlas", "skiplist"},
	}
	for _, c := range cells {
		c := c
		t.Run(c.engine+"/"+c.structure, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				spec := Spec{
					Engine: c.engine, Structure: c.structure,
					Seed: seed, Ops: 20, Threads: 3,
					Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom,
					GroupCommit: true,
				}
				es, err := engineSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				f, err := Torture(es, spec, 2)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if f != nil {
					t.Fatalf("seed %d: %v", seed, f.Error())
				}
			}
		})
	}
}

// TestConcurrentCatchesBrokenEngine: the concurrent oracle must also convict
// the skipped undo pass.
func TestConcurrentCatchesBrokenEngine(t *testing.T) {
	es := brokenEngine()
	es.Create = func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
		return undolog.Create(p, a, undolog.Options{
			Slots: 4, DataLogCap: 1 << 20, FreeLogCap: 128,
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		spec := Spec{
			Engine: es.Name, Structure: "rbtree",
			Seed: seed, Ops: 16, Threads: 2,
			Kind: nvm.CrashAtAny, Policy: nvm.EvictAll,
		}
		f, err := Torture(es, spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		if f != nil {
			t.Logf("caught at seed %d: %s", seed, f.Detail)
			if !strings.Contains(f.Error(), "-replay") {
				t.Fatalf("failure does not print a replay command: %s", f.Error())
			}
			return
		}
	}
	t.Fatal("concurrent torture did not catch the skipped undo pass in 30 seeds")
}

// TestLFHashMapProptest runs the differential crash oracle on the lock-free
// hashmap: sequential and concurrent cells on both clobber log formats,
// with the torn-line adversary in the mix so sampled crashes land on
// announcement lines too.
func TestLFHashMapProptest(t *testing.T) {
	cells := []struct {
		engine  string
		threads int
		policy  nvm.EvictPolicy
	}{
		{"clobber", 1, nvm.EvictRandom},
		{"clobber", 1, nvm.EvictTorn},
		{"clobber-line", 1, nvm.EvictTorn},
		{"clobber", 3, nvm.EvictRandom},
		{"clobber", 3, nvm.EvictTorn},
		{"clobber-line", 3, nvm.EvictRandom},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s/threads=%d/%s", c.engine, c.threads, c.policy), func(t *testing.T) {
			t.Parallel()
			seeds := int64(3)
			if testing.Short() {
				seeds = 1
			}
			for seed := int64(0); seed < seeds; seed++ {
				spec := Spec{
					Engine: c.engine, Structure: "lfhashmap",
					Seed: seed, Ops: 20, Threads: c.threads,
					Kind: nvm.CrashAtAny, Policy: c.policy,
				}
				es, err := engineSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				f, err := Torture(es, spec, 2)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if f != nil {
					t.Fatalf("seed %d: %v", seed, f.Error())
				}
			}
		})
	}
}
