// Package crashsweep implements exhaustive persist-point fault injection:
// run a workload once to count persist points (stores, flushes, fences),
// then re-run it once per point with a crash scheduled exactly there,
// recover, and audit the surviving structure against a volatile model. A
// sweep that passes proves every single persistence-ordering window in the
// workload is crash-consistent — the strongest form of the paper's §5.6
// recovery validation this simulator can express.
package crashsweep

import (
	"fmt"

	"clobbernvm/internal/atlas"
	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/ido"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/redolog"
	"clobbernvm/internal/undolog"
)

// Style classifies what a sweep can audit about an engine.
type Style int

const (
	// StyleAtomic engines promise failure atomicity: the sweep audits
	// all-or-nothing structure state after recovery.
	StyleAtomic Style = iota
	// StyleMeter engines (ido, justdo) are measurement artifacts with no
	// recovery machinery; the sweep audits only the crash simulator itself
	// (forced full eviction must reproduce the coherent state).
	StyleMeter
)

// EngineSpec describes how the sweeper creates and reopens one engine.
type EngineSpec struct {
	Name   string
	Style  Style
	Create func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error)
	Attach func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error)
}

// sweepSlots keeps per-slot log footprints small: sweeps restore the whole
// pool image per persist point, so pool (and therefore slot) size is the
// dominant per-point cost.
const sweepSlots = 2

// Specs returns the engine roster the sweep covers: the four
// failure-atomicity engines plus the iDO and JUSTDO meters.
func Specs() []EngineSpec {
	return SpecsSized(sweepSlots, 1<<20)
}

// SpecsSized returns the roster with explicit per-engine slot counts and
// data-log capacities. Harnesses that restore or snapshot whole pool images
// per crash point (the sweep, proptest) use small logs so each iteration
// stays cheap; throughput benchmarks size them up.
//
// Each atomic engine appears twice: as created by default and, named with a
// "-line" suffix, with its data log in write-combined line mode, so every
// sweep/proptest/chaos cell can run against the streaming persistence path.
// Attach stays flagless — the log magic records the mode.
func SpecsSized(slots int, dataLogCap uint64) []EngineSpec {
	var specs []EngineSpec
	for _, line := range []bool{false, true} {
		o := chassis.Options{Slots: slots, DataLogCap: dataLogCap, FreeLogCap: 128, LineLog: line}
		suffix := ""
		if line {
			suffix = "-line"
		}
		specs = append(specs,
			atomicSpec("clobber"+suffix, o, createClobber, attachClobber),
			atomicSpec("pmdk"+suffix, o, undolog.Create, undolog.Attach),
			atomicSpec("mnemosyne"+suffix, o, redolog.Create, redolog.Attach),
			atomicSpec("atlas"+suffix, o, atlas.Create, atlas.Attach))
	}
	return append(specs,
		EngineSpec{
			Name: "ido", Style: StyleMeter,
			Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
				return ido.New(p, a), nil
			},
			Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
				return ido.New(p, a), nil
			},
		},
		EngineSpec{
			Name: "justdo", Style: StyleMeter,
			Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
				return ido.NewJustDo(p, a), nil
			},
			Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
				return ido.NewJustDo(p, a), nil
			},
		})
}

// atomicSpec is the roster entry of a failure-atomicity engine created with
// o and attached with the zero options.
func atomicSpec[E pds.Engine](name string, o chassis.Options, create, attach func(*nvm.Pool, *pmem.Allocator, chassis.Options) (E, error)) EngineSpec {
	return EngineSpec{
		Name: name, Style: StyleAtomic,
		Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return create(p, a, o)
		},
		Attach: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			return attach(p, a, chassis.Options{})
		},
	}
}

func createClobber(p *nvm.Pool, a *pmem.Allocator, o chassis.Options) (*clobber.Engine, error) {
	return clobber.Create(p, a, clobber.Options{Options: o, ArgsCap: 1024})
}

func attachClobber(p *nvm.Pool, a *pmem.Allocator, _ chassis.Options) (*clobber.Engine, error) {
	return clobber.Attach(p, a, clobber.Options{})
}

// EngineByName returns the spec for name, or an error listing the roster.
func EngineByName(name string) (EngineSpec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return EngineSpec{}, fmt.Errorf("crashsweep: unknown engine %q (want clobber|pmdk|mnemosyne|atlas|clobber-line|pmdk-line|mnemosyne-line|atlas-line|ido|justdo)", name)
}

// StructureKinds lists the structures OpenStructure accepts on every engine.
// The lock-free hashmap is opened by name too but stays off this list: its
// persistence protocol is engine-independent (it only needs the allocator),
// so sweeping it across every engine would re-run identical cells; its sweep
// and proptest cells name it explicitly on the clobber variants.
func StructureKinds() []string {
	return []string{"hashmap", "skiplist", "rbtree", "bptree", "avltree", "list"}
}

// OpenStructure opens (creating if absent) the named structure anchored at
// rootSlot.
func OpenStructure(kind string, eng pds.Engine, rootSlot int) (pds.Store, error) {
	switch kind {
	case "hashmap":
		return pds.NewHashMap(eng, rootSlot)
	case "skiplist":
		return pds.NewSkipList(eng, rootSlot)
	case "rbtree":
		return pds.NewRBTree(eng, rootSlot)
	case "bptree":
		return pds.NewBPTree(eng, rootSlot)
	case "avltree":
		return pds.NewAVLTree(eng, rootSlot)
	case "list":
		return pds.NewList(eng, rootSlot)
	case "lfhashmap":
		return pds.NewLFHashMap(eng, rootSlot)
	}
	return nil, fmt.Errorf("crashsweep: unknown structure %q (want %v)", kind, StructureKinds())
}
