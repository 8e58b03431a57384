package clobber_test

import (
	"fmt"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// sweepSpec is the default-options engine, every option at its default but
// the sizes and, if line is set, the data log's format: a sweep restores the
// whole pool image and recovery scans the whole clobber_log per persist
// point. made, if set, sees every allocator the sweep creates or attaches.
func sweepSpec(line bool, made func(*pmem.Allocator)) crashsweep.EngineSpec {
	seen := func(a *pmem.Allocator) {
		if made != nil {
			made(a)
		}
	}
	name := "clobber"
	if line {
		name = "clobber-line"
	}
	return crashsweep.EngineSpec{
		Name: name, Style: crashsweep.StyleAtomic,
		Create: func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
			seen(a)
			return clobber.Create(p, a, clobber.Options{Options: chassis.Options{Slots: 2, FreeLogCap: 128, DataLogCap: 64 << 10, LineLog: line}, ArgsCap: 1024})
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

// sweepCell is one workload of the default-options sweep. entries, if set,
// is the clobber-entry count of each live op in the uncrashed run: it says
// which path the op took (a shift is three — key run, pointer run, nkeys —
// whatever its length; only a split writes more). fences is the same run's
// fence count per op: it says the op's entries were ordered in batches (a
// shift is four — begin, its one declared batch, and the two of commit).
type sweepCell struct {
	name    string
	cfg     crashsweep.Config
	entries string
	fences  string
	// line runs the cell on the line-format data log.
	line bool
}

// bptreeCells reach the B+tree's range-shaped node edits, which a handful of
// keys in one leaf never does: with 16 seeds the first live insert splits the
// full root leaf and builds a root; the two-level script shifts a whole leaf,
// splits under a non-full parent (an internal insert that shifts) and deletes
// at the front of a full leaf.
var bptreeCells = []sweepCell{
	{name: "bptree-rootsplit", cfg: crashsweep.Config{Structure: "bptree", SeedOps: 16, PoolSize: 1 << 22}, entries: "[5 1 3]", fences: "[7 4 4]"},
	{name: "bptree-twolevel", cfg: crashsweep.Config{Structure: "bptree", Script: crashsweep.BPTreeTwoLevel(), PoolSize: 1 << 22}, entries: "[3 7 3]", fences: "[4 7 4]"},
}

// TestSweepHeapAudit crashes the default-options engine at every persist
// point of an insert / update / delete mix and, besides all-or-nothing
// structure state, requires a clean heap after every recovery: the
// allocator's own audit passes, no block the structure reaches is free or
// unbumped, and the crash leaked at most one refill chunk. The B+tree cells
// run on both data-log formats.
func TestSweepHeapAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	var cells []sweepCell
	for _, structure := range []string{"hashmap", "bptree", "list"} {
		cells = append(cells, sweepCell{name: structure, cfg: crashsweep.Config{Structure: structure, LiveOps: 6}})
	}
	cells = append(cells, bptreeCells...)
	for _, cell := range bptreeCells {
		cell.name, cell.line = cell.name+"-line", true
		cells = append(cells, cell)
	}
	for _, cell := range cells {
		for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictAll, nvm.EvictRandom} {
			t.Run(fmt.Sprintf("%s/%s", cell.name, policy), func(t *testing.T) {
				t.Parallel()
				cfg := cell.cfg
				cfg.Kind, cfg.Policy, cfg.Seed = nvm.CrashAtAny, policy, 9
				res, err := crashsweep.RunSpec(sweepSpec(cell.line, nil), cfg)
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
				if got := fmt.Sprint(res.RefLogEntries); cell.entries != "" && got != cell.entries {
					t.Errorf("clobber entries per live op = %s, want %s", got, cell.entries)
				}
				if got := fmt.Sprint(res.RefFences); cell.fences != "" && got != cell.fences {
					t.Errorf("fences per live op = %s, want %s", got, cell.fences)
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
	res, err := crashsweep.RunSpec(sweepSpec(false, func(a *pmem.Allocator) { sink.alloc = a }), crashsweep.Config{
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

// lyingEngine is the broken variant the new cells must convict, built at the
// pds.Engine seam with no engine knob: its txfuncs see a Mem whose multi-word
// Load reports only the first word to the engine and reads the rest straight
// from the pool. The source run of a shift is then never marked as input, so
// the range store that overwrites it logs one word of it — unless the txfunc
// declared the run, which decl decides.
type lyingEngine struct {
	pds.Engine
	decl declMode
}

// declMode is what a lyingMem does with the txfunc's declarations.
type declMode int

const (
	// declDrop swallows them: the run-time check is on its own.
	declDrop declMode = iota
	// declOnTime passes them on as they come.
	declOnTime
	// declLate holds each one back until just after the txfunc's next
	// store: that store reaches the pool before the batch that logs what it
	// overwrites is durable.
	declLate
)

func (e lyingEngine) Register(name string, fn txn.TxFunc) {
	e.Engine.Register(name, func(m txn.Mem, args *txn.Args) error {
		return fn(&lyingMem{Mem: m, pool: e.Pool(), decl: e.decl}, args)
	})
}

type lyingMem struct {
	txn.Mem
	pool *nvm.Pool
	decl declMode
	held []txn.Range
}

func (m *lyingMem) Load(addr txn.Addr, buf []byte) {
	if len(buf) <= 8 {
		m.Mem.Load(addr, buf)
		return
	}
	m.Mem.Load(addr, buf[:8])
	m.pool.Load(addr+8, buf[8:])
}

func (m *lyingMem) WillStore(ranges []txn.Range) {
	switch m.decl {
	case declOnTime:
		m.Mem.WillStore(ranges)
	case declLate:
		m.held = append(m.held[:0], ranges...)
	}
}

func (m *lyingMem) Store(addr txn.Addr, data []byte) {
	m.Mem.Store(addr, data)
	m.release()
}

func (m *lyingMem) Store64(addr txn.Addr, v uint64) {
	m.Mem.Store64(addr, v)
	m.release()
}

// release passes on a held declaration.
func (m *lyingMem) release() {
	if len(m.held) > 0 {
		m.Mem.WillStore(m.held)
		m.held = m.held[:0]
	}
}

// lyingSpec is sweepSpec behind lyingEngine.
func lyingSpec(decl declMode) crashsweep.EngineSpec {
	spec := sweepSpec(false, nil)
	create, attach := spec.Create, spec.Attach
	spec.Create = func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
		e, err := create(p, a)
		return lyingEngine{e, decl}, err
	}
	spec.Attach = func(p *nvm.Pool, a *pmem.Allocator) (pds.Engine, error) {
		e, err := attach(p, a)
		return lyingEngine{e, decl}, err
	}
	return spec
}

// TestSweepConvictsUnloggedRangeInputs: a range store whose overlapped inputs
// were not logged must not get past the split and shift cells once every
// store reaches media. The txfuncs' declarations are dropped, so only the
// run-time check could have logged them.
func TestSweepConvictsUnloggedRangeInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	spec := lyingSpec(declDrop)
	for _, cell := range bptreeCells {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			cfg := cell.cfg
			cfg.Kind, cfg.Policy, cfg.Seed = nvm.CrashAtAny, nvm.EvictAll, 9
			res, err := crashsweep.RunSpec(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ok() {
				t.Fatalf("sweep passed an engine that never saw the shifted run as input (%d persist points)", res.PersistPoints)
			}
			t.Logf("%d of %d points convicted, first: %v", len(res.Mismatches), res.PersistPoints, res.Mismatches[0])
		})
	}
}

// TestSweepConvictsLateDeclaration: with the run-time check blinded as
// above, the B+tree's declarations alone must carry every shift through
// every crash, torn batches included; declared one store too late, so that
// the store can reach media before its batch is durable, they must not.
func TestSweepConvictsLateDeclaration(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	for _, cell := range bptreeCells {
		for _, policy := range []nvm.EvictPolicy{nvm.EvictTorn, nvm.EvictRandom} {
			t.Run(fmt.Sprintf("%s/%s", cell.name, policy), func(t *testing.T) {
				t.Parallel()
				cfg := cell.cfg
				cfg.Kind, cfg.Policy, cfg.Seed = nvm.CrashAtAny, policy, 9
				res, err := crashsweep.RunSpec(lyingSpec(declOnTime), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range res.Mismatches {
					t.Errorf("declared on time: %v", m)
				}
				if res, err = crashsweep.RunSpec(lyingSpec(declLate), cfg); err != nil {
					t.Fatal(err)
				}
				if res.Ok() {
					t.Fatalf("sweep passed declarations made after the store they cover (%d persist points)", res.PersistPoints)
				}
				t.Logf("declared late: %d of %d points convicted, first: %v", len(res.Mismatches), res.PersistPoints, res.Mismatches[0])
			})
		}
	}
}
