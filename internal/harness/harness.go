// Package harness regenerates every table and figure of the paper's
// evaluation (§5, Figures 6–14). Each FigN function runs the corresponding
// experiment at a configurable scale and returns CSV-ready rows, in the
// spirit of the artifact's run_all.sh producing fig*.csv files.
//
// Absolute numbers will not match the paper (the substrate is a simulated
// pool with an approximate cost model, not Optane hardware); the *shape* —
// which engine wins, by roughly what factor, where the crossovers are — is
// what these runners reproduce. See EXPERIMENTS.md for measured-vs-paper
// comparisons.
package harness

import (
	"fmt"
	"strings"
	"time"

	"clobbernvm/internal/atlas"
	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/redolog"
	"clobbernvm/internal/txn"
	"clobbernvm/internal/undolog"
)

// Scale sizes an experiment run.
type Scale struct {
	// Entries is the data-structure population (paper: 1M).
	Entries int
	// Ops is the measured operation count per configuration.
	Ops int
	// Threads is the thread sweep (paper: up to 24).
	Threads []int
	// MemcachedOps is the request count per memcached configuration.
	MemcachedOps int
	// VacationTasks is the task count per vacation configuration.
	VacationTasks int
	// VacationRecords is the per-table population (paper: 100k).
	VacationRecords int
	// YadaPoints is the input point count (paper input: ~10k).
	YadaPoints int
	// PoolBytes sizes the simulated pool.
	PoolBytes uint64
	// Latency is the simulated cost model (DefaultLatency for figures).
	Latency nvm.Latency
	// Runs is the number of repetitions recorded per configuration (the
	// artifact reports 5 runs per point).
	Runs int
	// GroupCommit enables the pool's epoch-based group-commit coordinator
	// (internal/nvm), which coalesces concurrent transactions' commit
	// fences into shared epochs. Off by default so baselines are
	// bit-identical with earlier reports.
	GroupCommit bool
	// Shards partitions the persistent heap into that many independent
	// pools behind a consistent-hash router (internal/shard). 0 or 1 keeps
	// the single-pool layout bit-identical with earlier reports; sharded
	// setups split PoolBytes and the per-slot log capacity evenly so N
	// shards occupy the same total space as one pool.
	Shards int
	// LineLog formats every engine data log with the write-combined line
	// writer (internal/plog): entries stream through a 64-byte staging
	// buffer, one Store+FlushOpt per touched line, per-line validity words
	// instead of trailer checksums. Off by default so baselines stay
	// bit-identical with earlier reports.
	LineLog bool
}

// SmallScale finishes in seconds; used by tests and quick CLI runs.
var SmallScale = Scale{
	Entries:         2000,
	Ops:             2000,
	Threads:         []int{1, 2},
	MemcachedOps:    3000,
	VacationTasks:   300,
	VacationRecords: 100,
	YadaPoints:      40,
	PoolBytes:       1 << 27,
	Latency:         nvm.DefaultLatency,
	Runs:            1,
}

// MediumScale is the configuration EXPERIMENTS.md records: a few minutes of
// wall time, large enough for stable relative numbers.
var MediumScale = Scale{
	Entries:         20_000,
	Ops:             8_000,
	Threads:         []int{1, 2, 4, 8},
	MemcachedOps:    20_000,
	VacationTasks:   1_500,
	VacationRecords: 1_000,
	YadaPoints:      300,
	PoolBytes:       1 << 28,
	Latency:         nvm.DefaultLatency,
	Runs:            2,
}

// PaperScale approximates the paper's configuration, scaled to a simulated
// pool (population 100k instead of 1M; the log-traffic ratios are
// population-independent).
var PaperScale = Scale{
	Entries:         100_000,
	Ops:             20_000,
	Threads:         []int{1, 2, 4, 8, 16, 24},
	MemcachedOps:    50_000,
	VacationTasks:   5_000,
	VacationRecords: 10_000,
	YadaPoints:      2_000,
	PoolBytes:       1 << 31,
	Latency:         nvm.DefaultLatency,
	Runs:            5,
}

// EngineKind names a failure-atomicity engine configuration.
type EngineKind string

// Engine kinds used across figures.
const (
	EngineClobber             EngineKind = "clobber"
	EngineClobberConservative EngineKind = "clobber-conservative"
	EngineClobberVLogOnly     EngineKind = "clobber-vlog"
	EngineClobberCLogOnly     EngineKind = "clobber-clobberlog"
	EngineNoLog               EngineKind = "nolog"
	EnginePMDK                EngineKind = "pmdk"
	EngineMnemosyne           EngineKind = "mnemosyne"
	EngineAtlas               EngineKind = "atlas"
)

// Setup is one freshly provisioned pool + engine.
type Setup struct {
	Pool   *nvm.Pool
	Alloc  *pmem.Allocator
	Engine pds.Engine
}

// maxSlots returns the worker-slot count an experiment at this scale needs.
func (sc Scale) maxSlots() int {
	slots := 2
	for _, t := range sc.Threads {
		if t > slots {
			slots = t
		}
	}
	return slots + 2
}

// NewSetup provisions a pool, allocator and engine of the given kind. It
// calls Prefault, which does nothing by decision (see nvm.Pool.Prefault):
// first touch stays lazy, so the pool's pages fault in 4 KiB at a time
// inside setup or the measured region, and the resident set holds only the
// pages the workload writes, not the whole pool. The pool runs in fast
// mode: benchmarks never arm crash points, so the pool skips per-event
// persist-point accounting. Crash experiments re-arm precise mode
// automatically via ScheduleCrashAt/ResetPersistPoints.
func NewSetup(kind EngineKind, sc Scale) (*Setup, error) {
	pool := nvm.New(sc.PoolBytes, nvm.WithLatency(sc.Latency))
	pool.Prefault()
	pool.SetFastPath(true)
	if sc.GroupCommit {
		pool.GroupCommit(sc.maxSlots(), nvm.DefaultGroupCommitDelayNS)
	}
	alloc, err := pmem.Create(pool)
	if err != nil {
		return nil, err
	}
	eng, err := BuildEngine(kind, pool, alloc, sc.maxSlots(), sc.LineLog)
	if err != nil {
		return nil, err
	}
	return &Setup{Pool: pool, Alloc: alloc, Engine: eng}, nil
}

// DefaultDataLogCap is the per-slot data-log capacity BuildEngine formats.
// Sharded setups shrink it proportionally (see NewShardedSetup) so N shards
// use the same total log space as one unsharded pool.
const DefaultDataLogCap = 1 << 22

// newEngine is the single construction path for every engine variant, in
// both directions of a pool's life: fresh (Create: format slots and logs on
// an empty pool) and attach (reopen an existing pool after restart or
// crash, where slot counts and log capacities come from the pool's durable
// header and only volatile behavior flags must be restated). One switch
// serves both so the crash-rebuild path cannot drift from the build path.
func newEngine(kind EngineKind, pool *nvm.Pool, alloc *pmem.Allocator, slots int, dataCap uint64, fresh, lineLog bool) (pds.Engine, error) {
	// Sizing fields are only meaningful on the fresh path; Attach reads them
	// from the durable anchor and must not have them restated.
	if !fresh {
		slots, dataCap = 0, 0
	}
	o := chassis.Options{Slots: slots, DataLogCap: dataCap, LineLog: lineLog}
	clob := func(c clobber.Options) (pds.Engine, error) {
		c.Options = o
		if fresh {
			return clobber.Create(pool, alloc, c)
		}
		return clobber.Attach(pool, alloc, c)
	}
	switch kind {
	case EngineClobber:
		return clob(clobber.Options{})
	case EngineClobberConservative:
		return clob(clobber.Options{Conservative: true})
	case EngineClobberVLogOnly:
		return clob(clobber.Options{DisableClobberLog: true})
	case EngineClobberCLogOnly:
		return clob(clobber.Options{DisableVLog: true})
	case EngineNoLog:
		return clob(clobber.Options{DisableVLog: true, DisableClobberLog: true})
	case EnginePMDK:
		if fresh {
			return undolog.Create(pool, alloc, o)
		}
		return undolog.Attach(pool, alloc, o)
	case EngineMnemosyne:
		if fresh {
			return redolog.Create(pool, alloc, o)
		}
		return redolog.Attach(pool, alloc, o)
	case EngineAtlas:
		if fresh {
			return atlas.Create(pool, alloc, o)
		}
		return atlas.Attach(pool, alloc, o)
	default:
		return nil, fmt.Errorf("harness: unknown engine kind %q", kind)
	}
}

// BuildEngine constructs the engine variant on an existing pool with the
// given worker-slot count.
func BuildEngine(kind EngineKind, pool *nvm.Pool, alloc *pmem.Allocator, slots int, lineLog bool) (pds.Engine, error) {
	return newEngine(kind, pool, alloc, slots, DefaultDataLogCap, true, lineLog)
}

// AttachEngine re-attaches the engine variant to an existing pool — the
// restart half of BuildEngine, used when a pool is rebuilt from a durable
// image (nvm.NewFromImage) after a crash.
func AttachEngine(kind EngineKind, pool *nvm.Pool, alloc *pmem.Allocator) (pds.Engine, error) {
	return newEngine(kind, pool, alloc, 0, 0, false, false)
}

// StructureKind names a benchmark data structure.
type StructureKind string

// The four §5.2 structures, plus the lock-free extension structure.
const (
	StructBPTree   StructureKind = "bptree"
	StructHashMap  StructureKind = "hashmap"
	StructSkipList StructureKind = "skiplist"
	StructRBTree   StructureKind = "rbtree"
	// StructLFHashMap is the recoverable lock-free hashmap (ext-lockfree).
	// Clobber-family engines only; not part of AllStructures because the
	// paper's §5.2 sweep predates it.
	StructLFHashMap StructureKind = "lfhashmap"
)

// AllStructures lists the §5.2 benchmark structures in paper order.
var AllStructures = []StructureKind{StructBPTree, StructHashMap, StructSkipList, StructRBTree}

// structRootSlot anchors benchmark structures.
const structRootSlot = 30

// OpenStructure opens the named structure on the setup's engine.
func OpenStructure(kind StructureKind, eng pds.Engine) (pds.Store, error) {
	switch kind {
	case StructBPTree:
		return pds.NewBPTree(eng, structRootSlot)
	case StructHashMap:
		return pds.NewHashMap(eng, structRootSlot)
	case StructSkipList:
		return pds.NewSkipList(eng, structRootSlot)
	case StructRBTree:
		return pds.NewRBTree(eng, structRootSlot)
	case StructLFHashMap:
		return pds.NewLFHashMap(eng, structRootSlot)
	default:
		return nil, fmt.Errorf("harness: unknown structure %q", kind)
	}
}

// KeySize returns the benchmark key size for a structure (§5.2: 8 bytes,
// 32 for B+tree).
func KeySize(kind StructureKind) int {
	if kind == StructBPTree {
		return 32
	}
	return 8
}

// ValueSize is the benchmark value size (§5.2).
const ValueSize = 256

// Table is a figure's output: a header plus rows, ready for CSV.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// CSV renders the table.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func (t *Table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3f", v.Seconds()*1000)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// opsPerSec converts a count and duration to a throughput.
func opsPerSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// statsPerTx divides a stats delta by a transaction count.
func statsPerTx(s txn.StatsSnapshot, n int) (entries, bytes float64) {
	if n == 0 {
		return 0, 0
	}
	return float64(s.TotalLogEntries()) / float64(n), float64(s.TotalLogBytes()) / float64(n)
}
