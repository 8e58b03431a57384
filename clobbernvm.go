// Package clobbernvm is a Go reproduction of Clobber-NVM (Xu, Izraelevitz,
// Swanson — ASPLOS 2021): a failure-atomicity library for non-volatile
// memory that logs less and re-executes more.
//
// Clobber logging undo-logs only the *clobbered inputs* of a transaction —
// values that are read and then overwritten inside it — plus a per-thread
// v_log holding the transaction's volatile inputs (its function name and
// arguments). After a power failure, recovery restores the clobbered and
// volatile inputs and re-executes the interrupted transaction from the
// beginning; everything else the crash tore is overwritten by the
// deterministic re-execution.
//
// Because Go exposes neither cache-flush instructions nor LLVM passes, this
// reproduction runs over a simulated persistent-memory pool (with an
// explicit flush/fence cost model and crash injection) and detects clobber
// writes dynamically at the transactional memory interface. DESIGN.md
// documents every substitution.
//
// # Quick start
//
//	db, err := clobbernvm.Create(clobbernvm.Options{PoolSize: 64 << 20})
//	if err != nil { ... }
//	counter := db.Pool().RootSlot(2)
//	db.Register("incr", func(m clobbernvm.Mem, args *clobbernvm.Args) error {
//		m.Store64(counter, m.Load64(counter)+args.Uint64(0))
//		return nil
//	})
//	err = db.Run(0, "incr", clobbernvm.NewArgs().PutUint64(5))
//
// After a crash, reopen the pool image, Register the same functions, and
// call Recover: interrupted transactions re-execute to completion.
//
// The library also ships the paper's full evaluation stack: the comparison
// engines (PMDK-style undo, Mnemosyne-style redo, Atlas, an iDO meter), the
// four data-structure benchmarks, the three applications (memcached,
// vacation, yada), and harness runners for every figure — see the
// examples/ directory and cmd/benchfigs.
package clobbernvm

import (
	"errors"
	"fmt"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// Re-exported core types. Mem is the in-transaction view of persistent
// memory; TxFunc is a registered, deterministic transaction body; Args
// carries a transaction's volatile inputs (preserved in the v_log).
type (
	// Mem is the transactional memory interface.
	Mem = txn.Mem
	// Args is the encodable argument list for a transaction.
	Args = txn.Args
	// TxFunc is a registered transaction function.
	TxFunc = txn.TxFunc
	// Engine is the failure-atomicity engine interface.
	Engine = txn.Engine
	// Addr is a persistent-memory address (byte offset into the pool).
	Addr = txn.Addr
	// Range is a byte range of persistent memory, as Mem.WillStore
	// declares it.
	Range = txn.Range
	// Pool is the simulated NVM pool.
	Pool = nvm.Pool
	// Latency is the simulated flush/fence cost model.
	Latency = nvm.Latency
	// Store is the persistent key-value structure interface.
	Store = pds.Store
	// RecoveryReport itemises what RecoverReport did per category.
	RecoveryReport = txn.RecoveryReport
)

// NewArgs returns an empty argument list.
func NewArgs() *Args { return txn.NewArgs() }

// NoArgs is a reusable empty argument list.
var NoArgs = txn.NoArgs

// ErrCrash is the panic value raised at a scheduled simulated crash point.
var ErrCrash = nvm.ErrCrash

// ErrCorruptLog marks a slot whose persistent log failed validation during
// recovery; the slot is quarantined rather than partially restored.
var ErrCorruptLog = txn.ErrCorruptLog

// ErrSlotQuarantined is returned by Run on a slot that recovery quarantined.
var ErrSlotQuarantined = txn.ErrSlotQuarantined

// DefaultLatency is the calibrated simulated cost model.
var DefaultLatency = nvm.DefaultLatency

// Options configures Create and Open.
type Options struct {
	// PoolSize is the simulated NVM pool size in bytes (default 64 MiB).
	PoolSize uint64
	// Slots is the number of concurrent worker slots (default 8).
	Slots int
	// Latency enables the simulated flush/fence cost model. Zero (the
	// default) disables simulated delays; pass DefaultLatency for
	// benchmark-grade behaviour.
	Latency Latency
	// DataLogCap bounds a single transaction's clobber_log bytes
	// (default 1 MiB).
	DataLogCap uint64
	// Conservative disables the dependency-analysis refinements (the
	// Figure 13 ablation).
	Conservative bool
	// LineLog formats the clobber_log with the in-cache-line
	// write-combined layout: entries stream through 64-byte lines that
	// each carry a validity word, so a small append costs one line flush
	// instead of separate header/trailer/terminator flushes. Open
	// auto-detects the format, so the flag only matters at Create.
	LineLog bool
}

func (o *Options) fill() {
	if o.PoolSize == 0 {
		o.PoolSize = 64 << 20
	}
	if o.Slots == 0 {
		o.Slots = 8
	}
	if o.DataLogCap == 0 {
		o.DataLogCap = 1 << 20
	}
}

// DB is an open Clobber-NVM pool: the simulated NVM region, its persistent
// heap, and the clobber-logging engine.
type DB struct {
	pool   *nvm.Pool
	alloc  *pmem.Allocator
	engine *clobber.Engine
}

// Create provisions a fresh in-memory pool and formats the heap and engine
// on it.
func Create(opts Options) (*DB, error) {
	opts.fill()
	pool := nvm.New(opts.PoolSize, nvm.WithLatency(opts.Latency))
	return createOn(pool, opts)
}

func createOn(pool *nvm.Pool, opts Options) (*DB, error) {
	alloc, err := pmem.Create(pool)
	if err != nil {
		return nil, err
	}
	engine, err := clobber.Create(pool, alloc, clobber.Options{
		Options:      chassis.Options{Slots: opts.Slots, DataLogCap: opts.DataLogCap, LineLog: opts.LineLog},
		Conservative: opts.Conservative,
	})
	if err != nil {
		return nil, err
	}
	return &DB{pool: pool, alloc: alloc, engine: engine}, nil
}

// Open attaches to a pool image previously written with SaveImage (the
// restart-after-crash path). Register your transaction functions, then call
// Recover before running new transactions.
func Open(path string, opts Options) (*DB, error) {
	opts.fill()
	pool, err := nvm.OpenImage(path, nvm.WithLatency(opts.Latency))
	if err != nil {
		return nil, err
	}
	return attachTo(pool)
}

// Attach reopens the engine on a pool already containing one (e.g. after a
// simulated in-process crash via Pool().Crash()).
func Attach(pool *Pool) (*DB, error) {
	return attachTo(pool)
}

func attachTo(pool *nvm.Pool) (*DB, error) {
	alloc, err := pmem.Attach(pool)
	if err != nil {
		return nil, err
	}
	engine, err := clobber.Attach(pool, alloc, clobber.Options{})
	if err != nil {
		return nil, err
	}
	return &DB{pool: pool, alloc: alloc, engine: engine}, nil
}

// Pool exposes the underlying simulated NVM pool (root slots, crash
// injection, statistics).
func (db *DB) Pool() *Pool { return db.pool }

// Engine exposes the underlying clobber engine (it satisfies Engine and the
// structure constructors' requirements).
func (db *DB) Engine() *clobber.Engine { return db.engine }

// Register associates a name with a transaction function. All functions
// must be re-registered after Open/Attach and before Recover.
func (db *DB) Register(name string, fn TxFunc) { db.engine.Register(name, fn) }

// Run executes the named transaction failure-atomically on a worker slot.
func (db *DB) Run(slot int, name string, args *Args) error {
	return db.engine.Run(slot, name, args)
}

// RunRO executes a read-only operation (no logging, direct reads).
func (db *DB) RunRO(slot int, fn func(Mem) error) error {
	return db.engine.RunRO(slot, fn)
}

// Recover completes interrupted transactions by re-execution. Call it after
// Open/Attach (and after Register), before any new Run.
func (db *DB) Recover() (int, error) { return db.engine.Recover() }

// RecoverReport is Recover with a full accounting: how many slots were
// recovered, re-executed or quarantined, and the per-slot corruption
// errors. Corrupt logs quarantine their slot (Run returns
// ErrSlotQuarantined there) instead of failing recovery outright.
func (db *DB) RecoverReport() (RecoveryReport, error) { return db.engine.RecoverReport() }

// SaveImage persists the pool's durable view to a file, to be reopened with
// Open.
func (db *DB) SaveImage(path string) error { return db.pool.SaveImage(path) }

// StructureKind selects a persistent data structure for NewStore.
type StructureKind string

// Available structure kinds.
const (
	HashMapKind  StructureKind = "hashmap"
	SkipListKind StructureKind = "skiplist"
	RBTreeKind   StructureKind = "rbtree"
	BPTreeKind   StructureKind = "bptree"
	AVLTreeKind  StructureKind = "avltree"
)

// NewStore opens (creating if absent) a persistent key-value structure of
// the given kind anchored at the pool root slot. Root slots 0 and 1 are
// reserved for the allocator and the engine; use 2 and up.
func (db *DB) NewStore(kind StructureKind, rootSlot int) (Store, error) {
	if rootSlot < 2 || rootSlot >= nvm.NumRootSlots {
		return nil, fmt.Errorf("clobbernvm: root slot %d out of range [2, %d)", rootSlot, nvm.NumRootSlots)
	}
	switch kind {
	case HashMapKind:
		return pds.NewHashMap(db.engine, rootSlot)
	case SkipListKind:
		return pds.NewSkipList(db.engine, rootSlot)
	case RBTreeKind:
		return pds.NewRBTree(db.engine, rootSlot)
	case BPTreeKind:
		return pds.NewBPTree(db.engine, rootSlot)
	case AVLTreeKind:
		return pds.NewAVLTree(db.engine, rootSlot)
	default:
		return nil, errors.New("clobbernvm: unknown structure kind " + string(kind))
	}
}

// Stats returns the engine's logging statistics snapshot.
func (db *DB) Stats() txn.StatsSnapshot { return db.engine.Stats().Snapshot() }
