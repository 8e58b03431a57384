// Package txn defines the abstractions shared by every failure-atomicity
// engine in this repository: the in-transaction memory interface, the
// registered transaction-function (txfunc) model, argument encoding for
// re-execution, and per-engine statistics.
//
// The programming model mirrors the paper's (§4.1): a transaction is
// isolated within a registered function; Run records which function started
// with which arguments, executes it, and commits. Recovery-via-resumption
// engines (clobber) use the registration to re-execute interrupted
// transactions after a crash; rollback engines (undolog, redolog, atlas)
// ignore it beyond bookkeeping.
//
// Concurrency follows the paper's conservative strong strict two-phase
// locking contract: callers acquire all locks protecting the data a
// transaction touches before Run and release them after Run returns, in a
// fixed order. Data-structure implementations in internal/pds do exactly
// that. Each concurrent worker passes a distinct slot (thread) id.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"clobbernvm/internal/obs"
)

// Addr is a persistent-memory address: a byte offset into the pool.
// Offset-based addressing is this reproduction's equivalent of the paper's
// pointer swizzling for relocatable backing regions.
type Addr = uint64

// MaxSlots is the maximum number of concurrently running transactions
// (one per worker thread), matching the fixed v_log slot table.
const MaxSlots = 64

// Mem is the view of persistent memory inside a transaction. Every access a
// transaction makes goes through Mem — the run-time analogue of the callbacks
// the Clobber-NVM compiler inserts at each memory access.
type Mem interface {
	// Load copies len(buf) bytes at addr into buf.
	Load(addr Addr, buf []byte)
	// Load64 reads a little-endian uint64.
	Load64(addr Addr) uint64
	// Store writes data at addr.
	Store(addr Addr, data []byte)
	// Store64 writes a little-endian uint64.
	Store64(addr Addr, v uint64)
	// Alloc allocates persistent memory (pmalloc). The allocation is a
	// reservation until commit: an interrupted transaction that is rolled
	// back, discarded or re-executed leaves the heap as it found it.
	Alloc(size uint64) (Addr, error)
	// Free releases a persistent allocation. Engines defer the actual
	// release to commit so that interrupted transactions can recover.
	Free(addr Addr) error
	// WillStore declares ranges the transaction is about to overwrite,
	// before its first store to any of them: the batched form of the
	// clobber_log callback the compiler pass inserts before each clobber
	// write. An engine may log them all under one fence instead of one per
	// store, or ignore the call. A declaration never replaces detection:
	// an undeclared clobber is still found and logged at its store.
	WillStore(ranges []Range)
}

// Range is the persistent byte range [Addr, Addr+Len).
type Range struct {
	Addr Addr
	Len  uint64
}

// TxFunc is a registered transaction function (the paper's txfunc). It must
// be deterministic given (m, args) and must not depend on state outside args
// and persistent memory — the re-execution contract of §2.3.
type TxFunc func(m Mem, args *Args) error

// ROFunc is a read-only operation run under an engine's read path.
type ROFunc func(m Mem) error

// Engine is a failure-atomicity engine. Implementations: clobber (the
// paper's contribution), undolog (PMDK-style), redolog (Mnemosyne-style),
// atlas (Atlas-style).
type Engine interface {
	// Name identifies the engine in figures ("clobber", "pmdk", ...).
	Name() string
	// Register associates name with fn. Must be called before Run(name) and
	// again after reopening a pool, before Recover.
	Register(name string, fn TxFunc)
	// Run executes the named txfunc failure-atomically on worker slot
	// (0 <= slot < MaxSlots). Caller holds all relevant locks.
	Run(slot int, name string, args *Args) error
	// RunRO executes a read-only operation through the engine's read path
	// (redo engines pay read interposition here, exactly as the paper
	// observes for Mnemosyne).
	RunRO(slot int, fn ROFunc) error
	// Recover completes or re-executes interrupted transactions after the
	// pool has been reopened. Returns the number of transactions recovered.
	Recover() (int, error)
	// Stats returns the engine's cumulative logging statistics.
	Stats() *Stats
}

// ErrUnknownTxFunc reports Run/recovery of a name with no registration.
var ErrUnknownTxFunc = errors.New("txn: unknown txfunc")

// ErrBadSlot reports a slot outside [0, MaxSlots).
var ErrBadSlot = errors.New("txn: slot out of range")

// CheckSlot validates a worker slot id.
func CheckSlot(slot int) error {
	if slot < 0 || slot >= MaxSlots {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	return nil
}

// Registry is a concurrency-safe name→TxFunc table that engines embed.
// Lookups are lock-free: the table is published as an immutable snapshot
// through an atomic.Value and replaced copy-on-write by Register, so the
// per-transaction Lookup on every Run never contends with other workers.
type Registry struct {
	mu    sync.Mutex   // serializes writers only
	funcs atomic.Value // map[string]TxFunc, replaced wholesale
}

// Register stores fn under name, replacing any previous registration.
// Registration is expected at startup/attach time; it copies the whole
// table so concurrent Lookups stay wait-free.
func (r *Registry) Register(name string, fn TxFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, _ := r.funcs.Load().(map[string]TxFunc)
	next := make(map[string]TxFunc, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = fn
	r.funcs.Store(next)
}

// Lookup returns the txfunc registered under name.
func (r *Registry) Lookup(name string) (TxFunc, error) {
	funcs, _ := r.funcs.Load().(map[string]TxFunc)
	fn, ok := funcs[name]
	if !ok {
		if obs.Enabled() {
			obs.Default.Counter("txn.registry.lookup_miss").Add(0, 1)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownTxFunc, name)
	}
	return fn, nil
}
