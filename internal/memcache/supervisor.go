// Online crash-recovery supervision.
//
// The simulated pool's crash latch (internal/nvm) models a power failure as
// sticky: once an armed crash point fires, every subsequent persistence
// event from any goroutine panics with nvm.ErrCrash. Before this file, a
// latched pool bricked the server — every handler surfaced the panic and no
// one ever ran recovery. The Supervisor closes that loop online, leaning on
// the paper's thesis that recovery-by-re-execution is cheap enough to run
// in the serving path:
//
//  1. detect — a cache operation that unwinds with nvm.ErrCrash flips the
//     supervisor from serving to draining; the detecting handler (and every
//     handler after it) fails fast with ErrRecovering instead of spinning
//     on the dead pool, so nothing that was not acknowledged before the
//     failure instant ever gets acknowledged after it;
//  2. drain — the gate write lock waits out in-flight operations (they
//     finish or hit the latch within one persistence event), establishing
//     the external quiescence Crash/Snapshot require;
//  3. recover — the durable view is settled (Pool.Crash applies the
//     configured eviction adversary), captured with Pool.Snapshot, and a
//     fresh pool is rebuilt from the image via the caller-supplied
//     RebuildFunc (nvm.NewFromImage + allocator and engine attach — the
//     same path a real process restart takes through a DAX-mapped file);
//     the cache re-registers its txfuncs and engine recovery re-executes or
//     rolls back whatever the crash interrupted;
//  4. resume — the recovered cache/pool pair is swapped in atomically and
//     the gate reopens. Connections stay up throughout; only commands
//     issued inside the window observe "SERVER_ERROR recovering".
//
// The durability contract this preserves is the "Tracking in Order to
// Recover" one: an operation whose reply reached the client is durable
// across the crash; an operation without a reply may land either way
// (clobber's recovery may even complete it by re-execution).
package memcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/txn"
)

// ErrRecovering is returned for operations that arrive while the supervisor
// is draining or rebuilding after a crash. Such an operation was rejected
// before touching the cache: it did not execute and never will. The message
// is chosen so the protocol layer's generic error path emits exactly
// "SERVER_ERROR recovering" — the reply clients key their retry loops on.
var ErrRecovering = errors.New("recovering")

// ErrInterrupted is returned for the operation whose transaction the power
// failure cut down mid-flight. Unlike ErrRecovering, its effect is
// genuinely undetermined: recovery may roll it back or (clobber) complete
// it by re-execution. The distinction is what lets a durability auditor
// keep its allowed-outcome sets tight — only interrupted operations are
// either-way. errors.Is(ErrInterrupted, ...) does not match ErrRecovering;
// protocol clients distinguish them by the reply suffix.
var ErrInterrupted = errors.New("recovering (crash interrupted)")

// ErrSupervisorDown reports that a recovery attempt itself failed (image
// rejected, engine attach failed); the supervisor stays down and Status
// carries the cause.
var ErrSupervisorDown = errors.New("memcache: supervisor down: recovery failed")

// RebuildFunc reconstructs the world from a durable pool image: a fresh
// pool (nvm.NewFromImage with whatever latency/eviction/group-commit
// options the deployment uses) plus a re-attached allocator and engine.
// Txfunc registration and engine recovery are the supervisor's job — the
// callback only rebuilds the substrate.
type RebuildFunc func(img []byte) (*nvm.Pool, pds.Engine, error)

// supervisor states.
const (
	stateServing int32 = iota
	stateDraining
	stateDown
)

// world is one (pool, cache) incarnation; recovery replaces it wholesale.
type world struct {
	pool  *nvm.Pool
	cache *Cache
}

// Supervisor wraps a Cache with online crash recovery. It implements
// Backend, so it drops into Server wherever a *Cache does.
type Supervisor struct {
	rebuild  RebuildFunc
	rootSlot int
	opts     Options

	state atomic.Int32
	// gate serializes operations (read side) against recovery (write side).
	// Operations check state before and after RLock so a draining
	// supervisor fails fast instead of queueing behind the writer.
	gate sync.RWMutex
	cur  atomic.Pointer[world]

	restarts atomic.Int64
	// gen increments once per completed recovery; harnesses poll it to
	// learn that a scheduled crash has been absorbed.
	gen atomic.Int64

	repMu      sync.Mutex
	lastReport txn.RecoveryReport
	lastNS     int64
	lastErr    error
}

// NewSupervisor supervises cache (anchored at rootSlot, opened with opts)
// over pool. rebuild is invoked with the post-crash durable image to
// reconstruct the pool and engine; the supervisor then reopens the cache
// (re-registering txfuncs) and runs engine recovery before resuming.
func NewSupervisor(cache *Cache, pool *nvm.Pool, rootSlot int, opts Options, rebuild RebuildFunc) *Supervisor {
	s := &Supervisor{rebuild: rebuild, rootSlot: rootSlot, opts: opts}
	s.cur.Store(&world{pool: pool, cache: cache})
	return s
}

// runCrashSafe converts a panicking cache operation into an error: an
// nvm.ErrCrash panic keeps its identity (it drives the recovery state
// machine), while any other panic — say a txfunc tripping over a corrupted
// structure — becomes a generic internal error, the way net/http contains
// handler panics. One poisoned operation then costs one SERVER_ERROR reply
// instead of the whole process, and chaos audits see the corruption as a
// recordable violation rather than a crash of the harness itself.
func runCrashSafe(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, nvm.ErrCrash) {
				err = e
				return
			}
			err = fmt.Errorf("memcache: internal error: %v", r)
		}
	}()
	return fn()
}

// do runs op against the current cache with crash detection. It returns
// ErrRecovering both while a recovery is in flight and for the operation
// that detected the crash (whose transaction was interrupted mid-flight and
// therefore must not be acknowledged).
func (s *Supervisor) do(op func(*Cache) error) error {
	switch s.state.Load() {
	case stateDraining:
		return ErrRecovering
	case stateDown:
		return ErrSupervisorDown
	}
	s.gate.RLock()
	if s.state.Load() != stateServing {
		err := ErrRecovering
		if s.state.Load() == stateDown {
			err = ErrSupervisorDown
		}
		s.gate.RUnlock()
		return err
	}
	w := s.cur.Load()
	err := runCrashSafe(func() error { return op(w.cache) })
	s.gate.RUnlock()
	if err != nil && errors.Is(err, nvm.ErrCrash) {
		s.crashed(w)
		return ErrInterrupted
	}
	return err
}

// crashed transitions serving→draining exactly once per world and launches
// recovery in the background; the detecting handler returns immediately so
// its client gets the recovering reply without waiting out the rebuild.
func (s *Supervisor) crashed(w *world) {
	if s.cur.Load() != w {
		return // a later recovery already replaced this world
	}
	if !s.state.CompareAndSwap(stateServing, stateDraining) {
		return
	}
	go s.recoverNow(w)
}

// recoverNow is the supervisor's core sequence: drain, settle, snapshot,
// rebuild, re-register, recover, swap, resume.
func (s *Supervisor) recoverNow(w *world) {
	start := time.Now()
	s.gate.Lock()
	defer s.gate.Unlock()

	// Quiescent now: settle the durable view. Crash applies the pool's
	// eviction adversary to still-dirty lines, exactly what the power
	// failure would have done to a real cache hierarchy.
	w.pool.Crash()
	img := w.pool.Snapshot()

	pool, eng, err := s.rebuild(img)
	if err == nil {
		var cache *Cache
		// Reopening the cache re-registers its txfuncs on the fresh engine —
		// required before recovery, which may re-execute them.
		cache, err = New(eng, s.rootSlot, s.opts)
		if err == nil {
			var rep txn.RecoveryReport
			rep, err = recoverEngine(eng)
			if err == nil {
				dur := time.Since(start)
				s.cur.Store(&world{pool: pool, cache: cache})
				s.restarts.Add(1)
				s.repMu.Lock()
				s.lastReport, s.lastNS, s.lastErr = rep, dur.Nanoseconds(), nil
				s.repMu.Unlock()
				s.publishMetrics(rep, dur)
				s.gen.Add(1)
				s.state.Store(stateServing)
				return
			}
		}
	}
	s.repMu.Lock()
	s.lastErr = err
	s.repMu.Unlock()
	s.gen.Add(1)
	s.state.Store(stateDown)
}

// recoverEngine prefers the hardened report-carrying recovery; the legacy
// count-only path keeps deliberately crippled test engines runnable.
func recoverEngine(eng pds.Engine) (txn.RecoveryReport, error) {
	if rr, ok := eng.(txn.RecoveryReporter); ok {
		return rr.RecoverReport()
	}
	var rep txn.RecoveryReport
	var err error
	rep.Recovered, err = eng.Recover()
	return rep, err
}

// publishMetrics mirrors the recovery outcome into the obs registry so
// /debug/vars shows nvm.recovery.* and server.restarts alongside the
// engine's own counters.
func (s *Supervisor) publishMetrics(rep txn.RecoveryReport, dur time.Duration) {
	if !obs.Enabled() {
		return
	}
	obs.Default.Counter("server.restarts").Add(0, 1)
	obs.Default.Counter("nvm.recovery.rounds").Add(0, 1)
	obs.Default.Counter("nvm.recovery.recovered").Add(0, int64(rep.Recovered))
	obs.Default.Counter("nvm.recovery.reexecuted").Add(0, int64(rep.Reexecuted))
	obs.Default.Counter("nvm.recovery.rolled_back").Add(0, int64(rep.RolledBack))
	obs.Default.Counter("nvm.recovery.rolled_forward").Add(0, int64(rep.RolledForward))
	obs.Default.Counter("nvm.recovery.quarantined").Add(0, int64(rep.Quarantined))
	obs.Default.Histogram("nvm.recovery.duration_ns").Observe(0, dur.Nanoseconds())
}

// Backend implementation — every call routes through do's crash detection.

// SetFlags stores key=value with the client-opaque flags word.
func (s *Supervisor) SetFlags(slot int, key, value []byte, flags uint32) error {
	return s.do(func(c *Cache) error { return c.SetFlags(slot, key, value, flags) })
}

// Set stores key=value with zero flags.
func (s *Supervisor) Set(slot int, key, value []byte) error {
	return s.SetFlags(slot, key, value, 0)
}

// Add stores key=value only if the key is absent, reporting whether it
// stored.
func (s *Supervisor) Add(slot int, key, value []byte, flags uint32) (stored bool, err error) {
	err = s.do(func(c *Cache) error {
		var e error
		stored, e = c.Add(slot, key, value, flags)
		return e
	})
	return stored, err
}

// Replace stores key=value only if the key is present, reporting whether
// it stored.
func (s *Supervisor) Replace(slot int, key, value []byte, flags uint32) (stored bool, err error) {
	err = s.do(func(c *Cache) error {
		var e error
		stored, e = c.Replace(slot, key, value, flags)
		return e
	})
	return stored, err
}

// GetWithCAS returns the value, flags and cas id for key.
func (s *Supervisor) GetWithCAS(slot int, key []byte) (val []byte, flags uint32, cas uint64, found bool, err error) {
	err = s.do(func(c *Cache) error {
		var e error
		val, flags, cas, found, e = c.GetWithCAS(slot, key)
		return e
	})
	return val, flags, cas, found, err
}

// Get returns the value for key.
func (s *Supervisor) Get(slot int, key []byte) ([]byte, bool, error) {
	v, _, _, found, err := s.GetWithCAS(slot, key)
	return v, found, err
}

// Delete removes key, reporting whether it existed.
func (s *Supervisor) Delete(slot int, key []byte) (existed bool, err error) {
	err = s.do(func(c *Cache) error {
		var e error
		existed, e = c.Delete(slot, key)
		return e
	})
	return existed, err
}

// Len returns the item count.
func (s *Supervisor) Len() (n int, err error) {
	err = s.do(func(c *Cache) error {
		var e error
		n, e = c.Len()
		return e
	})
	return n, err
}

// CheckInvariants verifies the current cache's structural invariants.
func (s *Supervisor) CheckInvariants() error {
	return s.do(func(c *Cache) error { return c.CheckInvariants() })
}

// Counters returns the current cache's volatile hit/miss/eviction counters.
func (s *Supervisor) Counters() (hits, misses, evictions int64) {
	return s.cur.Load().cache.Counters()
}

// FrontStats returns the current cache incarnation's front-cache counters.
// Counters reset on recovery because the swapped-in cache carries a fresh
// (empty) front — the wholesale drop the coherence protocol relies on.
func (s *Supervisor) FrontStats() FrontStats { return s.cur.Load().cache.FrontStats() }

// Engine returns the current engine (swapped on every recovery).
func (s *Supervisor) Engine() pds.Engine { return s.cur.Load().cache.Engine() }

// Pool returns the current pool. Harnesses arm the next crash here; after a
// recovery the previous pool is dead, so re-read before every ScheduleCrashAt.
func (s *Supervisor) Pool() *nvm.Pool { return s.cur.Load().pool }

// Arm schedules a crash at the n-th persistence event of the given kind on
// the live pool. ScheduleCrashAt needs quiescence (it may leave fast mode),
// so Arm takes the gate write lock — briefly pausing service the way any
// quiescent pool maintenance would.
func (s *Supervisor) Arm(kind nvm.CrashKind, n int64) error {
	if s.state.Load() != stateServing {
		return ErrRecovering
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	s.cur.Load().pool.ScheduleCrashAt(kind, n)
	return nil
}

// Generation returns the number of completed recovery attempts. A harness
// that armed a crash waits for Generation to advance before auditing.
func (s *Supervisor) Generation() int64 { return s.gen.Load() }

// Restarts returns the number of successful crash→recover→resume cycles.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }

// Serving reports whether the supervisor is accepting operations.
func (s *Supervisor) Serving() bool { return s.state.Load() == stateServing }

// Status is the JSON-ready supervisor snapshot served at /debug/vars.
type Status struct {
	State      string `json:"state"`
	Restarts   int64  `json:"restarts"`
	Generation int64  `json:"generation"`
	// Last recovery's outcome.
	LastRecoveryNS int64    `json:"last_recovery_ns,omitempty"`
	Slots          int      `json:"slots,omitempty"`
	Recovered      int      `json:"recovered"`
	Reexecuted     int      `json:"reexecuted"`
	RolledBack     int      `json:"rolled_back"`
	RolledForward  int      `json:"rolled_forward"`
	Quarantined    int      `json:"quarantined"`
	Errors         []string `json:"errors,omitempty"`
	LastError      string   `json:"last_error,omitempty"`
}

// Status snapshots the supervisor state and last recovery report.
func (s *Supervisor) Status() Status {
	st := Status{Restarts: s.restarts.Load(), Generation: s.gen.Load()}
	switch s.state.Load() {
	case stateServing:
		st.State = "serving"
	case stateDraining:
		st.State = "draining"
	default:
		st.State = "down"
	}
	s.repMu.Lock()
	rep, ns, lastErr := s.lastReport, s.lastNS, s.lastErr
	s.repMu.Unlock()
	st.LastRecoveryNS = ns
	st.Slots = rep.Slots
	st.Recovered = rep.Recovered
	st.Reexecuted = rep.Reexecuted
	st.RolledBack = rep.RolledBack
	st.RolledForward = rep.RolledForward
	st.Quarantined = rep.Quarantined
	for _, e := range rep.Errors {
		st.Errors = append(st.Errors, e.Error())
	}
	if lastErr != nil {
		st.LastError = lastErr.Error()
	}
	return st
}

// LastReport returns the most recent recovery report (zero before the first
// recovery) and the error that stopped recovery, if any.
func (s *Supervisor) LastReport() (txn.RecoveryReport, error) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.lastReport, s.lastErr
}
