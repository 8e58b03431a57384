package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"clobbernvm/internal/harness"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// counters are the cumulative persistence counts a workload's per-write
// metrics are differences of.
type counters struct {
	fences, flushes, bytesStored, logBytes int64
}

func (a counters) sub(b counters) counters {
	return counters{a.fences - b.fences, a.flushes - b.flushes, a.bytesStored - b.bytesStored, a.logBytes - b.logBytes}
}

// env is a set-up system under test: a structure in this process or a
// server child.
type env interface {
	// targets returns one target per worker.
	targets() []target
	counters() (counters, error)
	// crash injects one power failure under writes of w and returns once
	// the system serves again.
	crash(w *worker, rng *rand.Rand) error
	// peakRSSMB is the resident-set high-water mark of the process that
	// holds the pool.
	peakRSSMB() (float64, error)
	close() error
}

// storeTarget drives a pds structure on one engine slot.
type storeTarget struct {
	st   pds.Store
	slot int
}

func (t *storeTarget) put(key, val []byte) error { return t.st.Insert(t.slot, key, val) }

func (t *storeTarget) get(key []byte) ([]byte, bool, error) { return t.st.Get(t.slot, key) }

func (t *storeTarget) putMany(n int, kv func(int) ([]byte, []byte)) error {
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if err := t.st.Insert(t.slot, k, v); err != nil {
			return err
		}
	}
	return nil
}

func (t *storeTarget) getMany(n int, key func(int) []byte, each func(int, []byte, bool)) error {
	for i := 0; i < n; i++ {
		v, found, err := t.st.Get(t.slot, key(i))
		if err != nil {
			return err
		}
		each(i, v, found)
	}
	return nil
}

// libEnv is the clobber engine with every option at its default, built the
// way cmd/benchfigs builds it (harness.NewSetup), under one pds structure.
type libEnv struct {
	sp    *spec
	pool  *nvm.Pool
	alloc *pmem.Allocator
	eng   pds.Engine
	tgts  []*storeTarget
	// wrap, when set, decorates the engine before the structure is opened
	// on it (traced pass only).
	wrap func(pds.Engine) pds.Engine
	// image is the post-preload pool, taken by snapshot for restore.
	image []byte
}

func newLibEnv(sp *spec, wrap func(pds.Engine) pds.Engine) (*libEnv, error) {
	sc := harness.Scale{PoolBytes: sp.poolBytes, Latency: nvm.DefaultLatency, Threads: []int{sp.workers}}
	setup, err := harness.NewSetup(harness.EngineClobber, sc)
	if err != nil {
		return nil, err
	}
	e := &libEnv{sp: sp, pool: setup.Pool, alloc: setup.Alloc, wrap: wrap}
	for i := 0; i < sp.workers; i++ {
		e.tgts = append(e.tgts, &storeTarget{slot: i})
	}
	return e, e.open(setup.Engine)
}

// open puts the structure on eng and points the targets at it.
func (e *libEnv) open(eng pds.Engine) error {
	if e.wrap != nil {
		eng = e.wrap(eng)
	}
	st, err := harness.OpenStructure(e.sp.structure, eng)
	if err != nil {
		return err
	}
	e.eng = eng
	for _, t := range e.tgts {
		t.st = st
	}
	return nil
}

func (e *libEnv) targets() []target {
	out := make([]target, len(e.tgts))
	for i, t := range e.tgts {
		out[i] = t
	}
	return out
}

func (e *libEnv) counters() (counters, error) {
	ps, ts := e.pool.Stats(), e.eng.Stats().Snapshot()
	return counters{ps.Fences, ps.Flushes, ps.BytesStored, ts.TotalLogBytes()}, nil
}

// reattach opens allocator, engine and structure on the pool's current
// contents: the restart path.
func (e *libEnv) reattach() error {
	alloc, err := pmem.Attach(e.pool)
	if err != nil {
		return err
	}
	eng, err := harness.AttachEngine(harness.EngineClobber, e.pool, alloc)
	if err != nil {
		return err
	}
	e.alloc = alloc
	return e.open(eng)
}

// snapshot records the pool as it is now; restore puts it back.
func (e *libEnv) snapshot() { e.image = e.pool.Snapshot() }

func (e *libEnv) restore() error {
	if err := e.pool.Restore(e.image); err != nil {
		return err
	}
	e.pool.SetFastPath(true)
	return e.reattach()
}

// crash arms a power failure at a seeded persist point, writes until it
// fires, drops the cache and recovers: Attach, re-register, Recover.
func (e *libEnv) crash(w *worker, rng *rand.Rand) error {
	e.pool.ScheduleCrashAt(nvm.CrashAtAny, 1+rng.Int63n(400))
	fired := false
	for n := 0; n < 1000 && !fired; n++ {
		fired = crashes(func() { w.write(w.pickWrite()) })
	}
	if !fired {
		return errors.New("armed crash never fired")
	}
	w.settle()
	e.pool.Crash()
	if err := e.reattach(); err != nil {
		return fmt.Errorf("after crash: %w", err)
	}
	if _, err := e.eng.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return nil
}

// crashes runs fn and reports whether it hit the simulated power failure.
func crashes(fn func()) (fired bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, nvm.ErrCrash) {
				panic(r)
			}
			fired = true
		}
	}()
	fn()
	return false
}

func (e *libEnv) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

func (e *libEnv) close() error { return nil }

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
