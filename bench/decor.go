package main

import (
	"time"

	"clobbernvm/internal/memcache"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/txn"
)

// The decorators below sit at interface seams the repository already has
// and add nothing to the program itself: spans come only from here.

// tracedTarget opens the root span of an op around the worker's call.
type tracedTarget struct {
	target
	tr   *tracer
	kind spanKind
}

func (t *tracedTarget) put(key, val []byte) error {
	s := t.tr.begin(t.kind, false)
	err := t.target.put(key, val)
	t.tr.end(s)
	return err
}

func (t *tracedTarget) get(key []byte) ([]byte, bool, error) {
	s := t.tr.begin(t.kind, false)
	val, found, err := t.target.get(key)
	t.tr.end(s)
	return val, found, err
}

// tracedEngine is a pds.Engine given to OpenStructure or memcache.New in
// place of the clobber engine. Run and RunRO are spans; Register wraps each
// txfunc in a span and hands it a txn.Mem that times Alloc and Free and
// counts loads and stores.
type tracedEngine struct {
	pds.Engine
	tr *tracer

	// loads and stores count txn.Mem accesses made by txfuncs while
	// tracing is on.
	loads, stores int64
	// recoverNS and recovered describe the last Recover or RecoverReport.
	recoverNS int64
	recovered int
}

func (e *tracedEngine) Register(name string, fn txn.TxFunc) {
	e.Engine.Register(name, func(m txn.Mem, args *txn.Args) error {
		s := e.tr.begin(spanExec, true)
		if s < 0 {
			return fn(m, args)
		}
		err := fn(&tracedMem{Mem: m, e: e}, args)
		e.tr.end(s)
		return err
	})
}

func (e *tracedEngine) Run(slot int, name string, args *txn.Args) error {
	s := e.tr.begin(spanRun, true)
	err := e.Engine.Run(slot, name, args)
	e.tr.end(s)
	return err
}

func (e *tracedEngine) RunRO(slot int, fn txn.ROFunc) error {
	s := e.tr.begin(spanRunRO, false)
	err := e.Engine.RunRO(slot, fn)
	e.tr.end(s)
	return err
}

func (e *tracedEngine) Recover() (int, error) {
	start := time.Now()
	n, err := e.Engine.Recover()
	e.recoverNS, e.recovered = int64(time.Since(start)), n
	return n, err
}

// RecoverReport keeps the decorated engine a txn.RecoveryReporter, which is
// what the memcache supervisor recovers through.
func (e *tracedEngine) RecoverReport() (txn.RecoveryReport, error) {
	rr, ok := e.Engine.(txn.RecoveryReporter)
	if !ok {
		n, err := e.Recover()
		return txn.RecoveryReport{Recovered: n}, err
	}
	start := time.Now()
	rep, err := rr.RecoverReport()
	e.recoverNS, e.recovered = int64(time.Since(start)), rep.Recovered
	return rep, err
}

// tracedMem is the txn.Mem a traced txfunc sees.
type tracedMem struct {
	txn.Mem
	e *tracedEngine
}

func (m *tracedMem) Load(addr txn.Addr, buf []byte) {
	m.e.loads++
	m.Mem.Load(addr, buf)
}

func (m *tracedMem) Load64(addr txn.Addr) uint64 {
	m.e.loads++
	return m.Mem.Load64(addr)
}

func (m *tracedMem) Store(addr txn.Addr, data []byte) {
	m.e.stores++
	m.Mem.Store(addr, data)
}

func (m *tracedMem) Store64(addr txn.Addr, v uint64) {
	m.e.stores++
	m.Mem.Store64(addr, v)
}

func (m *tracedMem) Alloc(size uint64) (txn.Addr, error) {
	s := m.e.tr.begin(spanAlloc, true)
	addr, err := m.Mem.Alloc(size)
	m.e.tr.end(s)
	return addr, err
}

func (m *tracedMem) Free(addr txn.Addr) error {
	s := m.e.tr.begin(spanFree, true)
	err := m.Mem.Free(addr)
	m.e.tr.end(s)
	return err
}

// tracedBackend is a memcache.Backend given to NewServer or NewSession in
// place of the supervisor. Only the two calls the workloads issue are spans.
type tracedBackend struct {
	memcache.Backend
	tr *tracer
}

func (b *tracedBackend) SetFlags(slot int, key, value []byte, flags uint32) error {
	s := b.tr.begin(spanBackend, false)
	err := b.Backend.SetFlags(slot, key, value, flags)
	b.tr.end(s)
	return err
}

func (b *tracedBackend) GetWithCAS(slot int, key []byte) ([]byte, uint32, uint64, bool, error) {
	s := b.tr.begin(spanBackend, false)
	val, flags, cas, found, err := b.Backend.GetWithCAS(slot, key)
	b.tr.end(s)
	return val, flags, cas, found, err
}
