// Package chassis is what the four failure-atomicity engines — clobber,
// undolog (PMDK), redolog (Mnemosyne) and atlas — share, written once: the
// anchor that finds the slot table, the slot with its status word, data log
// and allocator handle, the Run scaffold, the recovery loop with its
// quarantine, the per-transaction line table and the read-only view. An
// engine on the chassis is only its logging policy: what its Mem logs before
// a store, whether its loads interpose, what begin, abort and commit add,
// and how one slot recovers. The engines therefore differ in what they log
// and how they recover, and in nothing else — the premise of the paper's
// comparison.
//
// The chassis runs once per transaction and never per store: Store, Load
// and their logging stay concrete methods on each engine's own Mem, and the
// chassis pieces they use (Lines, Slot.LogUndo) are direct calls.
package chassis

import (
	"errors"
	"fmt"
	"sync"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// Options configures engine creation; every engine takes these.
type Options struct {
	// Slots is the number of worker slots (default txn.MaxSlots).
	Slots int
	// DataLogCap is the per-slot data-log capacity (default 1 MiB).
	DataLogCap uint64
	// FreeLogCap bounds the frees of one transaction (default 4096): it
	// sizes the slot's allocator redo record.
	FreeLogCap int
	// LineLog formats the data log with the write-combined line writer:
	// entries stream through a 64-byte staging buffer, one Store+FlushOpt
	// per touched line, validated by per-line validity words. Attach
	// detects the mode from the log magic, so only Create needs the flag.
	LineLog bool
}

func (o *Options) fill() {
	if o.Slots <= 0 || o.Slots > txn.MaxSlots {
		o.Slots = txn.MaxSlots
	}
	if o.DataLogCap == 0 {
		o.DataLogCap = 1 << 20
	}
	if o.FreeLogCap == 0 {
		o.FreeLogCap = 4096
	}
}

// The phases of a slot's status word, seq<<2 | phase. PhaseIdle is the
// committed state of the slot's last transaction, and PhaseOngoing the one
// phase pmem's commit condition reads as "not committed".
const (
	PhaseIdle    = 0
	PhaseOngoing = 1
)

// ErrTxTooLarge reports exhaustion of a per-transaction log area: the data
// log, the allocator record, or clobber's v_log buffer.
var ErrTxTooLarge = errors.New("transaction exceeds log capacity")

// Mem is one transaction's engine side: the txfunc's memory view, plus what
// the engine adds at begin, abort and commit. Run calls each of the three
// once.
type Mem interface {
	txn.Mem
	// Begin persists what must precede the txfunc's first store.
	Begin(name string, args *txn.Args) error
	// Abort ends a transaction whose txfunc returned err and returns what
	// Run returns.
	Abort(err error) error
	// Commit makes the transaction durable.
	Commit()
}

// Outcome is what recovery did with one slot.
type Outcome int

const (
	// Idle: nothing to recover.
	Idle Outcome = iota
	Reexecuted
	RolledBack
	RolledForward
	Quarantined
)

// Spec is what one engine tells the chassis: where its anchor lives and
// what it holds, how its slots are laid out, and its policy.
type Spec struct {
	// Name names the engine in figures and in its probe.
	Name string
	// Pkg prefixes the engine's errors.
	Pkg string
	// Root is the pool root slot holding the anchor's address, and Magic
	// the anchor's first word.
	Root  int
	Magic uint64
	// Words is the number of engine words the anchor keeps between the slot
	// count and the slot table (clobber's ArgsCap, atlas's ring base).
	Words int
	// Header is the number of slot header bytes Create zeroes; the status
	// word is the first of them.
	Header uint64
	// LogAt places the data log in the slot, given the anchor's engine
	// words; nil puts it right after the header.
	LogAt func(words []uint64) uint64
	// NewMem returns the engine's Mem for a transaction with sequence number
	// seq on s.
	NewMem func(s *Slot, seq uint64) Mem
	// Recover recovers one slot whose status word reads seq and phase.
	Recover func(s *Slot, seq, phase uint64) (Outcome, error)
	// Parallel recovers the slots concurrently.
	Parallel bool
	// NoStatus leaves the status word unwritten (clobber without a v_log):
	// the allocator record then commits with the commit fence.
	NoStatus bool
}

// Base is the plumbing engines and meters share: the pool they run on, the
// txfunc registry, the statistics and the probe.
type Base struct {
	pool  *nvm.Pool
	reg   txn.Registry
	stats txn.Stats
	probe *obs.Probe
	name  string
}

func (b *Base) init(name string, p *nvm.Pool) {
	b.name, b.pool, b.probe = name, p, obs.NewProbe(name)
}

// Name implements txn.Engine.
func (b *Base) Name() string { return b.name }

// Register implements txn.Engine.
func (b *Base) Register(name string, fn txn.TxFunc) { b.reg.Register(name, fn) }

// Stats implements txn.Engine.
func (b *Base) Stats() *txn.Stats { return &b.stats }

// Pool returns the pool the engine runs on.
func (b *Base) Pool() *nvm.Pool { return b.pool }

// Probe returns the engine's latency and trace instruments.
func (b *Base) Probe() *obs.Probe { return b.probe }

// RunRO implements txn.Engine for engines that do not interpose on reads:
// the operation reads the pool directly.
func (b *Base) RunRO(slot int, fn txn.ROFunc) error {
	if err := txn.CheckSlot(slot); err != nil {
		return err
	}
	return fn(roMem{b.pool})
}

// Chassis is a failure-atomicity engine less its policy: a Base, the
// allocator and the slot table.
type Chassis struct {
	Base
	alloc *pmem.Allocator
	spec  Spec
	slots []*Slot
}

var (
	_ txn.Engine           = (*Chassis)(nil)
	_ txn.RecoveryReporter = (*Chassis)(nil)
)

// Allocator returns the engine's persistent allocator. (Meters do not
// expose theirs: structures that allocate outside transactions refuse them.)
func (c *Chassis) Allocator() *pmem.Allocator { return c.alloc }

func (c *Chassis) addSlot(i int, base uint64) *Slot {
	s := &Slot{c: c, ID: i, Hdr: base, Tx: c.alloc.Tx(i)}
	c.slots = append(c.slots, s)
	return s
}

func (c *Chassis) logAt(words []uint64) uint64 {
	if c.spec.LogAt == nil {
		return c.spec.Header
	}
	return c.spec.LogAt(words)
}

// Create formats a fresh engine on the pool: an anchor (magic, slot count,
// the engine's words, the slot table) published in root slot spec.Root, and
// per worker a slot of a zeroed header followed by a data log, bound to its
// arena's allocator handle. words, if not nil, runs once the anchor is
// allocated and returns the engine's anchor words. The allocator must
// already be created.
func Create(p *nvm.Pool, a *pmem.Allocator, o Options, spec Spec, words func() ([]uint64, error)) (*Chassis, error) {
	o.fill()
	c := &Chassis{alloc: a, spec: spec}
	c.init(spec.Name, p)
	table := 16 + 8*uint64(spec.Words)
	size := table + uint64(o.Slots)*8
	anchor, err := a.Alloc(0, size)
	if err != nil {
		return nil, fmt.Errorf("%s: create anchor: %w", spec.Pkg, err)
	}
	var w []uint64
	if words != nil {
		if w, err = words(); err != nil {
			return nil, err
		}
	}
	p.Store64(anchor, spec.Magic)
	p.Store64(anchor+8, uint64(o.Slots))
	for i, x := range w {
		p.Store64(anchor+16+uint64(i)*8, x)
	}
	logAt := c.logAt(w)
	for i := 0; i < o.Slots; i++ {
		base, err := a.Alloc(i, logAt+plog.DataLogSize(o.DataLogCap))
		if err != nil {
			return nil, fmt.Errorf("%s: create slot %d: %w", spec.Pkg, i, err)
		}
		p.Store(base, make([]byte, spec.Header))
		p.Persist(base, spec.Header)
		s := c.addSlot(i, base)
		s.Log = plog.FormatDataLogMode(p, i, base+logAt, o.DataLogCap, o.LineLog)
		if err := s.Tx.Bind(base, o.FreeLogCap); err != nil {
			return nil, fmt.Errorf("%s: create slot %d: %w", spec.Pkg, i, err)
		}
		p.Store64(anchor+table+uint64(i)*8, base)
	}
	p.Persist(anchor, size)
	p.Store64(p.RootSlot(spec.Root), anchor)
	p.Persist(p.RootSlot(spec.Root), 8)
	return c, nil
}

// Attach opens an engine Create formatted (after restart or crash) and
// returns it with its anchor words. Register all txfuncs, then recover. A
// damaged anchor fails the attach — there is no engine without it — while
// a slot whose data log fails validation is quarantined, so one damaged
// worker cannot take the whole pool down.
func Attach(p *nvm.Pool, a *pmem.Allocator, spec Spec) (*Chassis, []uint64, error) {
	anchor := p.Load64(p.RootSlot(spec.Root))
	table := 16 + 8*uint64(spec.Words)
	if anchor == 0 || anchor+table > p.Size() || p.Load64(anchor) != spec.Magic {
		return nil, nil, fmt.Errorf("%s: pool has no %s engine", spec.Pkg, spec.Pkg)
	}
	n := int(p.Load64(anchor + 8))
	if n <= 0 || n > txn.MaxSlots {
		return nil, nil, fmt.Errorf("%s: corrupt anchor: %d slots", spec.Pkg, n)
	}
	if anchor+table+uint64(n)*8 > p.Size() {
		return nil, nil, fmt.Errorf("%s: corrupt anchor: slot table outside pool", spec.Pkg)
	}
	w := make([]uint64, spec.Words)
	for i := range w {
		if w[i] = p.Load64(anchor + 16 + uint64(i)*8); w[i] > p.Size() {
			return nil, nil, fmt.Errorf("%s: corrupt anchor: word %d is %#x", spec.Pkg, i, w[i])
		}
	}
	c := &Chassis{alloc: a, spec: spec}
	c.init(spec.Name, p)
	logAt := c.logAt(w)
	for i := 0; i < n; i++ {
		base := p.Load64(anchor + table + uint64(i)*8)
		s := c.addSlot(i, base)
		if base+logAt > p.Size() || base+logAt < base {
			s.Corrupt("slot base %#x outside pool", base)
			continue
		}
		log, err := plog.AttachDataLog(p, i, base+logAt)
		if err != nil {
			s.Quarantine(err)
			continue
		}
		s.Log = log
		s.Seq = p.Load64(base) >> 2
	}
	return c, w, nil
}

// Slots returns the slot table.
func (c *Chassis) Slots() []*Slot { return c.slots }

// Run implements txn.Engine: it executes the registered txfunc
// failure-atomically on the given worker slot.
func (c *Chassis) Run(slotID int, name string, args *txn.Args) error {
	fn, err := c.reg.Lookup(name)
	if err != nil {
		return err
	}
	if err := txn.CheckSlot(slotID); err != nil || slotID >= len(c.slots) {
		return fmt.Errorf("%w: %d (engine has %d)", txn.ErrBadSlot, slotID, len(c.slots))
	}
	s := c.slots[slotID]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined != nil {
		return fmt.Errorf("%w: %s slot %d: %v", txn.ErrSlotQuarantined, c.spec.Pkg, s.ID, s.quarantined)
	}
	return s.run(name, args, fn, false)
}

// Recover implements txn.Engine; see RecoverReport for the full outcome.
func (c *Chassis) Recover() (int, error) {
	rep, err := c.RecoverReport()
	return rep.Recovered, err
}

// RecoverReport implements txn.RecoveryReporter: it recovers every slot by
// the engine's policy. Corrupt logs never panic: a slot whose log fails
// validation, or whose recovery panics on damaged state, is quarantined —
// its persistent state left untouched, Run on it returning
// txn.ErrSlotQuarantined — and the remaining slots proceed. The returned
// error is reserved for conditions that make the engine unusable (a missing
// txfunc registration, a failing re-execution); a simulated-crash panic
// (nvm.ErrCrash) still propagates so crash-during-recovery harnesses keep
// working. The heap needs no step of its own: pmem.Attach has already
// settled every arena by its redo record.
func (c *Chassis) RecoverReport() (txn.RecoveryReport, error) {
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		rep      = txn.RecoveryReport{Slots: len(c.slots)}
		firstErr error
		crash    any
	)
	one := func(s *Slot) {
		out, r, err := c.recoverSlot(s)
		mu.Lock()
		defer mu.Unlock()
		if r != nil {
			if crash == nil {
				crash = r
			}
			return
		}
		switch out {
		case Reexecuted:
			rep.Reexecuted++
		case RolledBack:
			rep.RolledBack++
		case RolledForward:
			rep.RolledForward++
		}
		if out != Idle && out != Quarantined {
			rep.Recovered++
		}
		if err != nil && out != Quarantined && firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range c.slots {
		if c.spec.Parallel {
			wg.Add(1)
			go func() {
				defer wg.Done()
				one(s)
			}()
		} else if one(s); crash != nil {
			break
		}
	}
	wg.Wait()
	if crash != nil {
		panic(crash)
	}
	for _, s := range c.slots {
		if s.quarantined != nil {
			rep.Quarantined++
			rep.Errors = append(rep.Errors, s.quarantined)
		}
	}
	return rep, firstErr
}

// recoverSlot reads s's status word and hands it to the engine's policy.
// A panic on damaged state becomes a quarantine; a simulated crash is
// handed back for RecoverReport to re-raise.
func (c *Chassis) recoverSlot(s *Slot) (out Outcome, crash any, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, nvm.ErrCrash) {
				crash = r
				return
			}
			out, err = s.Corrupt("recovery panic: %v", r)
		}
	}()
	if s.quarantined != nil {
		return Quarantined, nil, nil
	}
	status := c.pool.Load64(s.Hdr)
	s.Seq = status >> 2
	out, err = c.spec.Recover(s, s.Seq, status&3)
	if out == RolledBack || out == RolledForward {
		c.stats.Recovered.Add(1)
		c.probe.RecoveryEvent(s.ID, s.Seq, "")
	}
	return out, nil, err
}

// Meter is the chassis of a measurement-only engine (the iDO and JUSTDO
// meters): a Base whose Run executes the txfunc under the meter's Mem, with
// no slot table, no log and nothing to recover.
type Meter struct {
	Base
	newMem func() Mem
}

var (
	_ txn.Engine           = (*Meter)(nil)
	_ txn.RecoveryReporter = (*Meter)(nil)
)

// NewMeter returns a meter whose transactions run under newMem's Mem.
func NewMeter(name string, p *nvm.Pool, newMem func() Mem) *Meter {
	m := &Meter{newMem: newMem}
	m.init(name, p)
	return m
}

// Run implements txn.Engine.
func (m *Meter) Run(slot int, name string, args *txn.Args) error {
	fn, err := m.reg.Lookup(name)
	if err != nil {
		return err
	}
	if err := txn.CheckSlot(slot); err != nil {
		return err
	}
	if args == nil {
		args = txn.NoArgs
	}
	sp := m.probe.Start(slot, name)
	mem := m.newMem()
	if err := mem.Begin(name, args); err != nil {
		return err
	}
	sp.BeginDone(0)
	if err := fn(mem, args); err != nil {
		sp.Aborted()
		return mem.Abort(err)
	}
	sp.ExecDone()
	mem.Commit()
	m.stats.Committed.Add(1)
	sp.Committed(false)
	return nil
}

// Recover implements txn.Engine: a meter keeps no persistent logs.
func (m *Meter) Recover() (int, error) { return 0, nil }

// RecoverReport implements txn.RecoveryReporter: there is never anything
// to recover or quarantine.
func (m *Meter) RecoverReport() (txn.RecoveryReport, error) {
	return txn.RecoveryReport{}, nil
}

// roMem is the read-only view of RunRO: direct pool reads, no
// interposition.
type roMem struct{ pool *nvm.Pool }

var _ txn.Mem = roMem{}

func (r roMem) Load(addr uint64, buf []byte) { r.pool.Load(addr, buf) }
func (r roMem) Load64(addr uint64) uint64    { return r.pool.Load64(addr) }
func (r roMem) Store(addr uint64, data []byte) {
	panic("store inside a read-only operation")
}
func (r roMem) Store64(addr uint64, v uint64) {
	panic("store inside a read-only operation")
}
func (r roMem) Alloc(size uint64) (txn.Addr, error) {
	return 0, errors.New("alloc inside a read-only operation")
}
func (r roMem) Free(addr txn.Addr) error {
	return errors.New("free inside a read-only operation")
}
