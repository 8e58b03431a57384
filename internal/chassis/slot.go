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

// Slot is one worker's transaction slot (one per thread, like the paper's
// per-thread v_log): its persistent header, whose first word is the status
// word seq<<2 | phase, and data log; the handle on its allocator arena; and
// the volatile state of its running transaction. Run holds the slot lock for
// the whole transaction, so nothing here is shared while one runs.
type Slot struct {
	mu sync.Mutex
	c  *Chassis

	// ID is the worker slot id, Hdr the address of the slot's header.
	ID  int
	Hdr uint64
	// Log is the slot's data log.
	Log *plog.DataLog
	// Tx holds the running transaction's allocator reservations.
	Tx *pmem.Tx
	// Seq caches the sequence number of the slot's last transaction.
	Seq uint64
	// Lines tracks the running transaction's lines; Run resets it.
	Lines Lines
	// Buf stages bytes on their way to a persistent store: a log entry's
	// pre-store image, clobber's v_log entry.
	Buf []byte
	// Span measures the running transaction.
	Span obs.Span

	// quarantined, when non-nil, records why attach or recovery set the
	// slot aside. Its persistent state is left untouched for forensics.
	quarantined error
}

// Pool returns the pool the slot lives in.
func (s *Slot) Pool() *nvm.Pool { return s.c.pool }

// Quarantined reports why the slot was set aside, or nil.
func (s *Slot) Quarantined() error { return s.quarantined }

// Quarantine sets the slot aside with cause err (the first cause wins) and
// reports the Quarantined outcome.
func (s *Slot) Quarantine(err error) (Outcome, error) {
	if s.quarantined == nil {
		s.quarantined = fmt.Errorf("%s: slot %d: %w", s.c.spec.Pkg, s.ID, err)
		s.c.stats.Quarantined.Add(1)
	}
	return Quarantined, nil
}

// Corrupt quarantines the slot for damaged persistent state, with a cause
// wrapping txn.ErrCorruptLog.
func (s *Slot) Corrupt(format string, a ...any) (Outcome, error) {
	return s.Quarantine(fmt.Errorf("%w: "+format, append([]any{txn.ErrCorruptLog}, a...)...))
}

// SetStatus persists the status word seq<<2 | phase.
func (s *Slot) SetStatus(seq, phase uint64) {
	if s.c.spec.NoStatus {
		return
	}
	s.c.pool.Store64(s.Hdr, seq<<2|phase)
	s.c.pool.CommitPersist(s.Hdr, 8)
}

func (s *Slot) run(name string, args *txn.Args, fn txn.TxFunc, recovered bool) error {
	c := s.c
	if args == nil {
		args = txn.NoArgs
	}
	s.Span = c.probe.Start(s.ID, name)
	seq := s.Seq + 1
	m := c.spec.NewMem(s, seq)
	if err := m.Begin(name, args); err != nil {
		return err
	}
	s.Span.BeginDone(seq)
	s.Seq = seq
	s.Log.Reset()
	s.Lines.Reset()
	// Whatever way the txfunc leaves without committing — error, panic,
	// simulated crash — its reservations are dropped and the arena released.
	defer s.Tx.Abort()
	if err := fn(m, args); err != nil {
		err = m.Abort(err)
		s.Span.Aborted()
		return err
	}
	s.Span.ExecDone()
	m.Commit()
	c.stats.Committed.Add(1)
	if recovered {
		c.stats.Recovered.Add(1)
	}
	s.Span.Committed(recovered)
	return nil
}

// Reexecute runs txfunc name again with args, as the recovery of the slot's
// interrupted transaction.
func (s *Slot) Reexecute(name string, args *txn.Args) (Outcome, error) {
	fn, err := s.c.reg.Lookup(name)
	if err != nil {
		return Idle, fmt.Errorf("%s: slot %d: recovery needs txfunc %q: %w", s.c.spec.Pkg, s.ID, name, err)
	}
	if err := s.run(name, args, fn, true); err != nil {
		return Idle, fmt.Errorf("%s: slot %d: re-execution of %q failed: %w", s.c.spec.Pkg, s.ID, name, err)
	}
	return Reexecuted, nil
}

// Commit ends an undo-family transaction (clobber, undolog, atlas): the
// dirty lines and the allocator record durable under one fence, then the
// idle status, which commits the record, then the record's apply, unfenced
// — the next begin's fence retires it. retired says a fence has run since
// the previous transaction's apply; otherwise Publish pays one for it.
func (s *Slot) Commit(retired bool) {
	p := s.c.pool
	p.FlushOptLines(s.Lines.Dirty)
	if retired {
		s.Tx.Retired()
	}
	if s.c.spec.NoStatus {
		// The status word is never written: the record commits with this
		// fence.
		s.Tx.Publish(0)
	} else {
		s.Tx.Publish(s.Seq)
	}
	p.CommitFence()
	s.Span.FlushFence(len(s.Lines.Dirty))
	s.SetStatus(s.Seq, PhaseIdle)
	s.Tx.Apply()
}

// LogUndo appends the pre-store image of each range to the data log, one
// entry per range, and fences them all through one CommitFence: every entry
// is durable before any store it protects runs (CommitFence blocks), while
// concurrent slots' log fences can share one epoch. No fence orders the
// entries among themselves, so a crash before the fence may keep any subset
// of them; several entries therefore append as one plog group, whose torn
// member a strict scan reads as the end of the log. None of the stores has
// run then, so whichever prefix survives restores harmlessly.
func (s *Slot) LogUndo(ranges []txn.Range, kind obs.Kind) {
	if len(ranges) == 0 {
		return
	}
	c := s.c
	opts := plog.AppendOptions{NoFence: true}
	if len(ranges) > 1 {
		opts.Group = s.Log.GroupTag()
	}
	for _, r := range ranges {
		if uint64(cap(s.Buf)) < r.Len {
			s.Buf = make([]byte, r.Len, 2*r.Len)
		}
		old := s.Buf[:r.Len]
		c.pool.Load(r.Addr, old)
		nbytes, err := s.Log.Append(s.Seq, r.Addr, old, opts)
		if err != nil {
			panic(fmt.Errorf("%w: %v", ErrTxTooLarge, err))
		}
		c.stats.LogEntries.Add(1)
		c.stats.LogBytes.Add(int64(nbytes))
		c.probe.LogAppend(kind, s.ID, s.Seq, nbytes)
	}
	c.pool.CommitFence()
}

// InPool checks that every entry lies inside the pool and quarantines the
// slot if one does not: checksummed entries carry the addresses they were
// logged with, but a log is checked before it touches memory all the same.
func (s *Slot) InPool(entries []plog.Entry) bool {
	size := s.c.pool.Size()
	for _, en := range entries {
		if end := en.Addr + uint64(len(en.Data)); end > size || end < en.Addr {
			s.Corrupt("log entry addresses [%#x,%#x) outside pool", en.Addr, end)
			return false
		}
	}
	return true
}

// Restore writes the entries' images back newest first — where two overlap,
// the older image lands last — flushing each, under one fence. An entry
// outside the pool quarantines the slot and nothing is restored.
func (s *Slot) Restore(entries []plog.Entry) bool {
	if !s.InPool(entries) {
		return false
	}
	p := s.c.pool
	for i := len(entries) - 1; i >= 0; i-- {
		p.Store(entries[i].Addr, entries[i].Data)
		p.FlushOpt(entries[i].Addr, uint64(len(entries[i].Data)))
	}
	if len(entries) > 0 {
		p.Fence()
	}
	return true
}

// Rollback restores an undo log's entries and marks the slot idle: how an
// undo engine aborts, and how it recovers. The transaction's allocations
// and frees were only reserved, so the heap has nothing to undo.
func (s *Slot) Rollback(entries []plog.Entry) Outcome {
	if !s.Restore(entries) {
		return Quarantined
	}
	s.SetStatus(s.Seq, PhaseIdle)
	return RolledBack
}

// Alloc reserves size bytes in the slot's arena: a block that becomes
// persistent only once the transaction commits.
func (s *Slot) Alloc(size uint64) (txn.Addr, error) {
	addr, err := s.Tx.Alloc(size)
	return addr, tooLarge(err)
}

// Free queues the block: it goes on the free list when the commit is
// applied, so an interrupted transaction can still read it.
func (s *Slot) Free(addr txn.Addr) error { return tooLarge(s.Tx.Free(addr)) }

// tooLarge reports an overflowing allocator record as ErrTxTooLarge.
func tooLarge(err error) error {
	if errors.Is(err, pmem.ErrRecordFull) {
		return fmt.Errorf("%w: %v", ErrTxTooLarge, err)
	}
	return err
}
