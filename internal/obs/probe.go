package obs

import "time"

// Probe bundles one engine's per-phase latency instruments so the engine
// makes a single activity check per transaction. Histograms live in the
// Default registry under "txn.<engine>.<phase>_ns":
//
//	begin  — begin-marker / v_log persist, up to the point the txfunc
//	         starts (clobber's two-fence budget spends one here)
//	exec   — the txfunc body, including in-line log appends
//	commit — commit flush + fence + allocator-record apply
//	abort  — whole-transaction latency of aborted runs
//
// A nil *Probe is valid and records nothing, so callers never branch.
type Probe struct {
	engine string
	begin  *Histogram
	exec   *Histogram
	commit *Histogram
	abort  *Histogram
	txns   *Counter
}

// NewProbe returns the probe for an engine name, with its instruments
// registered in Default.
func NewProbe(engine string) *Probe {
	prefix := "txn." + engine + "."
	return &Probe{
		engine: engine,
		begin:  Default.Histogram(prefix + "begin_ns"),
		exec:   Default.Histogram(prefix + "exec_ns"),
		commit: Default.Histogram(prefix + "commit_ns"),
		abort:  Default.Histogram(prefix + "abort_ns"),
		txns:   Default.Counter(prefix + "count"),
	}
}

// Engine returns the probe's engine name ("" for a nil probe).
func (p *Probe) Engine() string {
	if p == nil {
		return ""
	}
	return p.engine
}

// LogAppend traces one data-log entry (clobber_log for the clobber
// engine, undo/redo/Atlas log otherwise). Trace-only: entry and byte
// counts already live in the engine's txn.Stats.
func (p *Probe) LogAppend(kind Kind, slot int, seq uint64, bytes int) {
	if p == nil || !TraceEnabled() {
		return
	}
	EmitEvent(Event{Kind: kind, Engine: p.engine, Slot: slot, Seq: seq, Bytes: int64(bytes)})
}

// Span measures one transaction through its phases. The zero Span is
// inactive and every method on it returns immediately — engines create
// one unconditionally and pay a single Enabled/TraceEnabled check.
type Span struct {
	p      *Probe
	slot   int
	seq    uint64
	name   string
	active bool
	start  time.Time
	mark   time.Time
}

// Start opens a span for one transaction on a worker slot. Inactive
// (zero-cost) unless metrics or tracing are on.
func (p *Probe) Start(slot int, name string) Span {
	if p == nil || (!Enabled() && !TraceEnabled()) {
		return Span{}
	}
	now := time.Now()
	return Span{p: p, slot: slot, name: name, active: true, start: now, mark: now}
}

// lap returns the time since the last mark and advances it.
func (s *Span) lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.mark)
	s.mark = now
	return d
}

// BeginDone records the begin phase (engine begin-marker persisted, seq
// assigned) and emits the begin event.
func (s *Span) BeginDone(seq uint64) {
	if !s.active {
		return
	}
	s.seq = seq
	d := s.lap()
	if Enabled() {
		s.p.begin.Observe(s.slot, d.Nanoseconds())
	}
	if TraceEnabled() {
		EmitEvent(Event{Kind: KindBegin, Engine: s.p.engine, Slot: s.slot, Seq: seq,
			TxFunc: s.name, DurNanos: d.Nanoseconds()})
	}
}

// VLogAppend traces the v_log entry written during begin (clobber only).
func (s *Span) VLogAppend(bytes int) {
	if !s.active || !TraceEnabled() {
		return
	}
	EmitEvent(Event{Kind: KindVLogAppend, Engine: s.p.engine, Slot: s.slot, Seq: s.seq,
		TxFunc: s.name, Bytes: int64(bytes)})
}

// ExecDone records the txfunc-body phase.
func (s *Span) ExecDone() {
	if !s.active {
		return
	}
	d := s.lap()
	if Enabled() {
		s.p.exec.Observe(s.slot, d.Nanoseconds())
	}
}

// FlushFence traces the commit-time flush of dirtyLines dirty lines and
// its ordering fence.
func (s *Span) FlushFence(dirtyLines int) {
	if !s.active || !TraceEnabled() {
		return
	}
	EmitEvent(Event{Kind: KindFlushFence, Engine: s.p.engine, Slot: s.slot, Seq: s.seq,
		TxFunc: s.name, Bytes: int64(dirtyLines)})
}

// Committed closes the span on successful commit. recovered marks
// transactions completed during crash recovery (clobber re-execution);
// they emit a recovery event in addition to the commit event.
func (s *Span) Committed(recovered bool) {
	if !s.active {
		return
	}
	d := s.lap()
	total := s.mark.Sub(s.start)
	if Enabled() {
		s.p.commit.Observe(s.slot, d.Nanoseconds())
		s.p.txns.Add(s.slot, 1)
	}
	if TraceEnabled() {
		EmitEvent(Event{Kind: KindCommit, Engine: s.p.engine, Slot: s.slot, Seq: s.seq,
			TxFunc: s.name, DurNanos: total.Nanoseconds()})
		if recovered {
			EmitEvent(Event{Kind: KindRecovery, Engine: s.p.engine, Slot: s.slot, Seq: s.seq,
				TxFunc: s.name})
		}
	}
	s.active = false
}

// Aborted closes the span on a txfunc error (trivial abort or rollback).
func (s *Span) Aborted() {
	if !s.active {
		return
	}
	total := time.Since(s.start)
	if Enabled() {
		s.p.abort.Observe(s.slot, total.Nanoseconds())
	}
	if TraceEnabled() {
		EmitEvent(Event{Kind: KindAbort, Engine: s.p.engine, Slot: s.slot, Seq: s.seq,
			TxFunc: s.name, DurNanos: total.Nanoseconds()})
	}
	s.active = false
}

// RecoveryEvent traces a recovery action outside a Run span (undo/atlas
// rollbacks, redo replays). Trace-only.
func (p *Probe) RecoveryEvent(slot int, seq uint64, txfunc string) {
	if p == nil || !TraceEnabled() {
		return
	}
	EmitEvent(Event{Kind: KindRecovery, Engine: p.engine, Slot: slot, Seq: seq, TxFunc: txfunc})
}
