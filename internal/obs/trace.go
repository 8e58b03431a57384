package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a transaction lifecycle trace event.
type Kind uint8

// Lifecycle event kinds, in the order a committing clobber transaction
// emits them. Rollback engines reuse Begin/LogAppend/FlushFence/Commit;
// aborting transactions end with Abort; recovery re-execution tags its
// events with Recovery.
const (
	// KindBegin marks transaction begin (after the engine's begin-marker
	// persist; for clobber this is the v_log fence).
	KindBegin Kind = iota + 1
	// KindVLogAppend records a v_log entry write (clobber only): Bytes is
	// name + encoded-argument payload.
	KindVLogAppend
	// KindClobberLog records a clobber_log entry (clobber only): Bytes is
	// the logged old-value payload.
	KindClobberLog
	// KindLogAppend records a data-log entry of a rollback engine (undo,
	// redo, atlas).
	KindLogAppend
	// KindFlushFence marks the commit-time flush of the transaction's
	// dirty lines and its ordering fence; Bytes is the line count.
	KindFlushFence
	// KindCommit marks successful commit; Dur is the whole-transaction
	// latency.
	KindCommit
	// KindAbort marks a txfunc error unwound without persistent effects
	// (or rolled back, for undo engines).
	KindAbort
	// KindRecovery marks a transaction completed during crash recovery:
	// re-executed (clobber) or rolled back (undo/atlas).
	KindRecovery
	// KindClobberDeclared records a clobber_log entry for a range the
	// txfunc declared before storing to it (txn.Mem.WillStore): Bytes as
	// for KindClobberLog, which then counts only what the run-time check
	// found undeclared.
	KindClobberDeclared
)

var kindNames = [...]string{
	KindBegin:      "begin",
	KindVLogAppend: "v_log",
	KindClobberLog: "clobber_log",
	KindLogAppend:  "log_append",
	KindFlushFence: "flush_fence",
	KindCommit:     "commit",
	KindAbort:      "abort",
	KindRecovery:   "recovery",

	KindClobberDeclared: "clobber_declared",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText makes kinds render as their names in JSON.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one transaction lifecycle trace record.
type Event struct {
	// UnixNanos is the wall-clock emission time.
	UnixNanos int64 `json:"t"`
	// Kind is the lifecycle stage.
	Kind Kind `json:"kind"`
	// Engine is the emitting engine's Name().
	Engine string `json:"engine"`
	// Slot is the worker slot the transaction ran on.
	Slot int `json:"slot"`
	// Seq is the slot-local transaction sequence number (0 if unknown).
	Seq uint64 `json:"seq,omitempty"`
	// TxFunc is the registered transaction function name.
	TxFunc string `json:"txfunc,omitempty"`
	// Bytes is the payload size for log-append events, or the dirty-line
	// count for flush_fence events.
	Bytes int64 `json:"bytes,omitempty"`
	// DurNanos is the elapsed phase time for begin/commit/abort events.
	DurNanos int64 `json:"dur_ns,omitempty"`
}

// Sink consumes trace events. Emit must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// sinkHolder wraps the installed sink for atomic.Pointer (interfaces
// cannot be stored in atomic.Pointer directly).
type sinkHolder struct{ s Sink }

var currentSink atomic.Pointer[sinkHolder]

// SetSink installs s as the global trace sink (nil uninstalls). Returns
// the previously installed sink, if any.
func SetSink(s Sink) Sink {
	var prev *sinkHolder
	if s == nil {
		prev = currentSink.Swap(nil)
	} else {
		prev = currentSink.Swap(&sinkHolder{s: s})
	}
	if prev == nil {
		return nil
	}
	return prev.s
}

// TraceEnabled reports whether a trace sink is installed. Engines check
// this before building events, so tracing costs one atomic load when off.
func TraceEnabled() bool { return currentSink.Load() != nil }

// EmitEvent stamps ev with the current time and delivers it to the
// installed sink, if any.
func EmitEvent(ev Event) {
	h := currentSink.Load()
	if h == nil {
		return
	}
	ev.UnixNanos = time.Now().UnixNano()
	h.s.Emit(ev)
}

// RingSink keeps the last N events in memory — the always-on flight
// recorder behind /debug/trace.
type RingSink struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRingSink returns a ring holding up to capacity events (min 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *RingSink) Emit(ev Event) {
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered events, oldest first.
func (r *RingSink) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// JSONLSink writes one JSON object per event to w.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink wraps w (callers own closing it).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	_ = s.enc.Encode(ev)
	s.mu.Unlock()
}

// multiSink fans events out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// MultiSink combines sinks; nil entries are dropped. Returns nil when
// nothing remains (so SetSink(MultiSink()) disables tracing).
func MultiSink(sinks ...Sink) Sink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
