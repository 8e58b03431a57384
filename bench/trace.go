package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clobbernvm/internal/nvm"
)

// Span names, outermost first. One op crosses them in this order:
//
//	library: op ⊃ run ⊃ exec ⊃ alloc|free          op ⊃ runro
//	served:  request ⊃ backend ⊃ run ⊃ exec ⊃ …    serve ⊃ backend ⊃ …
type spanKind uint8

const (
	spanRequest spanKind = iota // client: one request over the socket until its reply
	spanServe                   // memcache: one request through Session.Serve on in-memory buffers
	spanBackend                 // memcache: one Backend call (supervisor gate, lock, cache code)
	spanOp                      // pds: one Store call
	spanRun                     // clobber: Engine.Run (begin/v_log, txfunc, commit, deferred frees)
	spanRunRO                   // clobber: Engine.RunRO
	spanExec                    // clobber: the registered txfunc inside Run
	spanAlloc                   // pmem: txn.Mem.Alloc inside a txfunc
	spanFree                    // pmem: txn.Mem.Free inside a txfunc (the deferred-free log append)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"request", "serve", "backend", "op", "run", "runro", "exec", "alloc", "free"}

// countEvery is the share of ops whose spans also record the pool's fence
// and flush counts: one op in countEvery. A count costs a full pool-stats
// snapshot at each end of a span, eight a write, which is most of what
// tracing costs; an op's counts barely vary, so a quarter of the ops give
// the same per-write averages at a quarter of that cost.
const countEvery = 4

// span is one timed interval at a layer boundary. fences and flushes are
// the pool's counts across it, if it is counted.
type span struct {
	kind    spanKind
	counted bool
	op      int32 // spans of one op share it
	parent  int32 // index of the span that caused this one, -1 for a root
	start   int64 // ns since the tracer started
	end     int64
	fences  int32
	flushes int32
}

// tracer keeps spans in memory until the pass ends. The traced pass has one
// op in flight at a time, so spans nest strictly and a single "current
// span" gives each new span its parent; the mutex only orders the client
// goroutine against the server's session goroutine.
type tracer struct {
	mu   sync.Mutex
	on   bool
	pool *nvm.Pool
	// eng is the engine decorator in use; a restart installs a new one.
	eng   *tracedEngine
	t0    time.Time
	spans []span
	cur   int32
	ops   int32
}

func newTracer(pool *nvm.Pool, capacity int) *tracer {
	return &tracer{pool: pool, t0: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

// begin opens a span under the current one and returns its index, or -1
// while tracing is off. counted asks for the pool's fence and flush counts
// across the span; it is granted on one op in countEvery.
func (t *tracer) begin(kind spanKind, counted bool) int32 {
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return -1
	}
	if t.cur < 0 {
		t.ops++
	}
	s := span{kind: kind, counted: counted && t.ops%countEvery == 0, op: t.ops, parent: t.cur}
	if s.counted {
		ps := t.pool.Stats()
		s.fences, s.flushes = int32(ps.Fences), int32(ps.Flushes)
	}
	t.cur = int32(len(t.spans))
	s.start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return t.cur
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[i]
	s.end = now
	if s.counted {
		// Differences of truncated counters are exact while a span holds
		// fewer than 2^31 events.
		ps := t.pool.Stats()
		s.fences, s.flushes = int32(ps.Fences)-s.fences, int32(ps.Flushes)-s.flushes
	}
	t.cur = s.parent
	t.mu.Unlock()
}

// layerSum totals one span kind: how many, their time, and their self
// time and self counts (the span minus what its child spans cover).
type layerSum struct {
	n, counted           int64
	durNS, selfNS        int64
	fences, selfFences   int64
	flushes, selfFlushes int64
}

// selfTimes attributes the time and counts of spans[from:to] to layers;
// the range must hold whole ops, so that every parent is inside it. A child
// that records no counts leaves its share in the parent's self counts; a
// span that records none has none of its own.
func selfTimes(spans []span, from, to int) [numSpanKinds]layerSum {
	childNS := make([]int64, to-from)
	childFences := make([]int64, to-from)
	childFlushes := make([]int64, to-from)
	for _, s := range spans[from:to] {
		if p := int(s.parent) - from; p >= 0 {
			childNS[p] += s.end - s.start
			childFences[p] += int64(s.fences)
			childFlushes[p] += int64(s.flushes)
		}
	}
	var out [numSpanKinds]layerSum
	for i, s := range spans[from:to] {
		l := &out[s.kind]
		l.n++
		l.durNS += s.end - s.start
		l.selfNS += s.end - s.start - childNS[i]
		l.fences += int64(s.fences)
		l.flushes += int64(s.flushes)
		if s.counted {
			l.counted++
			l.selfFences += int64(s.fences) - childFences[i]
			l.selfFlushes += int64(s.flushes) - childFlushes[i]
		}
	}
	return out
}

// writeJSONL writes the spans to dir/name, one JSON object per line.
func writeJSONL(dir, name string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID      int    `json:"id"`
			Parent  int32  `json:"parent"`
			Op      int32  `json:"op"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Counted bool   `json:"counted"`
			Fences  int32  `json:"fences"`
			Flushes int32  `json:"flushes"`
		}{i, s.parent, s.op, spanNames[s.kind], s.start, s.end, s.counted, s.fences, s.flushes}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}
