package nvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refPool is the two-array pool the one-array Pool replaced, kept as a
// single-threaded reference model: mem is the coherent view, media the
// durable one, and every flush, drain, settle and crash copies bytes
// between them. It counts, ticks, arms crashes and draws eviction luck
// exactly as Pool does, so a differential run can demand identical bytes,
// line sets and stats after every operation.
type refPool struct {
	mem, media     []byte
	dirty, pending []bool // per line
	fast           bool

	crashAt   int64
	crashKind CrashKind
	crashed   bool
	events    [3]int64 // store, flush, fence
	anyEvents int64

	evict     EvictPolicy
	evictProb float64
	rng       *rand.Rand
	st        StatsSnapshot
}

func newRefPool(size uint64, seed int64) *refPool {
	r := &refPool{
		mem:       make([]byte, size),
		media:     make([]byte, size),
		dirty:     make([]bool, size/LineSize),
		pending:   make([]bool, size/LineSize),
		evictProb: 0.5,
		rng:       rand.New(rand.NewSource(seed)),
	}
	binary.LittleEndian.PutUint64(r.mem[magicOffset:], poolMagic)
	copy(r.media, r.mem)
	return r
}

func (r *refPool) tick(kind CrashKind) {
	if r.crashed {
		panic(ErrCrash)
	}
	r.events[kind]++
	r.anyEvents++
	if r.crashAt <= 0 {
		return
	}
	var cmp int64
	switch {
	case r.crashKind == CrashAtAny:
		cmp = r.anyEvents
	case r.crashKind == kind:
		cmp = r.events[kind]
	default:
		return
	}
	if cmp == r.crashAt {
		switch kind {
		case CrashAtStore:
			r.st.CrashesAtStore++
		case CrashAtFlush:
			r.st.CrashesAtFlush++
		case CrashAtFence:
			r.st.CrashesAtFence++
		}
		r.crashed = true
		panic(ErrCrash)
	}
}

func (r *refPool) write(addr uint64, data []byte) {
	copy(r.mem[addr:], data)
	for l := addr / LineSize; l <= (addr+uint64(len(data))-1)/LineSize; l++ {
		r.dirty[l] = true
	}
}

func (r *refPool) Store(addr uint64, data []byte) {
	if r.crashed {
		panic(ErrCrash)
	}
	n := uint64(len(data))
	r.st.Stores++
	r.st.BytesStored += int64(n)
	if n > 0 && addr%LineSize == 0 && n%LineSize == 0 {
		r.st.LineStores += int64(n / LineSize)
	}
	if n > 0 {
		r.write(addr, data)
	}
	if !r.fast {
		r.tick(CrashAtStore)
	}
}

func (r *refPool) Store64(addr, v uint64) {
	if r.crashed {
		panic(ErrCrash)
	}
	r.st.Stores++
	r.st.BytesStored += 8
	r.write(addr, binary.LittleEndian.AppendUint64(nil, v))
	if !r.fast {
		r.tick(CrashAtStore)
	}
}

func (r *refPool) CAS64(addr, old, new uint64) bool {
	if r.crashed {
		panic(ErrCrash)
	}
	if binary.LittleEndian.Uint64(r.mem[addr:]) != old {
		r.st.Loads++
		r.st.BytesLoaded += 8
		return false
	}
	r.write(addr, binary.LittleEndian.AppendUint64(nil, new))
	r.st.Stores++
	r.st.BytesStored += 8
	if !r.fast {
		r.tick(CrashAtStore)
	}
	return true
}

// persistLine copies line l to the media and marks it clean.
func (r *refPool) persistLine(l uint64) {
	off := l * LineSize
	copy(r.media[off:off+LineSize], r.mem[off:off+LineSize])
	r.dirty[l], r.pending[l] = false, false
}

func (r *refPool) Flush(addr, n uint64) {
	if n == 0 {
		return
	}
	first, last := addr/LineSize, (addr+n-1)/LineSize
	if r.fast {
		r.st.Flushes += int64(last - first + 1)
		return
	}
	for l := first; l <= last; l++ {
		r.st.Flushes++
		r.tick(CrashAtFlush)
		r.persistLine(l)
	}
}

func (r *refPool) flushOptLine(l uint64) {
	r.st.Flushes++
	r.st.FlushOpts++
	if !r.fast {
		r.tick(CrashAtFlush)
		r.pending[l] = true
	}
}

func (r *refPool) FlushOpt(addr, n uint64) {
	if n == 0 {
		return
	}
	for l := addr / LineSize; l <= (addr+n-1)/LineSize; l++ {
		r.flushOptLine(l)
	}
}

func (r *refPool) FlushOptLines(lines []uint64) {
	for _, l := range lines {
		r.flushOptLine(l)
	}
}

func (r *refPool) Fence() {
	r.st.Fences++
	if r.fast {
		return
	}
	r.tick(CrashAtFence)
	for l, p := range r.pending {
		if p {
			r.persistLine(uint64(l))
		}
	}
}

func (r *refPool) CommitPersist(addr, n uint64) {
	r.Flush(addr, n)
	r.Fence()
}

// settle copies every dirty or pending line to the media: the old pool's
// exit from fast mode.
func (r *refPool) settle() {
	for l := range r.dirty {
		if r.dirty[l] || r.pending[l] {
			r.persistLine(uint64(l))
		}
	}
}

func (r *refPool) clearTracking() {
	clear(r.dirty)
	clear(r.pending)
}

func (r *refPool) SetFastPath(on bool) {
	if !on && r.fast {
		r.fast = false
		r.settle()
		return
	}
	r.fast = on
}

func (r *refPool) ResetPersistPoints() {
	if r.fast {
		r.fast = false
		r.settle()
	}
	r.events = [3]int64{}
	r.anyEvents = 0
}

func (r *refPool) ScheduleCrashAt(kind CrashKind, n int64) {
	r.ResetPersistPoints()
	r.crashed = false
	r.crashKind = kind
	r.crashAt = n
}

func (r *refPool) Crash() {
	if r.fast {
		r.fast = false
		r.settle()
	}
	r.st.Crashes++
	r.crashAt = 0
	r.crashed = false
	for l, d := range r.dirty {
		if !d {
			continue
		}
		off := uint64(l) * LineSize
		switch r.evict {
		case EvictNone:
		case EvictAll:
			copy(r.media[off:off+LineSize], r.mem[off:off+LineSize])
		case EvictTorn:
			k := uint64(r.rng.Intn(LineSize/8 + 1))
			copy(r.media[off:off+k*8], r.mem[off:off+k*8])
			if k > 0 && k < LineSize/8 {
				r.st.TornLines++
			}
		default:
			if r.rng.Float64() < r.evictProb {
				copy(r.media[off:off+LineSize], r.mem[off:off+LineSize])
			}
		}
	}
	r.clearTracking()
	copy(r.mem, r.media)
}

func (r *refPool) Snapshot() []byte {
	if r.fast {
		r.settle()
	}
	return bytes.Clone(r.media)
}

func (r *refPool) Restore(img []byte) error {
	copy(r.media, img)
	copy(r.mem, img)
	r.clearTracking()
	r.crashAt = 0
	r.crashed = false
	r.ResetPersistPoints()
	return nil
}

func (r *refPool) SetEviction(e EvictPolicy) { r.evict = e }
func (r *refPool) FastPath() bool            { return r.fast }
func (r *refPool) CoherentSnapshot() []byte  { return bytes.Clone(r.mem) }
func (r *refPool) DirtyLines() int           { return countTrue(r.dirty) }
func (r *refPool) PendingLines() int         { return countTrue(r.pending) }
func (r *refPool) Stats() StatsSnapshot      { return r.st }

func countTrue(set []bool) int {
	n := 0
	for _, b := range set {
		if b {
			n++
		}
	}
	return n
}

// modelPool is what the differential test drives, on both pools.
type modelPool interface {
	Store(addr uint64, data []byte)
	Store64(addr, v uint64)
	CAS64(addr, old, new uint64) bool
	Flush(addr, n uint64)
	FlushOpt(addr, n uint64)
	FlushOptLines(lines []uint64)
	Fence()
	CommitPersist(addr, n uint64)
	SetFastPath(on bool)
	ScheduleCrashAt(kind CrashKind, n int64)
	SetEviction(e EvictPolicy)
	Crash()
	Snapshot() []byte
	Restore(img []byte) error
	FastPath() bool
	CoherentSnapshot() []byte
	DirtyLines() int
	PendingLines() int
	Stats() StatsSnapshot
}

// modelHeapLines is the heap span, in lines, of the differential pools:
// five bitmap words, so multi-word stores and flushes cross shards.
const modelHeapLines = 5 * 64

// modelOp is one operation of a differential run, applied to each pool in
// turn. Its result (a CAS outcome, a snapshot) must match across pools.
type modelOp struct {
	name string
	do   func(q modelPool) any
}

// randomModelOp draws the next operation. saved holds each pool's last
// Snapshot, for Restore.
func randomModelOp(g *rand.Rand, ref *refPool, saved map[modelPool][]byte) modelOp {
	const size = HeaderSize + modelHeapLines*LineSize
	addr := func() uint64 { return HeaderSize + uint64(g.Intn(modelHeapLines*LineSize)) }
	span := func() (uint64, uint64) {
		a := addr()
		var n uint64
		switch g.Intn(8) {
		case 0: // aligned whole lines: the write-combined log signature
			a &^= LineSize - 1
			n = uint64(1+g.Intn(3)) * LineSize
		case 1: // straddles a line boundary
			a = a | (LineSize - 1) - uint64(g.Intn(8))
			n = uint64(2 + g.Intn(16))
		case 2: // crosses a bitmap word
			n = uint64(1 + g.Intn(70*LineSize))
		default: // partial line or a few lines
			n = uint64(1 + g.Intn(2*LineSize))
		}
		return a, min(n, size-a)
	}
	word := func() uint64 {
		if g.Intn(4) == 0 {
			return HeaderSize + uint64(g.Intn(modelHeapLines-1))*LineSize + LineSize - 4 // straddles
		}
		return addr() &^ 7
	}
	op := func(name string, do func(q modelPool) any) modelOp { return modelOp{name, do} }
	switch k := g.Intn(100); {
	case k < 22:
		a, n := span()
		data := make([]byte, n)
		g.Read(data)
		return op(fmt.Sprintf("Store(%#x, %d)", a, n), func(q modelPool) any { q.Store(a, data); return nil })
	case k < 34:
		a, v := word(), g.Uint64()
		return op(fmt.Sprintf("Store64(%#x)", a), func(q modelPool) any { q.Store64(a, v); return nil })
	case k < 40:
		a := addr() &^ 7
		old := binary.LittleEndian.Uint64(ref.mem[a:])
		if g.Intn(3) == 0 {
			old++ // a failing CAS
		}
		v := g.Uint64()
		return op(fmt.Sprintf("CAS64(%#x)", a), func(q modelPool) any { return q.CAS64(a, old, v) })
	case k < 50:
		a, n := span()
		return op(fmt.Sprintf("Flush(%#x, %d)", a, n), func(q modelPool) any { q.Flush(a, n); return nil })
	case k < 60:
		a, n := span()
		return op(fmt.Sprintf("FlushOpt(%#x, %d)", a, n), func(q modelPool) any { q.FlushOpt(a, n); return nil })
	case k < 66:
		lines := make([]uint64, g.Intn(6))
		for i := range lines {
			lines[i] = addr() / LineSize
		}
		return op(fmt.Sprintf("FlushOptLines(%v)", lines), func(q modelPool) any { q.FlushOptLines(lines); return nil })
	case k < 78:
		return op("Fence", func(q modelPool) any { q.Fence(); return nil })
	case k < 83:
		a, n := span()
		return op(fmt.Sprintf("CommitPersist(%#x, %d)", a, n), func(q modelPool) any { q.CommitPersist(a, n); return nil })
	case k < 86:
		on := g.Intn(2) == 0
		return op(fmt.Sprintf("SetFastPath(%v)", on), func(q modelPool) any { q.SetFastPath(on); return nil })
	case k < 89:
		kind, n := CrashKind(g.Intn(4)), int64(1+g.Intn(24))
		return op(fmt.Sprintf("ScheduleCrashAt(%v, %d)", kind, n), func(q modelPool) any { q.ScheduleCrashAt(kind, n); return nil })
	case k < 93:
		e := EvictPolicy(g.Intn(4))
		return op(fmt.Sprintf("Crash(%v)", e), func(q modelPool) any { q.SetEviction(e); q.Crash(); return nil })
	case k < 96:
		return op("Snapshot", func(q modelPool) any { saved[q] = q.Snapshot(); return saved[q] })
	case k < 98:
		return op("CoherentSnapshot", func(q modelPool) any { return q.CoherentSnapshot() })
	default:
		return op("Restore", func(q modelPool) any {
			if img := saved[q]; img != nil {
				return q.Restore(img)
			}
			return nil
		})
	}
}

// runModelSeed drives a Pool and a refPool through one seeded random
// operation sequence and fails at the first step where they differ: in an
// operation's result or crash, coherent bytes, durable bytes, dirty or
// pending line counts, or stats.
func runModelSeed(t *testing.T, seed int64, steps int) {
	t.Helper()
	const size = HeaderSize + modelHeapLines*LineSize
	p := New(size, WithSeed(seed))
	ref := newRefPool(size, seed)
	got, want := modelPool(p), modelPool(ref)
	g := rand.New(rand.NewSource(seed))
	saved := map[modelPool][]byte{}
	var trace []string
	for step := 0; step < steps; step++ {
		op := randomModelOp(g, ref, saved)
		trace = append(trace, op.name)
		if len(trace) > 12 {
			trace = trace[1:]
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s\nlast ops: %v", seed, step, fmt.Sprintf(format, args...), trace)
		}
		var wantRes, gotRes any
		wantCrash := expectCrash(t, func() { wantRes = op.do(want) })
		gotCrash := expectCrash(t, func() { gotRes = op.do(got) })
		if gotCrash != wantCrash {
			fail("crash fired %v, reference %v", gotCrash, wantCrash)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			fail("result differs from the reference")
		}
		if !bytes.Equal(p.mem, ref.mem) {
			fail("coherent bytes differ")
		}
		if !p.FastPath() {
			// Snapshot settles a fast-mode pool, so it is compared after
			// every step only in precise mode; in fast mode it runs as an
			// operation of its own.
			if !bytes.Equal(p.Snapshot(), ref.Snapshot()) {
				fail("durable bytes differ")
			}
			if n, d := p.preImages(), p.DirtyLines(); n != d {
				fail("%d pre-images for %d dirty lines", n, d)
			}
		}
		if a, b := p.DirtyLines(), ref.DirtyLines(); a != b {
			fail("DirtyLines = %d, reference %d", a, b)
		}
		if a, b := p.PendingLines(), ref.PendingLines(); a != b {
			fail("PendingLines = %d, reference %d", a, b)
		}
		if a, b := p.Stats(), ref.Stats(); a != b {
			fail("Stats = %+v\nreference %+v", a, b)
		}
	}
}

// TestPoolMatchesTwoArrayModel is the differential proof that keeping only
// pre-images is the two-array pool: every seeded random sequence of stores,
// CASes, flushes, fences, mode switches, armed and manual crashes under all
// four eviction policies, snapshots and restores leaves both pools with the
// same bytes, line sets and counters, and fires the same crashes.
func TestPoolMatchesTwoArrayModel(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runModelSeed(t, seed, 400)
	}
}
