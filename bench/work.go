package main

import (
	"fmt"
	"math/rand"
	"time"

	"clobbernvm/internal/harness"
)

// spec is one workload. The reasons each exists are in README.md and
// BENCHMARK.json; sizes follow paper §5.2 (structures) and §5.6 (memcached).
type spec struct {
	name string
	// served workloads drive the real cmd/memcachedsim binary over TCP;
	// the others call a pds structure on the clobber engine in-process.
	served    bool
	structure harness.StructureKind
	keySize   int
	valSize   int
	// preload is the population built during set-up.
	preload int
	// workers is the number of closed-loop generator goroutines (library)
	// or connections (served). The box has 2 cores, so never more than 2.
	workers  int
	readFrac float64
	zipf     bool
	// roundOps > 0 makes every write an insert of a new key, in rounds of
	// this many ops; the pool is put back to its post-preload image between
	// rounds so the population, and with it memory, chain length and tree
	// depth, is the same however many rounds fit into the run.
	roundOps int
	// poolBytes sizes the simulated pool; 0 leaves a served workload's
	// server at its default (512 MiB).
	poolBytes uint64
}

var specs = []spec{
	{name: "load_hashmap", structure: harness.StructHashMap, keySize: 8, valSize: 256,
		preload: 100_000, workers: 1, readFrac: 0.05, roundOps: 50_000, poolBytes: 128 << 20},
	{name: "load_bptree", structure: harness.StructBPTree, keySize: 32, valSize: 256,
		preload: 50_000, workers: 1, readFrac: 0.05, roundOps: 40_000, poolBytes: 128 << 20},
	{name: "ycsb_a_hashmap", structure: harness.StructHashMap, keySize: 8, valSize: 256,
		preload: 100_000, workers: 2, readFrac: 0.5, zipf: true, poolBytes: 128 << 20},
	{name: "kv_read_heavy", served: true, keySize: 16, valSize: 64,
		preload: 100_000, workers: 2, readFrac: 0.95, zipf: true},
	{name: "kv_write_heavy", served: true, keySize: 16, valSize: 64,
		preload: 100_000, workers: 2, readFrac: 0.05},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload for the smoke test.
func (s spec) scaled(div int) spec {
	s.preload = max(s.preload/div, 64*s.workers)
	if s.roundOps > 0 {
		s.roundOps = max(s.roundOps/div, 64)
	}
	if s.served && div > 1 {
		s.poolBytes = 64 << 20
	}
	return s
}

// keys is the number of key indexes the workload can touch.
func (s spec) keys() int { return s.preload + s.roundOps }

// target is what a worker drives: a structure in this process or a
// connection to the server. The bulk calls are pipelined on a connection.
type target interface {
	put(key, val []byte) error
	get(key []byte) (val []byte, found bool, err error)
	putMany(n int, kv func(i int) (key, val []byte)) error
	getMany(n int, key func(i int) []byte, each func(i int, val []byte, found bool)) error
}

// worker is one closed-loop caller: it issues its next op only when the
// previous one has returned. Worker id writes only key indexes congruent to
// id modulo the worker count, so the version of every key it reads back is
// known exactly without coordination.
type worker struct {
	id int
	sp *spec
	kg keygen
	t  target

	rng    *rand.Rand
	reads  *picker
	writes *picker
	// next is the next key index a load workload inserts.
	next int
	// vers[idx] is the last acknowledged version of key idx (0: absent).
	// Shared between workers; each element has one writer.
	vers []uint32
	// pending is the write in flight; doubt holds writes that returned an
	// error or never returned (see settle): the key may hold either the old
	// or the attempted version.
	pending bool
	pendIdx int
	pendVer uint32
	doubt   map[int]uint32

	keyBuf, valBuf []byte

	readNS, writeNS []uint32
	attempted       int64
	failed          int64
	userBytes       int64
}

func newWorker(id int, sp *spec, seed int64, vers []uint32, t target) *worker {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
	w := &worker{
		id: id, sp: sp, t: t, rng: rng, vers: vers,
		kg:     newKeygen(seed, sp.keySize, sp.valSize, sp.served),
		next:   sp.preload,
		doubt:  map[int]uint32{},
		keyBuf: make([]byte, sp.keySize),
		valBuf: make([]byte, sp.valSize),
	}
	if sp.roundOps == 0 {
		w.reads = newPicker(rng, sp.preload, sp.zipf)
		w.writes = newPicker(rng, sp.preload/sp.workers, sp.zipf)
	}
	return w
}

// reserve sizes the latency sample buffers so appends in the timed loop do
// not reallocate.
func (w *worker) reserve(n int) {
	w.readNS = make([]uint32, 0, n)
	w.writeNS = make([]uint32, 0, n)
}

func (w *worker) resetSamples() {
	w.readNS, w.writeNS = w.readNS[:0], w.writeNS[:0]
	w.attempted, w.failed, w.userBytes = 0, 0, 0
}

// run issues ops until the deadline passes or maxOps have been issued.
func (w *worker) run(deadline time.Time, maxOps int) {
	for n := 0; n < maxOps; n++ {
		var end time.Time
		if isRead, idx := w.pick(); isRead {
			end = w.read(idx)
		} else {
			end = w.write(idx)
		}
		if end.After(deadline) {
			return
		}
	}
}

func clampNS(d time.Duration) uint32 {
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// pick draws the next op: its kind from the mix, its key from the
// workload's distribution.
func (w *worker) pick() (isRead bool, idx int) {
	isRead = w.rng.Float64() < w.sp.readFrac
	switch {
	case w.sp.roundOps == 0 && isRead:
		idx = w.reads.next()
	case w.sp.roundOps == 0:
		idx = w.writes.next()*w.sp.workers + w.id
	case isRead:
		idx = w.rng.Intn(w.next)
	default:
		idx = w.next
		w.next++
	}
	return isRead, idx
}

// pickWrite draws the key of a write the mix did not ask for.
func (w *worker) pickWrite() int {
	for {
		if isRead, idx := w.pick(); !isRead {
			return idx
		}
	}
}

func (w *worker) read(idx int) time.Time {
	key := w.kg.key(w.keyBuf, uint64(idx))
	start := time.Now()
	val, found, err := w.t.get(key)
	end := time.Now()
	w.readNS = append(w.readNS, clampNS(end.Sub(start)))
	w.attempted++
	if err != nil || !w.wellFormed(idx, val, found) {
		w.failed++
	}
	return end
}

// wellFormed checks a value read during the window. Every key the window
// reads has been written, so a miss is a failure; a key this worker owns
// must carry exactly its last acknowledged version.
func (w *worker) wellFormed(idx int, val []byte, found bool) bool {
	if !found {
		return false
	}
	ver, ok := w.kg.parse(val, uint64(idx))
	if !ok || ver == 0 {
		return false
	}
	return idx%w.sp.workers != w.id || uint32(ver) == w.vers[idx]
}

// write issues one put of the next version of key idx; an error is a
// failure.
func (w *worker) write(idx int) time.Time {
	end, err := w.tryWrite(idx)
	if err != nil {
		w.failed++
	}
	return end
}

// tryWrite is write for callers that expect refusals: an error leaves the
// write in doubt but is not counted as a failure.
func (w *worker) tryWrite(idx int) (time.Time, error) {
	ver := w.vers[idx] + 1
	key := w.kg.key(w.keyBuf, uint64(idx))
	val := w.kg.value(w.valBuf, uint64(idx), uint64(ver))
	w.pending, w.pendIdx, w.pendVer = true, idx, ver
	start := time.Now()
	err := w.t.put(key, val)
	end := time.Now()
	w.writeNS = append(w.writeNS, clampNS(end.Sub(start)))
	w.attempted++
	w.pending = false
	if err != nil {
		w.doubt[idx] = ver
		return end, err
	}
	w.vers[idx] = ver
	w.userBytes += int64(len(key) + len(val))
	return end, nil
}

// settle records a write that a crash unwound through as in doubt.
func (w *worker) settle() {
	if w.pending {
		w.doubt[w.pendIdx], w.pending = w.pendVer, false
	}
}

// preload writes version 1 of this worker's share of the initial keys.
func (w *worker) preload() error {
	n := w.sp.preload / w.sp.workers
	kb := make([]byte, w.sp.keySize)
	vb := make([]byte, w.sp.valSize)
	err := w.t.putMany(n, func(i int) ([]byte, []byte) {
		idx := uint64(i*w.sp.workers + w.id)
		return w.kg.key(kb, idx), w.kg.value(vb, idx, 1)
	})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		w.vers[i*w.sp.workers+w.id] = 1
	}
	return nil
}

// audit reads back every key this worker owns and counts a failure for
// each one that does not hold its last acknowledged version. A key with a
// write in doubt may hold the old or the attempted version, never a mix and
// never anything else; whichever it holds becomes its acknowledged version.
func (w *worker) audit() error {
	var idxs []int
	for idx := w.id; idx < len(w.vers); idx += w.sp.workers {
		if _, d := w.doubt[idx]; d || w.vers[idx] > 0 {
			idxs = append(idxs, idx)
		}
	}
	kb := make([]byte, w.sp.keySize)
	return w.t.getMany(len(idxs),
		func(i int) []byte { return w.kg.key(kb, uint64(idxs[i])) },
		func(i int, val []byte, found bool) {
			idx := idxs[i]
			w.attempted++
			var ver uint64
			if found {
				var ok bool
				if ver, ok = w.kg.parse(val, uint64(idx)); !ok {
					w.failed++
					return
				}
			}
			if d, inDoubt := w.doubt[idx]; inDoubt && uint32(ver) == d {
				w.vers[idx] = d
			}
			delete(w.doubt, idx)
			if uint32(ver) != w.vers[idx] {
				w.failed++
			}
		})
}
