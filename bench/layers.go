package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"clobbernvm/internal/harness"
	"clobbernvm/internal/memcache"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/shard"
	"clobbernvm/internal/txn"
)

// tracedOps is the fixed op count of the traced pass: counts repeat from
// run to run and the spans fit in memory.
const tracedOps = 50_000

// layers is what the traced pass reads counters from.
type layers struct {
	pool  *nvm.Pool
	alloc *pmem.Allocator
	eng   pds.Engine
	// backend is what sessions are served from; nil on library workloads.
	backend memcache.Backend
}

// layered is an env in this process whose layers can be seen.
type layered interface {
	env
	view() layers
}

func (e *libEnv) view() layers { return layers{pool: e.pool, alloc: e.alloc, eng: e.eng} }

// localKV is the served stack built in this process the way
// cmd/memcachedsim builds it with its default flags — same pool size, slot
// count, capacity, lock and supervisor — so decorators can be slid between
// its layers. One connection.
type localKV struct {
	alloc   *pmem.Allocator
	sup     *memcache.Supervisor
	backend memcache.Backend
	srv     *memcache.Server
	conn    *kvConn
}

func newLocalKV(sp *spec, wrapEngine func(pds.Engine) pds.Engine, wrapBackend func(memcache.Backend) memcache.Backend) (*localKV, error) {
	const serverConns, rootSlot = 8, 34
	sc := harness.SmallScale
	sc.PoolBytes = 512 << 20
	if sp.poolBytes > 0 {
		sc.PoolBytes = sp.poolBytes
	}
	sc.Threads = []int{serverConns}
	copts := memcache.Options{Capacity: 1 << 18, Lock: memcache.LockRW}

	setup, err := harness.NewSetup(harness.EngineClobber, sc)
	if err != nil {
		return nil, err
	}
	cache, err := memcache.New(wrapEngine(setup.Engine), rootSlot, copts)
	if err != nil {
		return nil, err
	}
	rebuild := func(img []byte) (*nvm.Pool, pds.Engine, error) {
		sh, err := harness.RebuildShard(harness.EngineClobber, img, sc)
		if err != nil {
			return nil, nil, err
		}
		return sh.Pool, wrapEngine(sh.Engine), nil
	}
	k := &localKV{alloc: setup.Alloc}
	k.sup = memcache.NewSupervisor(cache, setup.Pool, rootSlot, copts, rebuild)
	k.backend = wrapBackend(k.sup)
	if k.srv, err = memcache.NewServer(k.backend, "127.0.0.1:0", serverConns); err != nil {
		return nil, err
	}
	if k.conn, err = dialKV(k.srv.Addr()); err != nil {
		return nil, errors.Join(err, k.srv.Close())
	}
	return k, nil
}

func (k *localKV) view() layers {
	return layers{k.sup.Pool(), k.alloc, k.sup.Engine(), k.backend}
}

func (k *localKV) targets() []target { return []target{k.conn} }

func (k *localKV) counters() (counters, error) {
	ps, ts := k.sup.Pool().Stats(), k.sup.Engine().Stats().Snapshot()
	return counters{ps.Fences, ps.Flushes, ps.BytesStored, ts.TotalLogBytes()}, nil
}

func (k *localKV) crash(w *worker, rng *rand.Rand) error {
	if err := k.sup.Arm(nvm.CrashAtFence, 1+rng.Int63n(64)); err != nil {
		return err
	}
	return rideOutCrash(w)
}

func (k *localKV) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

func (k *localKV) close() error {
	k.conn.close()
	return k.srv.Close()
}

// serveReader feeds Session.Serve one request per Read. Serve reads again
// only when it has answered everything it was given, so the interval from
// one Read's return to the next Read's call is one request through the
// protocol layer.
type serveReader struct {
	reqs [][]byte
	tr   *tracer
	open int32
}

func (r *serveReader) Read(p []byte) (int, error) {
	r.tr.end(r.open)
	r.open = -1
	if len(r.reqs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.reqs[0])
	if n < len(r.reqs[0]) {
		return 0, io.ErrShortBuffer
	}
	r.reqs = r.reqs[1:]
	r.open = r.tr.begin(spanServe, false)
	return n, nil
}

// servePass sends n ops of the workload's mix through Session.Serve on
// in-memory buffers and returns how many were not answered as they should.
func servePass(w *worker, backend memcache.Backend, tr *tracer, n int) (failed int64) {
	var reqs [][]byte
	var writes, reads int
	for i := 0; i < n; i++ {
		var req bytes.Buffer
		if isRead, idx := w.pick(); isRead {
			reads++
			fmt.Fprintf(&req, "get %s\r\n", w.kg.key(w.keyBuf, uint64(idx)))
		} else {
			writes++
			w.vers[idx]++
			val := w.kg.value(w.valBuf, uint64(idx), uint64(w.vers[idx]))
			fmt.Fprintf(&req, "set %s 0 0 %d\r\n%s\r\n", w.kg.key(w.keyBuf, uint64(idx)), len(val), val)
		}
		reqs = append(reqs, req.Bytes())
	}
	var replies bytes.Buffer
	err := memcache.NewSession(backend, 0, &serveReader{reqs: reqs, tr: tr, open: -1}, &replies).Serve()
	stored := bytes.Count(replies.Bytes(), []byte("STORED\r\n"))
	values := bytes.Count(replies.Bytes(), []byte("VALUE "))
	if err != nil {
		return int64(n)
	}
	return int64(max(writes-stored, 0) + max(reads-values, 0))
}

// pass is one run of the traced workload's ops, with or without decorators.
type pass struct {
	b        *bench
	env      layered
	elapsed  time.Duration
	sumOpNS  float64
	writeP50 float64
	writes   int64
	pool     nvm.StatsSnapshot
	eng      txn.StatsSnapshot
	// allocator deltas
	allocBytes, refills int64
	gcSaved             int64
	hits, misses, evict int64
}

// runPass sets the stack up (decorated when tr is not nil), preloads it,
// warms up, and runs n ops on one worker.
func runPass(sp *spec, cfg config, n int, tr *tracer) (p pass, err error) {
	wrapEngine := func(e pds.Engine) pds.Engine { return e }
	wrapBackend := func(b memcache.Backend) memcache.Backend { return b }
	if tr != nil {
		wrapEngine = func(e pds.Engine) pds.Engine {
			tr.pool = e.Pool()
			tr.eng = &tracedEngine{Engine: e, tr: tr}
			return tr.eng
		}
		wrapBackend = func(b memcache.Backend) memcache.Backend { return &tracedBackend{Backend: b, tr: tr} }
	}
	if sp.served {
		p.env, err = newLocalKV(sp, wrapEngine, wrapBackend)
	} else {
		p.env, err = newLibEnv(sp, wrapEngine)
	}
	if err != nil {
		return p, err
	}
	if p.b, err = newBench(sp, cfg, p.env); err != nil {
		return p, errors.Join(err, p.env.close())
	}
	w := p.b.workers[0]
	if tr != nil {
		root := spanOp
		if sp.served {
			root = spanRequest
		}
		w.t = &tracedTarget{target: w.t, tr: tr, kind: root}
	}
	w.reserve(n)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	w.run(deadline, int(warmupFrac*float64(n)))
	w.resetSamples()

	v := p.env.view()
	pool0, eng0 := v.pool.Stats(), v.eng.Stats().Snapshot()
	_, _, bytes0, refills0 := v.alloc.Stats().Snapshot()
	hits0, misses0, evict0 := p.cacheCounters()
	if tr != nil {
		tr.on = true
	}
	start := time.Now()
	w.run(deadline, n)
	p.elapsed = time.Since(start)
	if tr != nil {
		tr.on = false
	}
	p.pool, p.eng = v.pool.Stats().Sub(pool0), v.eng.Stats().Snapshot().Sub(eng0)
	_, _, bytes1, refills1 := v.alloc.Stats().Snapshot()
	p.allocBytes, p.refills = bytes1-bytes0, refills1-refills0
	p.gcSaved = v.pool.GroupCommitStats().FencesSaved
	hits1, misses1, evict1 := p.cacheCounters()
	p.hits, p.misses, p.evict = hits1-hits0, misses1-misses0, evict1-evict0

	p.writes = int64(len(w.writeNS))
	if p.writes == 0 || len(w.readNS) == 0 {
		return p, errors.Join(errors.New("traced pass too short: no reads or no writes completed"), p.env.close())
	}
	for _, ns := range w.readNS {
		p.sumOpNS += float64(ns)
	}
	for _, ns := range w.writeNS {
		p.sumOpNS += float64(ns)
	}
	p.writeP50 = percentile(sortedCopy(w.writeNS), 50)
	return p, nil
}

func (p *pass) cacheCounters() (hits, misses, evictions int64) {
	if b := p.env.view().backend; b != nil {
		return b.Counters()
	}
	return 0, 0, 0
}

func (p *pass) opsPerS() float64 {
	w := p.b.workers[0]
	return float64(len(w.readNS)+len(w.writeNS)) / p.elapsed.Seconds()
}

// runTraced is the per-layer run: the workload's ops on one worker in this
// process, plain, then with the decorators installed, then plain again; one
// injected crash and a read-back on the decorated stack; and the isolated
// probes.
func runTraced(sp spec, cfg config) (res result, err error) {
	sp = sp.scaled(cfg.scale)
	sp.workers = 1
	n := tracedOps / cfg.scale
	if sp.roundOps > 0 {
		sp.roundOps = n + n/10
	}

	// The plain pass runs before and after the traced one and the traced
	// rate is compared with their mean, so that a process that is still
	// warming up, or slowing down, does not pass for tracing overhead.
	plain := func() (opsPerS, writeP50NS float64, err error) {
		p, err := runPass(&sp, cfg, n, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("plain pass: %w", err)
		}
		res.Attempted += p.b.workers[0].attempted
		res.Failed += p.b.workers[0].failed
		err = p.env.close()
		debug.FreeOSMemory()
		return p.opsPerS(), p.writeP50, err
	}
	plainBefore, plainWriteP50, err := plain()
	if err != nil {
		return res, err
	}

	tr := newTracer(nil, 12*n)
	p, err := runPass(&sp, cfg, n, tr)
	if err != nil {
		return res, fmt.Errorf("traced pass: %w", err)
	}
	defer func() {
		if p.env != nil {
			err = errors.Join(err, p.env.close())
		}
	}()
	w := p.b.workers[0]
	// The crash below replaces the decorated engine; its access counts are
	// the traced pass's.
	loads, stores := tr.eng.loads, tr.eng.stores
	k, _ := p.env.(*localKV)
	mainSpans := len(tr.spans)

	var protoSelfUS float64
	if k != nil {
		tr.on = true
		w.attempted += int64(n)
		w.failed += servePass(w, k.backend, tr, n)
		tr.on = false
		serve := selfTimes(tr.spans, mainSpans, len(tr.spans))[spanServe]
		protoSelfUS = float64(serve.selfNS) / float64(serve.n) / 1e3
	}
	if err := writeJSONL(cfg.outDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, cfg.seed), tr.spans); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	if err := p.env.crash(w, rng); err != nil {
		return res, fmt.Errorf("crash: %w", err)
	}
	var restartMS float64
	if k != nil {
		restartMS = float64(k.sup.Status().LastRecoveryNS) / 1e6
	}
	if err := w.audit(); err != nil {
		return res, fmt.Errorf("read-back after crash: %w", err)
	}

	sums := selfTimes(tr.spans, 0, mainSpans)
	var selfNS, selfFences int64
	for _, l := range sums {
		selfNS += l.selfNS
		selfFences += l.selfFences
	}
	writes := float64(p.writes)
	// countedWrites is how many of the writes recorded fence and flush counts.
	countedWrites := float64(sums[spanRun].counted)
	us := func(ns int64, per float64) float64 {
		if per == 0 {
			return 0
		}
		return float64(ns) / per / 1e3
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	lat := nvm.DefaultLatency
	simWaitUS := float64(p.pool.Fences*int64(lat.FenceNS)+p.pool.Flushes*int64(lat.FlushNS)) / writes / 1e3
	var front memcache.FrontStats
	if k != nil {
		front = k.backend.FrontStats()
	}
	m := map[string]metric{
		"client.net_self_us":             {us(sums[spanRequest].selfNS, float64(sums[spanRequest].n)), "us"},
		"memcache.proto_self_us":         {protoSelfUS, "us"},
		"memcache.backend_self_us":       {us(sums[spanBackend].selfNS, float64(sums[spanBackend].n)), "us"},
		"memcache.get_hit_rate":          {ratio(p.hits, p.hits+p.misses), "ratio"},
		"memcache.front_hit_rate":        {ratio(front.Hits, front.Hits+front.Misses), "ratio"},
		"memcache.evictions":             {float64(p.evict), "count"},
		"memcache.restart_ms":            {restartMS, "ms"},
		"pds.op_self_us":                 {us(sums[spanOp].selfNS, float64(sums[spanOp].n)), "us"},
		"pds.mem_loads_per_write":        {float64(loads) / writes, "count"},
		"pds.mem_stores_per_write":       {float64(stores) / writes, "count"},
		"clobber.run_self_us":            {us(sums[spanRun].selfNS, writes), "us"},
		"clobber.run_self_fences":        {float64(sums[spanRun].selfFences) / countedWrites, "count"},
		"clobber.run_self_flushes":       {float64(sums[spanRun].selfFlushes) / countedWrites, "count"},
		"clobber.exec_self_us":           {us(sums[spanExec].selfNS, writes), "us"},
		"clobber.exec_self_fences":       {float64(sums[spanExec].selfFences) / countedWrites, "count"},
		"clobber.exec_self_flushes":      {float64(sums[spanExec].selfFlushes) / countedWrites, "count"},
		"clobber.runro_us":               {us(sums[spanRunRO].durNS, float64(sums[spanRunRO].n)), "us"},
		"clobber.clog_entries_per_write": {float64(p.eng.LogEntries) / writes, "count"},
		"clobber.clog_bytes_per_write":   {float64(p.eng.LogBytes) / writes, "bytes"},
		"clobber.vlog_bytes_per_write":   {float64(p.eng.VLogBytes) / writes, "bytes"},
		"clobber.recover_ms":             {float64(tr.eng.recoverNS) / 1e6, "ms"},
		"clobber.recovered_txns":         {float64(tr.eng.recovered), "count"},
		"pmem.alloc_us_per_write":        {us(sums[spanAlloc].durNS, writes), "us"},
		"pmem.allocs_per_write":          {float64(sums[spanAlloc].n) / writes, "count"},
		"pmem.alloc_fences_per_write":    {float64(sums[spanAlloc].fences) / countedWrites, "count"},
		"pmem.alloc_flushes_per_write":   {float64(sums[spanAlloc].flushes) / countedWrites, "count"},
		"pmem.free_us_per_write":         {us(sums[spanFree].durNS, writes), "us"},
		"pmem.frees_per_write":           {float64(sums[spanFree].n) / writes, "count"},
		"pmem.free_fences_per_write":     {float64(sums[spanFree].fences) / countedWrites, "count"},
		"pmem.refills":                   {float64(p.refills), "count"},
		"pmem.heap_bytes_per_user_byte":  {ratio(p.allocBytes, w.userBytes), "ratio"},
		"nvm.sim_wait_us_per_write":      {simWaitUS, "us"},
		"nvm.sim_wait_frac":              {simWaitUS / (plainWriteP50 / 1e3), "ratio"},
		"nvm.bytes_stored_per_write":     {float64(p.pool.BytesStored) / writes, "bytes"},
		"nvm.gc_fences_saved_per_write":  {float64(p.gcSaved) / writes, "count"},
		"trace.closure_frac":             {float64(selfNS) / p.sumOpNS, "ratio"},
		"trace.fence_closure_frac":       {float64(selfFences) / countedWrites / (float64(p.pool.Fences) / writes), "ratio"},
	}
	probes(m)
	res.Metrics = m
	res.Attempted += w.attempted
	res.Failed += w.failed
	err = p.env.close()
	p.env = nil
	if err != nil {
		return res, err
	}
	debug.FreeOSMemory()
	plainAfter, _, err := plain()
	m["trace.overhead_frac"] = metric{1 - p.opsPerS()/((plainBefore+plainAfter)/2), "ratio"}
	res.Correct = res.Failed == 0 && err == nil
	return res, err
}

// probes times single calls into the two lowest layers and the router on a
// scratch pool, away from any workload: what one persist, one store and one
// data-log append cost by themselves.
func probes(m map[string]metric) {
	const iters = 20_000
	pool := nvm.New(16<<20, nvm.WithLatency(nvm.DefaultLatency))
	pool.Prefault()
	pool.SetFastPath(true)
	base := pool.HeapBase()

	per := func(fn func(i uint64)) float64 {
		start := time.Now()
		for i := uint64(0); i < iters; i++ {
			fn(i)
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	m["nvm.store64_ns"] = metric{per(func(i uint64) { pool.Store64(base+i%4096*8, i) }), "ns"}
	m["nvm.persist_ns"] = metric{per(func(i uint64) {
		addr := base + i%4096*64
		pool.Store64(addr, i)
		pool.Persist(addr, 8)
	}), "ns"}

	// The data log in the format the engines create by default.
	const logCap = 1 << 20
	log := plog.FormatDataLog(pool, 0, base+(1<<20), logCap)
	appendProbe := func(size int) (ns, flushes, fences float64) {
		payload := make([]byte, size)
		before := pool.Stats()
		ns = per(func(i uint64) {
			// A transaction's worth of entries, then the next transaction
			// starts the log over, as the engines do.
			if i%16 == 0 {
				log.Reset()
			}
			if _, err := log.Append(i/16+1, base, payload, plog.AppendOptions{}); err != nil {
				panic(err)
			}
		})
		d := pool.Stats().Sub(before)
		return ns, float64(d.Flushes) / iters, float64(d.Fences) / iters
	}
	ns8, flushes8, fences8 := appendProbe(8)
	ns256, flushes256, _ := appendProbe(256)
	m["plog.append8_ns"] = metric{ns8, "ns"}
	m["plog.append8_flushes"] = metric{flushes8, "count"}
	m["plog.append8_fences"] = metric{fences8, "count"}
	m["plog.append256_ns"] = metric{ns256, "ns"}
	m["plog.append256_flushes"] = metric{flushes256, "count"}

	router := shard.NewRouter(8)
	key := make([]byte, 16)
	sink := 0
	m["shard.route_ns"] = metric{per(func(i uint64) {
		key[0], key[1] = byte(i), byte(i>>8)
		sink += router.ShardOf(key)
	}), "ns"}
	_ = sink
}
