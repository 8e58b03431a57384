// Command memcachedsim runs the persistent memcached-style server (§5.6)
// over a simulated NVM pool, speaking the memcached text protocol on TCP.
//
//	memcachedsim -addr 127.0.0.1:11211 -engine clobber -lock rwlock
//
// Try it with a TCP client:
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
//
// The cache is wrapped in a crash-recovery supervisor: if the simulated
// pool's crash latch fires (e.g. armed via the /debug/crash endpoint), the
// server drains in-flight requests with "SERVER_ERROR recovering", rebuilds
// the world from the durable image, re-runs engine recovery, and resumes —
// connections stay up throughout. /debug/crash?at=<store|flush|fence|any>&
// point=<n> arms the next crash; "recovery" in /debug/vars reports restarts
// and the last recovery's outcome.
//
// A debug HTTP endpoint (-debug-addr) serves /debug/vars (JSON metrics:
// per-phase txn latency histograms, pool persist traffic, engine log
// counters, cache hit rates, recovery status), /debug/pprof/* and
// /debug/trace (the transaction lifecycle flight recorder). -trace writes
// every lifecycle event as JSONL to a file.
//
// With -selftest the binary instead drives the four §5.6 request mixes
// against the in-process engine and prints throughput.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"clobbernvm/internal/harness"
	"clobbernvm/internal/memcache"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "listen address")
	engine := flag.String("engine", "clobber", "engine: clobber, pmdk, mnemosyne, atlas")
	lock := flag.String("lock", "rwlock", "lock: mutex, spinlock, rwlock")
	capacity := flag.Uint64("capacity", 1<<18, "max items before LRU eviction")
	poolMB := flag.Uint64("pool-mb", 512, "simulated pool size in MiB")
	selftest := flag.Bool("selftest", false, "run the 5.6 workload mixes and exit")
	debugAddr := flag.String("debug-addr", "127.0.0.1:0", "debug HTTP endpoint (vars/pprof/trace); empty disables")
	tracePath := flag.String("trace", "", "write txn lifecycle trace events as JSONL to this file")
	traceRing := flag.Int("trace-ring", 4096, "in-memory trace ring capacity served at /debug/trace (0 disables)")
	groupCommit := flag.Bool("group-commit", false, "enable epoch-based group commit: concurrent connections share commit fences")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "per-connection read/write deadline; 0 disables")
	drainTimeout := flag.Duration("drain-timeout", time.Second, "how long Close waits for in-flight sessions before force-closing")
	shards := flag.Int("shards", 1, "independent persistence domains behind a consistent-hash key router; each shard has its own pool, engine and crash-recovery supervisor")
	frontCache := flag.Bool("front-cache", false, "enable the volatile hot-key front cache: hot reads skip the txn layer; writes invalidate inline before the ack; recovery drops the front wholesale")
	frontEntries := flag.Int("front-entries", 0, "front cache capacity in entries (0 = default 4096)")
	writeLanes := flag.Int("write-lanes", 0, "partition each shard's keyspace into this many independent write lanes so concurrent writes commit in parallel (0 or 1 = single lane)")
	flag.Parse()

	const serverConns = 8
	sc := harness.SmallScale
	sc.PoolBytes = *poolMB << 20
	sc.Latency = nvm.DefaultLatency
	sc.GroupCommit = *groupCommit
	// The engine needs one worker slot per concurrent connection; SmallScale
	// is sized for two benchmark threads, not a server's session pool.
	sc.Threads = []int{serverConns}

	var lockMode memcache.LockMode
	switch *lock {
	case "mutex":
		lockMode = memcache.LockExclusive
	case "spinlock":
		lockMode = memcache.LockSpin
	case "rwlock":
		lockMode = memcache.LockRW
	default:
		fmt.Fprintf(os.Stderr, "memcachedsim: unknown lock %q\n", *lock)
		os.Exit(2)
	}

	const rootSlot = 34
	copts := memcache.Options{
		Capacity:          *capacity,
		Lock:              lockMode,
		WriteLanes:        *writeLanes,
		FrontCache:        *frontCache,
		FrontCacheEntries: *frontEntries,
	}

	// backend is what the protocol layer serves; sups are the per-shard
	// crash-recovery supervisors behind it (one entry when unsharded).
	var (
		backend memcache.Backend
		sups    []*memcache.Supervisor
		sharded *memcache.ShardedBackend
		cache   *memcache.Cache // selftest drives the cache directly (unsharded only)
	)
	if *shards <= 1 {
		setup, err := harness.NewSetup(harness.EngineKind(*engine), sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memcachedsim: %v\n", err)
			os.Exit(1)
		}
		cache, err = memcache.New(setup.Engine, rootSlot, copts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memcachedsim: %v\n", err)
			os.Exit(1)
		}
		// Crash-recovery supervision: on a pool crash latch, rebuild the world
		// from the durable image exactly the way this process builds it at boot
		// (same latency model, fast path, group commit), re-attach the engine,
		// and let the supervisor re-register txfuncs and run recovery.
		rebuild := func(img []byte) (*nvm.Pool, pds.Engine, error) {
			p, err := nvm.NewFromImage(img, nvm.WithLatency(sc.Latency))
			if err != nil {
				return nil, nil, err
			}
			p.Prefault()
			p.SetFastPath(true)
			if sc.GroupCommit {
				p.GroupCommit(nvm.DefaultGroupCommitWaiters, nvm.DefaultGroupCommitDelayNS)
			}
			a, err := pmem.Attach(p)
			if err != nil {
				return nil, nil, err
			}
			e, err := harness.AttachEngine(harness.EngineKind(*engine), p, a)
			if err != nil {
				return nil, nil, err
			}
			return p, e, nil
		}
		sup := memcache.NewSupervisor(cache, setup.Pool, rootSlot, copts, rebuild)
		sups = []*memcache.Supervisor{sup}
		backend = sup
	} else {
		// Sharded: N independent pools behind the router, one supervisor per
		// shard, so a crash drains and recovers only the shard that latched.
		sc.Shards = *shards
		shSetup, err := harness.NewShardedSetup(harness.EngineKind(*engine), sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memcachedsim: %v\n", err)
			os.Exit(1)
		}
		sups = make([]*memcache.Supervisor, shSetup.Set.N())
		for i := range sups {
			sh := shSetup.Set.Shard(i)
			shCache, err := memcache.New(sh.Engine, rootSlot, copts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memcachedsim: shard %d: %v\n", i, err)
				os.Exit(1)
			}
			rebuild := func(img []byte) (*nvm.Pool, pds.Engine, error) {
				s2, err := harness.RebuildShard(harness.EngineKind(*engine), img, sc)
				if err != nil {
					return nil, nil, err
				}
				return s2.Pool, s2.Engine, nil
			}
			sups[i] = memcache.NewSupervisor(shCache, sh.Pool, rootSlot, copts, rebuild)
		}
		sharded, err = memcache.NewShardedBackend(sups)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memcachedsim: %v\n", err)
			os.Exit(1)
		}
		backend = sharded
	}
	sup := sups[0]

	// Observability: metrics on, trace sinks per flags.
	obs.Enable(true)
	var ring *obs.RingSink
	if *traceRing > 0 {
		ring = obs.NewRingSink(*traceRing)
	}
	var traceFile *os.File
	var sinks []obs.Sink
	if ring != nil {
		sinks = append(sinks, ring)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memcachedsim: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		sinks = append(sinks, obs.NewJSONLSink(traceFile))
	}
	if s := obs.MultiSink(sinks...); s != nil {
		obs.SetSink(s)
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memcachedsim: debug listen: %v\n", err)
			os.Exit(1)
		}
		// Read pool/engine through the supervisor: recovery swaps in a
		// fresh incarnation, and the debug page must follow it. In a sharded
		// deployment shard 0 is the representative for pool/engine stats and
		// "recovery" carries every shard's supervisor status.
		recovery := func() any { return sup.Status() }
		if sharded != nil {
			recovery = func() any { return sharded.Statuses() }
		}
		mux := obs.DebugMux(map[string]func() any{
			"pool":        func() any { return sup.Pool().Stats() },
			"engine":      func() any { return sup.Engine().Stats().Snapshot() },
			"groupcommit": func() any { return sup.Pool().GroupCommitStats() },
			"recovery":    recovery,
			"cache": func() any {
				hits, misses, evictions := backend.Counters()
				return map[string]int64{
					"hits":      hits,
					"misses":    misses,
					"evictions": evictions,
				}
			},
			"frontcache": func() any { return backend.FrontStats() },
		}, ring)
		mux.HandleFunc("/debug/crash", func(w http.ResponseWriter, r *http.Request) {
			kind, err := nvm.ParseCrashKind(r.URL.Query().Get("at"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			point, err := strconv.ParseInt(r.URL.Query().Get("point"), 10, 64)
			if err != nil || point < 1 {
				http.Error(w, "point must be a positive integer", http.StatusBadRequest)
				return
			}
			// &shard=<i> picks the victim domain (default 0; only shard 0
			// exists unsharded).
			target := 0
			if q := r.URL.Query().Get("shard"); q != "" {
				target, err = strconv.Atoi(q)
				if err != nil || target < 0 || target >= len(sups) {
					http.Error(w, fmt.Sprintf("shard must be in [0,%d)", len(sups)), http.StatusBadRequest)
					return
				}
			}
			if err := sups[target].Arm(kind, point); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			fmt.Fprintf(w, "armed: crash on shard %d at %s persistence event #%d\n", target, kind, point)
		})
		go func() { _ = http.Serve(dln, mux) }()
		fmt.Printf("memcachedsim: debug endpoint on http://%s/debug/vars\n", dln.Addr())
	}

	if *selftest {
		if cache == nil {
			fmt.Fprintln(os.Stderr, "memcachedsim: -selftest drives a single cache; run it with -shards 1")
			os.Exit(2)
		}
		for _, mix := range memcache.AllMixes {
			res, err := memcache.Drive(cache, memcache.DriverConfig{
				Mix: mix, Threads: 4, Ops: 20000, KeySpace: 10000, Seed: 1,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "memcachedsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-10s %-8s %8.0f ops/s\n", mix.Name, *engine,
				float64(res.Ops)/res.Elapsed.Seconds())
		}
		return
	}

	srv, err := memcache.NewServer(backend, *addr, serverConns,
		memcache.WithIdleTimeout(*idleTimeout),
		memcache.WithDrainTimeout(*drainTimeout))
	if err != nil {
		fmt.Fprintf(os.Stderr, "memcachedsim: %v\n", err)
		os.Exit(1)
	}
	// The handler goes in before the announcement: whoever reads "listening
	// on" may signal at once, and an unhandled SIGTERM kills without a drain.
	sig := shutdownSignals()
	fmt.Printf("memcachedsim: engine=%s lock=%s shards=%d lanes=%d front-cache=%v listening on %s (ctrl-c or SIGTERM to stop)\n",
		*engine, *lock, len(sups), *writeLanes, *frontCache, srv.Addr())

	<-sig
	fmt.Println(shutdown(srv, backend, sups, traceFile))
}

// shutdownSignals delivers SIGINT and SIGTERM on the returned channel:
// ctrl-c at a terminal and an orchestrator's stop signal both get the same
// graceful drain instead of SIGTERM's default instant kill.
func shutdownSignals() chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// shutdown closes the server — stopping the acceptor and letting in-flight
// sessions drain their pipelined commands for the configured drain window —
// detaches the trace sink, and returns the final stats line.
func shutdown(srv *memcache.Server, backend memcache.Backend, sups []*memcache.Supervisor, traceFile *os.File) string {
	_ = srv.Close()
	if traceFile != nil {
		obs.SetSink(nil)
		_ = traceFile.Close()
	}
	hits, misses, evictions := backend.Counters()
	var restarts int64
	for _, s := range sups {
		restarts += s.Restarts()
	}
	return fmt.Sprintf("memcachedsim: done (hits=%d misses=%d evictions=%d restarts=%d)",
		hits, misses, evictions, restarts)
}
