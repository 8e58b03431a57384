package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clobbernvm/internal/memcache"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// Per-shard sizing floors: each shard carries a full engine (slots × data
// log), so the split pool and log capacities cannot shrink below what one
// engine needs to format itself.
const (
	minChaosShardPool    = 1 << 24 // 16 MiB
	minChaosShardDataCap = 1 << 18 // 256 KiB
)

// buildShardWorld provisions one supervised shard: its own seeded pool (the
// seed varies per shard so eviction adversaries differ across domains), its
// own allocator/engine/cache, and a supervisor whose rebuild closure
// restores exactly this shard's configuration.
func buildShardWorld(spec Spec, i int, slots int, copts memcache.Options) (*memcache.Supervisor, error) {
	perPool := uint64(poolBytes) / uint64(spec.Shards)
	if perPool < minChaosShardPool {
		perPool = minChaosShardPool
	}
	perCap := uint64(dataLogCap) / uint64(spec.Shards)
	if perCap < minChaosShardDataCap {
		perCap = minChaosShardDataCap
	}
	es, err := engineSpecSized(spec.Engine, slots, perCap)
	if err != nil {
		return nil, err
	}
	seed := spec.Seed + int64(i)*104729
	pool := nvm.New(perPool, nvm.WithSeed(seed), nvm.WithEviction(spec.Policy))
	alloc, err := pmem.Create(pool)
	if err != nil {
		return nil, err
	}
	eng, err := es.Create(pool, alloc)
	if err != nil {
		return nil, err
	}
	cache, err := memcache.New(eng, rootSlot, copts)
	if err != nil {
		return nil, err
	}
	rebuild := func(img []byte) (*nvm.Pool, pds.Engine, error) {
		p, err := nvm.NewFromImage(img, nvm.WithSeed(seed), nvm.WithEviction(spec.Policy))
		if err != nil {
			return nil, nil, err
		}
		a, err := pmem.Attach(p)
		if err != nil {
			return nil, nil, err
		}
		e, err := es.Attach(p, a)
		if err != nil {
			return nil, nil, err
		}
		if spec.Broken {
			e = skipRecovery{e}
		}
		return p, e, nil
	}
	return memcache.NewSupervisor(cache, pool, rootSlot, copts, rebuild), nil
}

// runSharded is Run over a ShardedBackend: every round picks one seeded-
// random victim shard, crashes it under live traffic from all clients, and
// audits two contracts — durability-at-ack on every key (as ever), plus
// crash isolation: no shard other than the victim may restart or stop
// serving, ever.
func runSharded(spec Spec, logf func(format string, a ...any)) (*Result, error) {
	start := time.Now()
	baseline := runtime.NumGoroutine()

	slots := spec.Clients
	if slots < 4 {
		slots = 4
	}
	if slots > 16 {
		slots = 16
	}
	copts := cacheOptions(spec)
	sups := make([]*memcache.Supervisor, spec.Shards)
	for i := range sups {
		var err error
		sups[i], err = buildShardWorld(spec, i, slots, copts)
		if err != nil {
			return nil, fmt.Errorf("chaos: shard %d: %w", i, err)
		}
	}
	backend, err := memcache.NewShardedBackend(sups)
	if err != nil {
		return nil, err
	}
	srv, err := memcache.NewServer(backend, "127.0.0.1:0", slots,
		memcache.WithIdleTimeout(30*time.Second), memcache.WithDrainTimeout(time.Second))
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(spec.Seed))
	clients := make([]*client, spec.Clients)
	for i := range clients {
		clients[i] = newClient(i, srv.Addr(), spec.KeysPerClient,
			rand.New(rand.NewSource(spec.Seed+int64(i)*7919+1)))
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	res := &Result{Spec: spec}
	probeFront(spec, clients, res)
	restartsBefore := make([]int64, spec.Shards)
	for round := 0; round < spec.Rounds; round++ {
		victim := rng.Intn(spec.Shards)
		vsup := backend.Shard(victim)
		for i, s := range sups {
			restartsBefore[i] = s.Restarts()
		}
		gen0 := vsup.Generation()
		point := 1 + rng.Int63n(pointSpan(spec.Kind))
		if err := backend.ArmShard(victim, spec.Kind, point); err != nil {
			return res, fmt.Errorf("chaos: round %d: arm shard %d: %w", round, victim, err)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) { defer wg.Done(); c.loop(&stop) }(c)
		}
		fired := waitGeneration(vsup, gen0, 30*time.Second)
		stop.Store(true)
		wg.Wait()
		if !fired {
			return res, fmt.Errorf("chaos: round %d: crash on shard %d at %s #%d never fired or recovery hung",
				round, victim, spec.Kind, point)
		}
		if !vsup.Serving() {
			_, lastErr := vsup.LastReport()
			return res, fmt.Errorf("chaos: round %d: shard %d down after crash: %v", round, victim, lastErr)
		}
		res.Rounds++

		// Crash isolation: the blast radius is exactly the victim.
		for i, s := range sups {
			if i == victim {
				continue
			}
			if got := s.Restarts(); got != restartsBefore[i] {
				res.Violations = append(res.Violations, Violation{
					Round: round, Key: fmt.Sprintf("(shard %d)", i),
					Detail: fmt.Sprintf("restarted %d time(s) during shard %d's crash", got-restartsBefore[i], victim),
				})
			}
			if !s.Serving() {
				res.Violations = append(res.Violations, Violation{
					Round: round, Key: fmt.Sprintf("(shard %d)", i),
					Detail: fmt.Sprintf("stopped serving during shard %d's crash", victim),
				})
			}
		}

		rep, _ := vsup.LastReport()
		res.Recovered += rep.Recovered
		res.Reexecuted += rep.Reexecuted
		res.RolledBack += rep.RolledBack
		res.RolledForward += rep.RolledForward
		res.Quarantined += rep.Quarantined
		if rep.Quarantined > 0 {
			res.Violations = append(res.Violations, Violation{
				Round: round, Key: "(report)",
				Detail: fmt.Sprintf("recovery quarantined %d slot(s)", rep.Quarantined),
			})
		}
		for _, c := range clients {
			res.Violations = append(res.Violations, c.takeAnomalies(round)...)
		}
		audit(backend, clients, round, res)
		if err := backend.CheckInvariants(); err != nil {
			res.Violations = append(res.Violations, Violation{
				Round: round, Key: "(invariants)", Detail: err.Error(),
			})
		}
		logf("chaos: round %d/%d: shard %d/%d crash-at=%s#%d restarts=%d violations=%d",
			round+1, spec.Rounds, victim, spec.Shards, spec.Kind, point, backend.Restarts(), len(res.Violations))
	}

	for _, c := range clients {
		res.OpsAcked += c.acked
		res.OpsUnacked += c.unacked
		res.OpsRejected += c.rejected
		c.close()
	}
	res.Restarts = backend.Restarts()
	srv.Close()
	res.LeakedGoroutines = settleGoroutines(baseline, 5*time.Second)
	res.Elapsed = time.Since(start)
	return res, nil
}
