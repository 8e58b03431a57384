// Package chaos is the online counterpart of the crashsweep: instead of
// replaying one workload once per persist point, it keeps a live memcached
// server under concurrent client fire and pulls the plug at seeded random
// persist points, letting the supervisor (internal/memcache) recover
// in-place while the connections stay up. After every crash/recover round it
// audits the durability-at-ack invariant — the paper's operational
// correctness claim for its memcached port:
//
//	every set/delete whose reply reached the client is visible after
//	recovery; an operation without a reply may land either way (clobber's
//	recovery may even complete it by re-execution).
//
// Each client owns a disjoint keyspace and issues one synchronous operation
// at a time, so its model of "what I was acknowledged" is exact and the
// audit needs no cross-client reasoning. Schedules are seeded and replayable
// via the same one-line spec encoding the property harness uses.
package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clobbernvm/internal/crashsweep"
	"clobbernvm/internal/memcache"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// Pool and layout constants. The pool is sized so the cache never needs LRU
// eviction during a run (an eviction would remove an acked key legally and
// blind the audit), and the root slot is distinct from the slots other
// harnesses use so images are recognizably chaos-grown.
const (
	poolBytes  = 1 << 26
	rootSlot   = 18
	dataLogCap = 1 << 20
)

// Spec is one replayable chaos schedule.
type Spec struct {
	Engine        string
	Clients       int
	Rounds        int
	KeysPerClient int
	Seed          int64
	Kind          nvm.CrashKind
	Policy        nvm.EvictPolicy
	// Broken swaps in an engine whose recovery is deliberately skipped —
	// the self-test proving the audit can convict a bad engine.
	Broken bool
	// FrontCache serves reads through the volatile DRAM hot-key front in
	// front of the persistent cache. The audit gains a coherence dimension:
	// clients check every read inline against their oracle, so a front
	// cache that ever returns a value older than the client's last ack is
	// convicted on the spot, and crash rounds verify the front is dropped
	// wholesale on recovery (a stale survivor would likewise convict).
	FrontCache bool
	// FrontStale enables the front cache with invalidation deliberately
	// disabled — the coherence self-test proving the audit convicts a
	// cache that serves stale values. Implies FrontCache.
	FrontStale bool
	// Lanes splits the persistent cache into that many independently
	// locked write lanes (shared group-commit enlistment); 0 or 1 keeps
	// the classic single-lane layout.
	Lanes int
	// Shards runs the server over that many independent persistence domains
	// (internal/memcache.ShardedBackend); each round crashes one seeded-
	// random shard and the audit additionally convicts any *other* shard
	// that restarted or stopped serving — the crash-isolation contract.
	// 0 or 1 is the original single-pool schedule.
	Shards int
}

// DefaultSpec is the acceptance-bar schedule: 8 clients, 20 crash/recover
// rounds, random eviction at arbitrary persist points.
func DefaultSpec() Spec {
	return Spec{
		Engine: "clobber", Clients: 8, Rounds: 20, KeysPerClient: 48,
		Seed: 1, Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom,
	}
}

// String encodes the spec as one replayable line, e.g.
//
//	engine=clobber clients=8 rounds=20 keys=48 seed=1 crash-at=any evict=random
func (s Spec) String() string {
	out := fmt.Sprintf("engine=%s clients=%d rounds=%d keys=%d seed=%d crash-at=%s evict=%s",
		s.Engine, s.Clients, s.Rounds, s.KeysPerClient, s.Seed, s.Kind, s.Policy)
	if s.Broken {
		out += " broken=1"
	}
	if s.Shards > 1 {
		// Appended only when sharded so pre-sharding spec lines round-trip
		// byte-identically.
		out += fmt.Sprintf(" shards=%d", s.Shards)
	}
	// Like shards, serialized only when set so older spec lines round-trip.
	if s.FrontCache {
		out += " front-cache=1"
	}
	if s.FrontStale {
		out += " front-stale=1"
	}
	if s.Lanes > 1 {
		out += fmt.Sprintf(" lanes=%d", s.Lanes)
	}
	return out
}

// Parse decodes a String()-encoded spec; absent fields keep defaults.
func Parse(enc string) (Spec, error) {
	s := DefaultSpec()
	s.Broken = false
	for _, tok := range strings.Fields(enc) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return s, fmt.Errorf("chaos: bad spec token %q (want key=value)", tok)
		}
		var err error
		switch k {
		case "engine":
			s.Engine = v
		case "clients":
			s.Clients, err = strconv.Atoi(v)
		case "rounds":
			s.Rounds, err = strconv.Atoi(v)
		case "keys":
			s.KeysPerClient, err = strconv.Atoi(v)
		case "seed":
			s.Seed, err = strconv.ParseInt(v, 10, 64)
		case "crash-at":
			s.Kind, err = nvm.ParseCrashKind(v)
		case "evict":
			s.Policy, err = nvm.ParseEvictPolicy(v)
		case "broken":
			s.Broken = v == "1" || v == "true"
		case "shards":
			s.Shards, err = strconv.Atoi(v)
		case "front-cache":
			s.FrontCache = v == "1" || v == "true"
		case "front-stale":
			s.FrontStale = v == "1" || v == "true"
		case "lanes":
			s.Lanes, err = strconv.Atoi(v)
		default:
			return s, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return s, fmt.Errorf("chaos: bad spec token %q: %w", tok, err)
		}
	}
	if s.Clients < 1 || s.Rounds < 1 || s.KeysPerClient < 1 {
		return s, fmt.Errorf("chaos: spec needs clients/rounds/keys >= 1, got %q", enc)
	}
	return s, nil
}

// Violation is one observed breach of the durability-at-ack contract (or of
// a structural invariant / recovery report — Key names the pseudo-source).
type Violation struct {
	Round  int
	Key    string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d key %s: %s", v.Round, v.Key, v.Detail)
}

// Result summarizes one chaos run.
type Result struct {
	Spec     Spec
	Rounds   int   // completed crash/recover rounds
	Restarts int64 // successful supervisor restarts

	OpsAcked    int64 // operations acknowledged to a client
	OpsUnacked  int64 // operations with no reply (either-way outcomes)
	OpsRejected int64 // operations refused with "recovering" (never executed)

	// Accumulated recovery-report counters across rounds.
	Recovered, Reexecuted, RolledBack, RolledForward, Quarantined int

	Violations       []Violation
	LeakedGoroutines int
	Elapsed          time.Duration
}

// Reproduce returns the command line that replays this exact schedule.
func (r *Result) Reproduce() string {
	s := r.Spec
	cmd := fmt.Sprintf("go run ./cmd/torture -chaos -engine %s -clients %d -rounds %d -keys %d -seed %d -crash-at %s -evict %s",
		s.Engine, s.Clients, s.Rounds, s.KeysPerClient, s.Seed, s.Kind, s.Policy)
	if s.Broken {
		cmd += " -chaos-broken"
	}
	if s.Shards > 1 {
		cmd += fmt.Sprintf(" -shards %d", s.Shards)
	}
	if s.FrontCache {
		cmd += " -front-cache"
	}
	if s.FrontStale {
		cmd += " -chaos-front-stale"
	}
	if s.Lanes > 1 {
		cmd += fmt.Sprintf(" -write-lanes %d", s.Lanes)
	}
	return cmd
}

// pointSpan bounds the random crash ordinal per kind, scaled to roughly how
// often each event occurs per cache operation so the crash lands within the
// first handful of operations of a round.
func pointSpan(kind nvm.CrashKind) int64 {
	switch kind {
	case nvm.CrashAtStore:
		return 1200
	case nvm.CrashAtFlush:
		return 300
	case nvm.CrashAtFence:
		return 80
	default:
		return 1500
	}
}

// engineSpec resolves the crashsweep roster entry for name, rejecting the
// meter pseudo-engines (no recovery machinery to supervise).
func engineSpec(name string, slots int) (crashsweep.EngineSpec, error) {
	return engineSpecSized(name, slots, dataLogCap)
}

// engineSpecSized is engineSpec with an explicit per-slot data-log capacity
// (sharded runs split the capacity across domains).
func engineSpecSized(name string, slots int, cap uint64) (crashsweep.EngineSpec, error) {
	for _, es := range crashsweep.SpecsSized(slots, cap) {
		if es.Name == name {
			if es.Style != crashsweep.StyleAtomic {
				return es, fmt.Errorf("chaos: engine %q is a meter, not a recoverable engine", name)
			}
			return es, nil
		}
	}
	return crashsweep.EngineSpec{}, fmt.Errorf("chaos: unknown engine %q (want clobber|pmdk|mnemosyne|atlas)", name)
}

// cacheOptions maps the spec onto the memcache world configuration both the
// single-pool and sharded builders use. Capacity stays far above the live
// key count: LRU eviction would legally drop acked keys and blind the audit.
// FrontStale implies the front cache on, with its invalidation hooks
// disabled — the variant the coherence audit must convict.
func cacheOptions(spec Spec) memcache.Options {
	return memcache.Options{
		Capacity:               1 << 16,
		Lock:                   memcache.LockExclusive,
		WriteLanes:             spec.Lanes,
		FrontCache:             spec.FrontCache || spec.FrontStale,
		FrontCacheNoInvalidate: spec.FrontStale,
	}
}

// skipRecovery deliberately drops engine recovery: the embedded interface
// hides the concrete RecoverReport method, and the overridden Recover is a
// no-op, so whatever the crash interrupted is left festering in the image.
// Broken-mode runs use it to prove the audit convicts a bad engine.
type skipRecovery struct{ pds.Engine }

func (skipRecovery) Recover() (int, error) { return 0, nil }

// waitGeneration polls until the supervisor completes a recovery attempt
// past gen0 or the deadline passes.
func waitGeneration(sup *memcache.Supervisor, gen0 int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if sup.Generation() > gen0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// settleGoroutines waits for the goroutine count to fall back to baseline
// and returns the residual leak (0 when everything drained).
func settleGoroutines(baseline int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return 0
		}
		if time.Now().After(deadline) {
			return n - baseline
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Run executes the chaos schedule: build a supervised server, then per round
// arm a seeded crash, run the clients until the supervisor absorbs the
// failure, and audit every modeled key against its client's oracle. logf
// (optional) receives one progress line per round.
func Run(spec Spec, logf func(format string, a ...any)) (*Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if spec.Shards > 1 {
		return runSharded(spec, logf)
	}
	start := time.Now()
	baseline := runtime.NumGoroutine()

	slots := spec.Clients
	if slots < 4 {
		slots = 4
	}
	if slots > 16 {
		slots = 16
	}
	es, err := engineSpec(spec.Engine, slots)
	if err != nil {
		return nil, err
	}

	pool := nvm.New(poolBytes, nvm.WithSeed(spec.Seed), nvm.WithEviction(spec.Policy))
	alloc, err := pmem.Create(pool)
	if err != nil {
		return nil, err
	}
	eng, err := es.Create(pool, alloc)
	if err != nil {
		return nil, err
	}
	copts := cacheOptions(spec)
	cache, err := memcache.New(eng, rootSlot, copts)
	if err != nil {
		return nil, err
	}
	rebuild := func(img []byte) (*nvm.Pool, pds.Engine, error) {
		p, err := nvm.NewFromImage(img, nvm.WithSeed(spec.Seed), nvm.WithEviction(spec.Policy))
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
	sup := memcache.NewSupervisor(cache, pool, rootSlot, copts, rebuild)
	srv, err := memcache.NewServer(sup, "127.0.0.1:0", slots,
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
	for round := 0; round < spec.Rounds; round++ {
		gen0 := sup.Generation()
		point := 1 + rng.Int63n(pointSpan(spec.Kind))
		if err := sup.Arm(spec.Kind, point); err != nil {
			return res, fmt.Errorf("chaos: round %d: arm: %w", round, err)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) { defer wg.Done(); c.loop(&stop) }(c)
		}
		fired := waitGeneration(sup, gen0, 30*time.Second)
		stop.Store(true)
		wg.Wait()
		if !fired {
			return res, fmt.Errorf("chaos: round %d: crash at %s #%d never fired or recovery hung", round, spec.Kind, point)
		}
		if !sup.Serving() {
			_, lastErr := sup.LastReport()
			return res, fmt.Errorf("chaos: round %d: supervisor down after crash: %v", round, lastErr)
		}
		res.Rounds++

		rep, _ := sup.LastReport()
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
		audit(sup, clients, round, res)
		if err := sup.CheckInvariants(); err != nil {
			res.Violations = append(res.Violations, Violation{
				Round: round, Key: "(invariants)", Detail: err.Error(),
			})
		}
		logf("chaos: round %d/%d: crash-at=%s#%d restarts=%d violations=%d",
			round+1, spec.Rounds, spec.Kind, point, sup.Restarts(), len(res.Violations))
	}

	for _, c := range clients {
		res.OpsAcked += c.acked
		res.OpsUnacked += c.unacked
		res.OpsRejected += c.rejected
		c.close()
	}
	res.Restarts = sup.Restarts()
	srv.Close()
	res.LeakedGoroutines = settleGoroutines(baseline, 5*time.Second)
	res.Elapsed = time.Since(start)
	return res, nil
}

// probeFront, when the front cache's invalidation is off, runs one
// overwrite-then-reread of a hot key before the first crash is armed: the
// stale read shows at once, before a crash round's recovery — which starts
// serving from an empty front — can erase the stale entry.
func probeFront(spec Spec, clients []*client, res *Result) {
	if spec.FrontStale {
		clients[0].overwriteReread()
		res.Violations = append(res.Violations, clients[0].takeAnomalies(0)...)
	}
}

// getter is the read path the audit uses: a single supervisor or the
// sharded dispatch layer, both reading exactly the way sessions do.
type getter interface {
	Get(slot int, key []byte) ([]byte, bool, error)
}

// audit checks every key any client ever touched against that client's
// oracle, reading through the supervisor (the same path sessions use).
// A failing read is itself a violation — a recovered store that errors on
// lookup has lost the key as surely as one that returns the wrong value.
func audit(sup getter, clients []*client, round int, res *Result) {
	for _, c := range clients {
		keys := make([]string, 0, len(c.model))
		for k := range c.model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			st := c.model[k]
			val, found, err := sup.Get(0, []byte(k))
			if err != nil {
				res.Violations = append(res.Violations, Violation{
					Round: round, Key: k, Detail: "audit get: " + err.Error(),
				})
				continue
			}
			if !st.allows(found, val) {
				res.Violations = append(res.Violations, Violation{
					Round: round, Key: k,
					Detail: fmt.Sprintf("after recovery read %s, allowed {%s}",
						observed(found, val), st.allowed()),
				})
			}
		}
	}
}
