package chaos

import (
	"strings"
	"testing"

	"clobbernvm/internal/nvm"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		DefaultSpec(),
		{Engine: "pmdk", Clients: 4, Rounds: 3, KeysPerClient: 16, Seed: 99,
			Kind: nvm.CrashAtStore, Policy: nvm.EvictAll, Broken: true},
		{Engine: "atlas", Clients: 2, Rounds: 1, KeysPerClient: 8, Seed: -5,
			Kind: nvm.CrashAtFence, Policy: nvm.EvictTorn},
		{Engine: "clobber", Clients: 4, Rounds: 2, KeysPerClient: 8, Seed: 11,
			Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom,
			Shards: 2, FrontCache: true, Lanes: 4},
		{Engine: "clobber", Clients: 2, Rounds: 1, KeysPerClient: 8, Seed: 12,
			Kind: nvm.CrashAtAny, Policy: nvm.EvictRandom, FrontStale: true},
	}
	for _, want := range specs {
		got, err := Parse(want.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip %q: got %+v, want %+v", want.String(), got, want)
		}
	}
	for _, bad := range []string{"clients", "clients=x", "evict=sometimes", "frobs=1", "clients=0", "rounds=-1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", bad)
		}
	}
}

// TestChaosDurabilityAtAck is the acceptance bar: concurrent clients,
// repeated crash/recover rounds, zero durability-at-ack violations and zero
// leaked goroutines. Short mode trims the schedule; the full run covers the
// 8-client / 20-round bar.
func TestChaosDurabilityAtAck(t *testing.T) {
	spec := DefaultSpec()
	if testing.Short() {
		spec.Clients, spec.Rounds, spec.KeysPerClient = 4, 3, 16
	}
	res, err := Run(spec, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != spec.Rounds {
		t.Errorf("completed %d rounds, want %d", res.Rounds, spec.Rounds)
	}
	if res.Restarts != int64(spec.Rounds) {
		t.Errorf("restarts = %d, want %d", res.Restarts, spec.Rounds)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.LeakedGoroutines != 0 {
		t.Errorf("leaked %d goroutines", res.LeakedGoroutines)
	}
	if res.OpsAcked == 0 {
		t.Error("no operations acknowledged — the harness generated no real traffic")
	}
	t.Logf("acked=%d unacked=%d rejected=%d recovered=%d reexec=%d rolled-back=%d in %v",
		res.OpsAcked, res.OpsUnacked, res.OpsRejected,
		res.Recovered, res.Reexecuted, res.RolledBack, res.Elapsed)
}

// TestChaosOtherEngines runs a trimmed schedule over the rest of the
// failure-atomicity roster: the invariant is engine-independent.
func TestChaosOtherEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("trimmed roster covered by TestChaosDurabilityAtAck in short mode")
	}
	for _, eng := range []string{"pmdk", "mnemosyne", "atlas"} {
		t.Run(eng, func(t *testing.T) {
			spec := DefaultSpec()
			spec.Engine = eng
			spec.Clients, spec.Rounds, spec.KeysPerClient, spec.Seed = 4, 3, 16, 7
			res, err := Run(spec, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if res.LeakedGoroutines != 0 {
				t.Errorf("leaked %d goroutines", res.LeakedGoroutines)
			}
		})
	}
}

// TestChaosFrontCacheCoherent is the front-cache coherence audit: with the
// volatile hot-key front enabled the inline read oracle in every client
// checks each GET against the acked-write history, so any stale front hit —
// a value older than the client's last acknowledged overwrite, or a resurrected
// deleted key — lands in Violations. Crash rounds additionally exercise the
// recovery contract that the front is dropped wholesale before the rebuilt
// persistent cache is swapped in. Runs both single-pool (with write lanes)
// and sharded variants, matching the serving configurations the SLO sweep
// measures.
func TestChaosFrontCacheCoherent(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Spec)
	}{
		{"lanes", func(s *Spec) { s.FrontCache = true; s.Lanes = 4 }},
		{"sharded", func(s *Spec) { s.FrontCache = true; s.Shards = 2; s.Lanes = 2 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			spec := DefaultSpec()
			spec.Clients, spec.Rounds, spec.KeysPerClient = 4, 4, 16
			if testing.Short() {
				spec.Rounds = 2
			}
			v.mut(&spec)
			res, err := Run(spec, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			for _, viol := range res.Violations {
				t.Errorf("violation: %s", viol)
			}
			if res.LeakedGoroutines != 0 {
				t.Errorf("leaked %d goroutines", res.LeakedGoroutines)
			}
			if res.OpsAcked == 0 {
				t.Error("no operations acknowledged — the harness generated no real traffic")
			}
		})
	}
}

// TestChaosConvictsStaleFrontCache is the coherence audit's self-test: a
// front cache whose write-path invalidation is deliberately disabled serves
// whatever value it first populated for a key, forever. Before the first
// crash is armed a client overwrites and re-reads a hot key; the re-read
// returns a value older than the client's own acknowledged SET, and the
// inline oracle must convict it.
func TestChaosConvictsStaleFrontCache(t *testing.T) {
	spec := DefaultSpec()
	spec.Clients, spec.Rounds, spec.KeysPerClient = 4, 2, 8
	spec.FrontStale = true
	res, err := Run(spec, t.Logf)
	if res == nil {
		t.Fatalf("no result: %v", err)
	}
	for _, v := range res.Violations {
		if v.Key == "c00-k000" && strings.HasPrefix(v.Detail, "read ") {
			t.Logf("convicted: %d violations, first: %s", len(res.Violations), v)
			return
		}
	}
	t.Fatalf("non-invalidating front cache escaped conviction (err=%v): %v", err, res.Violations)
}

// TestChaosConvictsBrokenEngine is the harness self-test: an undo-log engine
// whose recovery is deliberately skipped, crashed mid-store with every dirty
// line written back, must be caught — by the post-recovery audit or by the
// supervisor refusing to serve the corrupted image. A chaos harness that
// cannot convict a known-broken engine proves nothing about working ones.
//
// Conviction on any one schedule is probabilistic: the crash fires at a
// seeded persist point, but which client op is in flight at that instant
// depends on goroutine scheduling, and under heavy load a schedule can land
// every crash between transactions. So the test tries a few seeds and passes
// on the first conviction; a harness that truly cannot convict fails all of
// them.
func TestChaosConvictsBrokenEngine(t *testing.T) {
	rounds := 10
	if testing.Short() {
		rounds = 5
	}
	for _, seed := range []int64{3, 4, 5} {
		spec := Spec{
			Engine: "pmdk", Clients: 4, Rounds: rounds, KeysPerClient: 16, Seed: seed,
			Kind: nvm.CrashAtStore, Policy: nvm.EvictAll, Broken: true,
		}
		res, err := Run(spec, t.Logf)
		if res == nil {
			t.Fatalf("no result: %v", err)
		}
		if len(res.Violations) > 0 {
			t.Logf("seed %d: convicted after %d rounds: %d violations, first: %s",
				seed, res.Rounds, len(res.Violations), res.Violations[0])
			return
		}
		if err != nil && strings.Contains(err.Error(), "supervisor down") {
			t.Logf("seed %d: convicted by supervisor shutdown after %d rounds: %v",
				seed, res.Rounds, err)
			return
		}
		t.Logf("seed %d: escaped (err=%v rounds=%d), trying next seed", seed, err, res.Rounds)
	}
	t.Fatalf("broken engine escaped conviction on all seeds")
}
