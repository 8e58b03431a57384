package crashsweep

import (
	"bytes"
	"errors"
	"fmt"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/shard"
)

// This file extends the exhaustive sweep to a sharded backend: N independent
// pools behind the consistent-hash router, the same deterministic workload
// dispatched through a shard.RoutedStore, and every persist point of ONE
// victim shard crash-injected while the other shards run the same window
// undisturbed. The audit is therefore strictly stronger than the unsharded
// cell — besides all-or-nothing recovery of the interrupted operation it
// proves crash isolation at every single persistence-ordering window: no
// survivor shard may latch, lose a committed key, or fail an invariant walk
// because a sibling domain died.

// RunSharded executes the sweep for cfg over a backend of the given shard
// count. shards <= 1 degenerates to the unsharded Run, bit for bit.
func RunSharded(cfg Config, shards int) (Result, error) {
	spec, err := EngineByName(cfg.Engine)
	if err != nil {
		return Result{}, err
	}
	return RunShardedSpec(spec, cfg, shards)
}

// RunShardedSpec is RunSharded with an explicit engine spec (tests sweep
// deliberately broken engines through it to prove the auditor still bites
// behind the router).
func RunShardedSpec(spec EngineSpec, cfg Config, shards int) (Result, error) {
	if shards <= 1 {
		return RunSpec(spec, cfg)
	}
	cfg.fill()
	res := Result{Engine: spec.Name, Structure: cfg.Structure, Kind: cfg.Kind,
		Policy: cfg.Policy, Shards: shards}

	// Each shard gets a full cfg.PoolSize pool: the sweep's default is
	// already the minimum an engine needs to format itself, so splitting it
	// N ways is not an option here (unlike the throughput harness, which
	// sizes pools far above the floor and divides them).
	pools := make([]*nvm.Pool, shards)
	shs := make([]*shard.Shard, shards)
	stores := make([]pds.Store, shards)
	for i := range pools {
		// Per-shard seeds decorrelate the eviction adversaries across
		// domains — a crash must hold against each shard's own cache state.
		pool := nvm.New(cfg.PoolSize, nvm.WithSeed(cfg.Seed+int64(i)*7919), nvm.WithEviction(cfg.Policy))
		if cfg.GroupCommit {
			pool.GroupCommit(nvm.DefaultGroupCommitWaiters, nvm.DefaultGroupCommitDelayNS)
		}
		alloc, err := pmem.Create(pool)
		if err != nil {
			return res, fmt.Errorf("crashsweep: shard %d: create allocator: %w", i, err)
		}
		eng, err := spec.Create(pool, alloc)
		if err != nil {
			return res, fmt.Errorf("crashsweep: shard %d: create %s: %w", i, spec.Name, err)
		}
		st, err := OpenStructure(cfg.Structure, eng, cfg.RootSlot)
		if err != nil {
			return res, fmt.Errorf("crashsweep: shard %d: open %s: %w", i, cfg.Structure, err)
		}
		pools[i] = pool
		shs[i] = &shard.Shard{Pool: pool, Alloc: alloc, Engine: eng}
		stores[i] = st
	}
	set := shard.NewSet(shs)
	routed, err := shard.NewRoutedStore(set, stores)
	if err != nil {
		return res, err
	}

	seedOps, liveOps := cfg.ops()
	for _, o := range seedOps {
		if err := o.run(routed); err != nil {
			return res, fmt.Errorf("crashsweep: seed op %v: %w", o, err)
		}
	}

	// Per-shard base images: every sweep iteration restores all N domains.
	bases := make([][]byte, shards)
	for i, p := range pools {
		bases[i] = p.CoherentSnapshot()
	}

	// The admissible models are global: the router is deterministic, so ops
	// before the interrupted one landed (and stayed) on survivor shards or
	// the victim's durable state, and ops after it never ran anywhere.
	models := make([]map[string]string, len(liveOps)+1)
	models[0] = map[string]string{}
	for _, o := range seedOps {
		o.apply(models[0])
	}
	for j, o := range liveOps {
		next := make(map[string]string, len(models[j])+1)
		for k, v := range models[j] {
			next[k] = v
		}
		o.apply(next)
		models[j+1] = next
	}
	universe := map[string]struct{}{}
	for _, m := range models {
		for k := range m {
			universe[k] = struct{}{}
		}
	}

	// reopen restores every shard's base image and reattaches its stack.
	reopen := func() error {
		for i, p := range pools {
			if err := p.Restore(bases[i]); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			a, err := pmem.Attach(p)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			e, err := spec.Attach(p, a)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			st, err := OpenStructure(cfg.Structure, e, cfg.RootSlot)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if _, err := e.Recover(); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			set.Replace(i, &shard.Shard{Pool: p, Alloc: a, Engine: e})
			routed.ReplaceStore(i, st)
		}
		return nil
	}

	// Reference run: count each shard's persist points under the routed
	// workload; the victim is the shard the window exercises hardest.
	if err := reopen(); err != nil {
		return res, fmt.Errorf("crashsweep: reference reopen: %w", err)
	}
	for _, p := range pools {
		p.ResetPersistPoints()
	}
	for _, o := range liveOps {
		if err := o.run(routed); err != nil {
			return res, fmt.Errorf("crashsweep: reference op %v: %w", o, err)
		}
	}
	victim := 0
	for i, p := range pools {
		if n := p.PersistPoints(cfg.Kind); n > res.PersistPoints {
			res.PersistPoints, victim = n, i
		}
	}
	res.Victim = victim
	if res.PersistPoints == 0 {
		return res, fmt.Errorf("crashsweep: no shard saw a %s persist point in the live window", cfg.Kind)
	}
	vp := pools[victim]

	for point := int64(1); point <= res.PersistPoints; point++ {
		if err := reopen(); err != nil {
			return res, fmt.Errorf("crashsweep: point %d: reopen: %w", point, err)
		}
		vp.ScheduleCrashAt(cfg.Kind, point)
		fired, opIdx := false, -1
		for j, o := range liveOps {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						e, ok := r.(error)
						if !ok || !errors.Is(e, nvm.ErrCrash) {
							panic(r)
						}
						fired, opIdx = true, j
					}
				}()
				return o.run(routed)
			}()
			if fired {
				break
			}
			if err != nil {
				return res, fmt.Errorf("crashsweep: point %d: op %v: %w", point, o, err)
			}
		}
		vp.ScheduleCrashAt(cfg.Kind, 0)
		if !fired {
			res.Mismatches = append(res.Mismatches, Mismatch{
				Point: point, Op: -1,
				Detail: "scheduled crash never fired: workload or routing nondeterminism",
			})
			continue
		}
		res.Crashes++

		// Crash isolation, part one: no survivor pool may have latched.
		for i, p := range pools {
			if i != victim && p.Crashed() {
				res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
					Detail: fmt.Sprintf("survivor shard %d latched during shard %d's crash", i, victim)})
			}
		}

		if spec.Style == StyleMeter {
			// Meters promise nothing about recovery; audit the victim's
			// crash simulator exactly as the unsharded cell does.
			coh := vp.CoherentSnapshot()
			vp.SetEviction(nvm.EvictAll)
			vp.Crash()
			vp.SetEviction(cfg.Policy)
			if !bytes.Equal(coh, vp.Snapshot()) {
				res.Mismatches = append(res.Mismatches, Mismatch{
					Point: point, Op: opIdx,
					Detail: "full eviction did not reproduce coherent state",
				})
			}
			continue
		}

		// Power loss on the victim ONLY. The survivors are deliberately left
		// untouched — no reattach, no recovery — exactly as the supervisor
		// keeps them serving; the audit below reads them live.
		vp.Crash()
		a, err := pmem.Attach(vp)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("allocator attach failed: %v", err)})
			continue
		}
		e2, err := spec.Attach(vp, a)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("engine attach failed: %v", err)})
			continue
		}
		st2, err := OpenStructure(cfg.Structure, e2, cfg.RootSlot)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("structure open failed: %v", err)})
			continue
		}
		rep, err := Recover(e2)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("recovery failed: %v", err)})
			continue
		}
		res.Recovered += rep.Recovered
		res.Reexecuted += rep.Reexecuted
		res.RolledBack += rep.RolledBack
		res.RolledForward += rep.RolledForward
		res.Quarantined += rep.Quarantined
		if rep.Quarantined > 0 {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: fmt.Sprintf("recovery quarantined %d slot(s) after a pure power failure: %v",
					rep.Quarantined, errors.Join(rep.Errors...))})
			continue
		}
		set.Replace(victim, &shard.Shard{Pool: vp, Alloc: a, Engine: e2})
		routed.ReplaceStore(victim, st2)

		// Crash isolation, part two (folded into the global audit): Observe
		// reads survivors live, so a survivor that lost a committed key or
		// tore a node fails against both admissible models.
		obs, err := Observe(routed, universe)
		if err != nil {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx,
				Detail: err.Error()})
			continue
		}
		if detail := AuditRecovered(routed, obs, models[opIdx], models[opIdx+1]); detail != "" {
			res.Mismatches = append(res.Mismatches, Mismatch{Point: point, Op: opIdx, Detail: detail})
		}
	}
	return res, nil
}
