package harness

import (
	"math/rand"
	"time"

	"clobbernvm/internal/analysis"
	"clobbernvm/internal/ir"
	"clobbernvm/internal/memcache"
)

// Fig13 measures the effectiveness of the dependency-analysis propagation
// (§5.9, Figure 13): throughput and avoided log traffic of refined vs
// conservative clobber identification, on the data structures and the
// memcached mixes, plus the static pass counts over the transaction corpus.
func Fig13(sc Scale) (*Table, error) {
	t := &Table{
		Name: "fig13",
		Header: []string{"workload", "speedup_pct",
			"extra_entries_pct", "extra_bytes_pct"},
	}

	measureStruct := func(st StructureKind, ek EngineKind) (float64, float64, float64, error) {
		r, err := runInserts(ek, st, sc, 1)
		if err != nil {
			return 0, 0, 0, err
		}
		entries, bytes := statsPerTx(r.eng, sc.Ops)
		return opsPerSec(sc.Ops, r.elapsed), entries, bytes, nil
	}

	for _, st := range AllStructures {
		refTput, refE, refB, err := measureStruct(st, EngineClobber)
		if err != nil {
			return nil, err
		}
		conTput, conE, conB, err := measureStruct(st, EngineClobberConservative)
		if err != nil {
			return nil, err
		}
		t.add(string(st),
			(refTput-conTput)/conTput*100,
			pctMore(conE, refE), pctMore(conB, refB))
	}

	for _, mix := range memcache.AllMixes {
		ref, refS, err := measureMemcachedOpt(EngineClobber, mix, sc)
		if err != nil {
			return nil, err
		}
		con, conS, err := measureMemcachedOpt(EngineClobberConservative, mix, sc)
		if err != nil {
			return nil, err
		}
		t.add("memcached-"+mix.Name,
			(ref-con)/con*100,
			pctMore(conS[0], refS[0]), pctMore(conS[1], refS[1]))
	}

	// Yada with the two identification modes.
	refT, _, _, err := runYada(EngineClobber, 20, sc, 1)
	if err != nil {
		return nil, err
	}
	conT, _, _, err := runYada(EngineClobberConservative, 20, sc, 1)
	if err != nil {
		return nil, err
	}
	t.add("yada-20deg", (conT.Seconds()-refT.Seconds())/conT.Seconds()*100, 0.0, 0.0)

	return t, nil
}

func pctMore(conservative, refined float64) float64 {
	if refined == 0 {
		return 0
	}
	return (conservative - refined) / refined * 100
}

func measureMemcachedOpt(ek EngineKind, mix memcache.Mix, sc Scale) (float64, [2]float64, error) {
	setup, err := NewSetup(ek, sc)
	if err != nil {
		return 0, [2]float64{}, err
	}
	cache, err := memcache.New(setup.Engine, appRootSlot,
		memcache.Options{Capacity: uint64(sc.MemcachedOps)})
	if err != nil {
		return 0, [2]float64{}, err
	}
	s0 := setup.Engine.Stats().Snapshot()
	res, err := memcache.Drive(cache, memcache.DriverConfig{
		Mix: mix, Threads: 1, Ops: sc.MemcachedOps,
		KeySpace: sc.MemcachedOps / 2, KeySize: 16, ValSize: 64, Seed: 3,
	})
	if err != nil {
		return 0, [2]float64{}, err
	}
	ds := setup.Engine.Stats().Snapshot().Sub(s0)
	committed := int(ds.Committed)
	e, b := statsPerTx(ds, max(committed, 1))
	return opsPerSec(res.Ops, res.Elapsed), [2]float64{e, b}, nil
}

// Fig13Static reports the static pass counts over the transaction corpus —
// the conservative vs refined instrumentation-site table backing §5.9's
// "removes two clobber candidates out of five" skiplist observation.
func Fig13Static() *Table {
	t := &Table{
		Name: "fig13-static",
		Header: []string{"transaction", "conservative_sites", "refined_sites",
			"removed_unexposed", "removed_shadowed"},
	}
	for _, f := range analysis.Corpus() {
		res := analysis.Analyze(f)
		t.add(f.Name, len(res.ConservativeSites()), len(res.RefinedSites()),
			res.RemovedUnexposed, res.RemovedShadowed)
	}
	return t
}

// Fig14 measures compile latency (§5.10, Figure 14): the clobber
// identification passes' runtime over each corpus transaction, relative to
// the frontend-only baseline (IR construction + validation + dominator
// tree, our stand-in for plain Clang).
func Fig14(repeats int) *Table {
	if repeats <= 0 {
		repeats = 200
	}
	t := &Table{
		Name: "fig14",
		Header: []string{"unit", "frontend_us", "with_passes_us",
			"overhead_pct"},
	}
	builders := map[string]func() *ir.Func{
		"list_ins":         analysis.ListInsert,
		"bptree_insert":    analysis.BPTreeInsert,
		"hashmap_insert":   analysis.HashmapInsert,
		"skiplist_insert":  analysis.SkiplistInsert,
		"rbtree_insert":    analysis.RBTreeInsert,
		"memcached_set":    analysis.MemcachedSet,
		"vacation_reserve": analysis.VacationReserve,
		"yada_refine":      analysis.YadaRefine,
	}
	order := []string{"list_ins", "bptree_insert", "hashmap_insert", "skiplist_insert",
		"rbtree_insert", "memcached_set", "vacation_reserve", "yada_refine"}
	for _, name := range order {
		build := builders[name]
		frontend := timeIt(repeats, func() {
			f := build()
			if err := f.Validate(); err != nil {
				panic(err)
			}
			ir.BuildDomTree(f)
		})
		full := timeIt(repeats, func() {
			f := build()
			if err := f.Validate(); err != nil {
				panic(err)
			}
			analysis.Analyze(f)
		})
		t.add(name, frontend.Seconds()*1e6, full.Seconds()*1e6,
			(full.Seconds()-frontend.Seconds())/frontend.Seconds()*100)
	}
	// A larger synthetic unit models whole-project compiles (memcached's
	// 55% overhead comes from analyzing many files).
	big := func() *ir.Func { return syntheticUnit(400, 99) }
	frontend := timeIt(repeats/10+1, func() {
		f := big()
		ir.BuildDomTree(f)
	})
	full := timeIt(repeats/10+1, func() {
		analysis.Analyze(big())
	})
	t.add("synthetic-400instr", frontend.Seconds()*1e6, full.Seconds()*1e6,
		(full.Seconds()-frontend.Seconds())/frontend.Seconds()*100)
	return t
}

func timeIt(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// syntheticUnit builds a random well-formed straight-line function of ~n
// memory operations, for compile-latency scaling.
func syntheticUnit(n int, seed int64) *ir.Func {
	rng := rand.New(rand.NewSource(seed))
	f := ir.NewFunc("synthetic", "*a", "*b", "*c")
	b := f.Entry()
	ptrs := []*ir.Value{f.Param(0), f.Param(1), f.Param(2)}
	var vals []*ir.Value
	vals = append(vals, b.Const(0))
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			ptrs = append(ptrs, b.Alloc("o"))
		case 1:
			ptrs = append(ptrs, b.GEP(ptrs[rng.Intn(len(ptrs))], int64(rng.Intn(4)*8)))
		case 2, 3:
			vals = append(vals, b.Load(ptrs[rng.Intn(len(ptrs))], false))
		default:
			b.Store(ptrs[rng.Intn(len(ptrs))], vals[rng.Intn(len(vals))])
		}
	}
	b.Ret()
	return f
}
