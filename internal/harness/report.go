package harness

import (
	"time"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
)

// BaselineFig6Insert is the pre-optimization single-thread insert latency of
// the clobber engine (ns/op, BenchmarkFig6Insert, -benchtime 300x, captured
// at commit 4befc7a before the hot-path overhaul). Future reports carry it
// along so the trajectory is visible from any single BENCH_PR2.json.
var BaselineFig6Insert = map[string]float64{
	"bptree":   76362,
	"hashmap":  25953,
	"skiplist": 34779,
	"rbtree":   37738,
}

// InsertResult is one engine×structure×threads insert measurement.
type InsertResult struct {
	Engine    string  `json:"engine"`
	Structure string  `json:"structure"`
	Threads   int     `json:"threads"`
	NSPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// ScalingResult is one point of the multi-thread YCSB-Load sweep, with its
// speedup relative to the same engine's single-thread throughput.
type ScalingResult struct {
	Engine    string  `json:"engine"`
	Threads   int     `json:"threads"`
	NSPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	SpeedupX  float64 `json:"speedup_vs_1t"`
}

// PhaseLatency is one engine×phase latency histogram summary, collected by
// the obs layer while the report's sweeps run. Phases mirror the probe's
// histograms: begin (begin-marker/v_log persist), exec (txfunc body),
// commit (flush+fence+frees), abort.
type PhaseLatency struct {
	Engine string `json:"engine"`
	Phase  string `json:"phase"`
	obs.HistogramSummary
}

// GroupCommitPoint is one clobber YCSB-Load measurement in the group-commit
// amortization sweep: the same thread count measured with the coordinator
// off and on, carrying the fence traffic alongside throughput so the
// fences-per-transaction reduction the coordinator claims is checkable from
// the report alone.
type GroupCommitPoint struct {
	Engine        string  `json:"engine"`
	Threads       int     `json:"threads"`
	GroupCommit   bool    `json:"group_commit"`
	NSPerOp       float64 `json:"ns_per_op"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	FencesPerOp   float64 `json:"fences_per_op"`
	Epochs        int64   `json:"epochs"`
	FencesSaved   int64   `json:"fences_saved"`
	MeanOccupancy float64 `json:"mean_epoch_occupancy"`
}

// BenchReport is the machine-readable benchmark record benchfigs -json
// emits (BENCH_PR2.json): the frozen pre-optimization baseline plus current
// single-thread Fig. 6 inserts, the multi-thread YCSB-Load scaling sweep,
// and per-phase transaction latency percentiles from the obs histograms.
// GroupCommitScaling (BENCH_PR5.json, -group-commit) adds the epoch
// group-commit on/off comparison.
type BenchReport struct {
	GeneratedAt        string             `json:"generated_at"`
	Scale              string             `json:"scale"`
	Entries            int                `json:"entries"`
	Ops                int                `json:"ops"`
	Threads            []int              `json:"threads"`
	BaselineNSPerOp    map[string]float64 `json:"baseline_fig6_clobber_ns_per_op"`
	BaselineCommit     string             `json:"baseline_commit"`
	Fig6Insert         []InsertResult     `json:"fig6_insert_1t"`
	YCSBLoadScaling    []ScalingResult    `json:"ycsb_load_scaling"`
	PhaseLatencies     []PhaseLatency     `json:"txn_phase_latency"`
	GroupCommitScaling []GroupCommitPoint `json:"group_commit_scaling,omitempty"`
	ShardSweep         []ShardSweepPoint  `json:"shard_sweep,omitempty"`
	LineLogSweep       []LineLogPoint     `json:"linelog_sweep,omitempty"`
	LockfreeSweep      []LockFreePoint    `json:"lockfree_sweep,omitempty"`
	SLOSweep           []SLOPoint         `json:"slo_sweep,omitempty"`
}

// reportEngines is the engine set the JSON report sweeps — the four
// libraries Figures 6 and 7 compare.
var reportEngines = []EngineKind{EngineClobber, EnginePMDK, EngineMnemosyne, EngineAtlas}

// measureInsert provisions a fresh setup, populates it, and times ops
// inserts across threads, returning ns/op.
func measureInsert(ek EngineKind, st StructureKind, sc Scale, threads int) (float64, error) {
	r, err := runInserts(ek, st, sc, threads)
	if err != nil {
		return 0, err
	}
	return float64(r.elapsed.Nanoseconds()) / float64(sc.Ops), nil
}

// RunBenchReport measures the report's two sweeps at the given scale. The
// single-thread insert sweep covers every structure; the scaling sweep uses
// the hashmap (the structure with the least inherent contention, so thread
// scaling reflects the persistence path rather than structural conflicts).
func RunBenchReport(sc Scale, scaleName string) (*BenchReport, error) {
	// Collect per-phase latency histograms across the whole run. The
	// previous enable state is restored so embedding callers (tests) see
	// no global side effect.
	prevOn := obs.Enable(true)
	defer obs.Enable(prevOn)
	obs.Default.Reset()

	rep := &BenchReport{
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		Scale:           scaleName,
		Entries:         sc.Entries,
		Ops:             sc.Ops,
		Threads:         sc.Threads,
		BaselineNSPerOp: BaselineFig6Insert,
		BaselineCommit:  "4befc7a",
	}
	// The standard figures always measure the ungrouped baseline — the
	// Fig. 6 rows are what benchguard holds against the frozen reference.
	// sc.GroupCommit only adds the dedicated off/on comparison sweep.
	groupCommit := sc.GroupCommit
	sc.GroupCommit = false
	for _, st := range AllStructures {
		for _, ek := range reportEngines {
			ns, err := measureInsert(ek, st, sc, 1)
			if err != nil {
				return nil, err
			}
			rep.Fig6Insert = append(rep.Fig6Insert, InsertResult{
				Engine: string(ek), Structure: string(st), Threads: 1,
				NSPerOp: ns, OpsPerSec: 1e9 / ns,
			})
		}
	}
	for _, ek := range reportEngines {
		var oneThread float64
		for _, threads := range sc.Threads {
			ns, err := measureInsert(ek, StructHashMap, sc, threads)
			if err != nil {
				return nil, err
			}
			if threads == 1 {
				oneThread = ns
			}
			speedup := 0.0
			if oneThread > 0 {
				speedup = oneThread / ns
			}
			rep.YCSBLoadScaling = append(rep.YCSBLoadScaling, ScalingResult{
				Engine: string(ek), Threads: threads,
				NSPerOp: ns, OpsPerSec: 1e9 / ns, SpeedupX: speedup,
			})
		}
	}
	rep.PhaseLatencies = collectPhaseLatencies()
	if groupCommit {
		pts, err := RunGroupCommitSweep(sc)
		if err != nil {
			return nil, err
		}
		rep.GroupCommitScaling = pts
	}
	return rep, nil
}

// measureInsertFences is measureInsert plus fence accounting: it returns
// the ns/op of the timed insert region together with the pool fences issued
// per operation and the group-commit coordinator's stats (zero when off).
// The coordinator is switched on only after populate, so both the fence
// delta and the epoch stats cover exactly the measured region.
func measureInsertFences(ek EngineKind, st StructureKind, sc Scale, threads int, groupCommit bool) (nsPerOp, fencesPerOp float64, gcs nvm.GroupCommitStats, err error) {
	sc.GroupCommit = false
	setup, err := NewSetup(ek, sc)
	if err != nil {
		return 0, 0, gcs, err
	}
	store, err := OpenStructure(st, setup.Engine)
	if err != nil {
		return 0, 0, gcs, err
	}
	if err := populate(store, st, sc.Entries, 1); err != nil {
		return 0, 0, gcs, err
	}
	// The sweep measures in precise mode, where every fence is a synchronous
	// drain stalling its thread — the cost structure group commit amortizes.
	// Deferred-media mode already overlaps concurrent fence latency across
	// threads by construction (that is its purpose), so measuring the
	// coordinator there would pit it against a baseline that has pre-claimed
	// the same amortization.
	setup.Pool.SetFastPath(false)
	if groupCommit {
		w := threads
		if w < nvm.DefaultGroupCommitWaiters {
			w = nvm.DefaultGroupCommitWaiters
		}
		setup.Pool.GroupCommit(w, nvm.DefaultGroupCommitDelayNS)
	}
	f0 := setup.Pool.Stats().Fences
	elapsed, err := measureInsertThroughput(store, st, sc.Entries, sc.Ops, threads)
	if err != nil {
		return 0, 0, gcs, err
	}
	fences := setup.Pool.Stats().Fences - f0
	return float64(elapsed.Nanoseconds()) / float64(sc.Ops),
		float64(fences) / float64(sc.Ops),
		setup.Pool.GroupCommitStats(), nil
}

// RunGroupCommitSweep measures the clobber engine's YCSB-Load inserts over
// the scale's thread sweep with the group-commit coordinator off and on,
// pairing throughput with fences-per-op so the amortization is directly
// visible: with the coordinator on at k overlapping threads the groupable
// fences collapse to ~1/k, while the off rows reproduce the ungrouped
// baseline exactly.
// LineLogPoint is one row of the line-writer sweep (BENCH_PR8.json,
// -linelog): the clobber/hashmap insert workload with the data log in
// legacy vs write-combined line mode, measured in precise mode so flush
// and fence counts are exact per-event tallies.
type LineLogPoint struct {
	Engine          string  `json:"engine"`
	Threads         int     `json:"threads"`
	LineLog         bool    `json:"line_log"`
	NSPerOp         float64 `json:"ns_per_op"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	FencesPerOp     float64 `json:"fences_per_op"`
	FlushesPerOp    float64 `json:"flushes_per_op"`
	LineStoresPerOp float64 `json:"line_stores_per_op"`
}

// measureInsertPersistEvents is measureInsertFences generalized to the full
// persistence-event profile: per-op fences, per-line flush issues, and
// whole-line stores (the write-combined emission signature), with the data
// log in the requested writer mode.
func measureInsertPersistEvents(ek EngineKind, st StructureKind, sc Scale, threads int, lineLog bool) (nsPerOp, fencesPerOp, flushesPerOp, lineStoresPerOp float64, err error) {
	sc.GroupCommit = false
	sc.LineLog = lineLog
	setup, err := NewSetup(ek, sc)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	store, err := OpenStructure(st, setup.Engine)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := populate(store, st, sc.Entries, 1); err != nil {
		return 0, 0, 0, 0, err
	}
	// Precise mode: every flush is issued per line and every fence is a
	// synchronous drain, so the counters are exact event tallies rather
	// than the fast path's batched equivalents.
	setup.Pool.SetFastPath(false)
	s0 := setup.Pool.Stats()
	elapsed, err := measureInsertThroughput(store, st, sc.Entries, sc.Ops, threads)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	d := setup.Pool.Stats().Sub(s0)
	ops := float64(sc.Ops)
	return float64(elapsed.Nanoseconds()) / ops,
		float64(d.Fences) / ops,
		float64(d.Flushes) / ops,
		float64(d.LineStores) / ops, nil
}

// RunLineLogSweep measures the clobber/hashmap insert workload with the
// line writer off and on at every thread count, recording the flush and
// fence deltas the write-combined format exists to shrink.
func RunLineLogSweep(sc Scale) ([]LineLogPoint, error) {
	var out []LineLogPoint
	for _, threads := range sc.Threads {
		for _, on := range []bool{false, true} {
			ns, fpo, flpo, lspo, err := measureInsertPersistEvents(EngineClobber, StructHashMap, sc, threads, on)
			if err != nil {
				return nil, err
			}
			out = append(out, LineLogPoint{
				Engine: string(EngineClobber), Threads: threads, LineLog: on,
				NSPerOp: ns, OpsPerSec: 1e9 / ns, FencesPerOp: fpo,
				FlushesPerOp: flpo, LineStoresPerOp: lspo,
			})
		}
	}
	return out, nil
}

// LockFreePoint is one row of the lock-free hashmap thread sweep
// (BENCH_PR9.json, -lockfree): the stripe-locked hashmap and the
// announcement-record lock-free hashmap driven by the same clobber-engine
// insert workload at the same thread count. The sweep runs past the standard
// 8-thread axis (1..32) because its whole point is the contention ceiling:
// the locked structure's throughput flattens once threads outnumber stripes,
// while the lock-free rows must stay monotonically non-decreasing through 16
// threads (the benchguard lockfree gate).
type LockFreePoint struct {
	Engine    string  `json:"engine"`
	Structure string  `json:"structure"`
	Threads   int     `json:"threads"`
	NSPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	SpeedupX  float64 `json:"speedup_vs_1t"`
}

// RunLockfreeSweep measures the clobber insert workload on the stripe-locked
// and lock-free hashmaps across its own thread list, independent of the
// scale's standard sweep so the >8-thread axis does not inflate every other
// figure. The scale's slot sizing is widened to the sweep's largest point.
func RunLockfreeSweep(sc Scale, threads []int) ([]LockFreePoint, error) {
	sc.Threads = threads // maxSlots() must cover the widest point
	// Every worker slot carries ~4.5MB of formatted log space; a 32-thread
	// point needs 34 slots, which outgrows the small scale's default pool.
	// 8MB per slot leaves the usual headroom for data and allocator metadata.
	if need := uint64(sc.maxSlots()) * (8 << 20); sc.PoolBytes < need {
		sc.PoolBytes = need
	}
	var out []LockFreePoint
	for _, st := range []StructureKind{StructHashMap, StructLFHashMap} {
		var oneThread float64
		for _, t := range threads {
			ns, err := measureInsert(EngineClobber, st, sc, t)
			if err != nil {
				return nil, err
			}
			if t == 1 {
				oneThread = ns
			}
			speedup := 0.0
			if oneThread > 0 {
				speedup = oneThread / ns
			}
			out = append(out, LockFreePoint{
				Engine: string(EngineClobber), Structure: string(st), Threads: t,
				NSPerOp: ns, OpsPerSec: 1e9 / ns, SpeedupX: speedup,
			})
		}
	}
	return out, nil
}

func RunGroupCommitSweep(sc Scale) ([]GroupCommitPoint, error) {
	var out []GroupCommitPoint
	for _, threads := range sc.Threads {
		for _, on := range []bool{false, true} {
			ns, fpo, gcs, err := measureInsertFences(EngineClobber, StructHashMap, sc, threads, on)
			if err != nil {
				return nil, err
			}
			out = append(out, GroupCommitPoint{
				Engine: string(EngineClobber), Threads: threads, GroupCommit: on,
				NSPerOp: ns, OpsPerSec: 1e9 / ns, FencesPerOp: fpo,
				Epochs: gcs.Epochs, FencesSaved: gcs.FencesSaved,
				MeanOccupancy: gcs.MeanOccupancy(),
			})
		}
	}
	return out, nil
}

// collectPhaseLatencies condenses the obs histograms the sweeps populated
// into stable-ordered engine×phase summaries. Empty histograms (a phase an
// engine never hit, e.g. abort) are omitted.
func collectPhaseLatencies() []PhaseLatency {
	snap := obs.Default.Snapshot()
	var out []PhaseLatency
	for _, ek := range reportEngines {
		for _, phase := range []string{"begin", "exec", "commit", "abort"} {
			s, ok := snap.Histograms["txn."+string(ek)+"."+phase+"_ns"]
			if !ok || s.Count == 0 {
				continue
			}
			out = append(out, PhaseLatency{Engine: string(ek), Phase: phase, HistogramSummary: s})
		}
	}
	return out
}
