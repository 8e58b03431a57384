package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 100}, {90, 90}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%g of 10..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// A hand-built op: op[0,100) ⊃ run[10,90) ⊃ exec[20,70) ⊃ alloc[30,50);
// run saw 10 fences, exec 7 of them, alloc 6 of those. op records no counts.
func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{kind: spanOp, parent: -1, start: 0, end: 100},
		{kind: spanRun, counted: true, parent: 0, start: 10, end: 90, fences: 10, flushes: 24},
		{kind: spanExec, counted: true, parent: 1, start: 20, end: 70, fences: 7, flushes: 10},
		{kind: spanAlloc, counted: true, parent: 2, start: 30, end: 50, fences: 6, flushes: 8},
		// A second op whose spans record no counts, as three in four do.
		{kind: spanOp, parent: -1, start: 100, end: 130},
		{kind: spanRunRO, parent: 4, start: 105, end: 125},
	}
	sums := selfTimes(spans, 0, len(spans))
	want := map[spanKind]layerSum{
		spanOp:    {n: 2, durNS: 130, selfNS: 30},
		spanRun:   {n: 1, counted: 1, durNS: 80, selfNS: 30, fences: 10, selfFences: 3, flushes: 24, selfFlushes: 14},
		spanExec:  {n: 1, counted: 1, durNS: 50, selfNS: 30, fences: 7, selfFences: 1, flushes: 10, selfFlushes: 2},
		spanAlloc: {n: 1, counted: 1, durNS: 20, selfNS: 20, fences: 6, selfFences: 6, flushes: 8, selfFlushes: 8},
		spanRunRO: {n: 1, durNS: 20, selfNS: 20},
	}
	var selfNS int64
	for k, got := range sums {
		if got != want[spanKind(k)] {
			t.Errorf("%s: got %+v, want %+v", spanNames[k], got, want[spanKind(k)])
		}
		selfNS += got.selfNS
	}
	if selfNS != 130 {
		t.Errorf("self times sum to %d, want the two root spans' 130", selfNS)
	}
	// A range that starts at the second op must not reach into the first.
	if got := selfTimes(spans, 4, 6)[spanOp]; got != (layerSum{n: 1, durNS: 30, selfNS: 10}) {
		t.Errorf("second op alone: %+v", got)
	}
}

func quickConfig(t *testing.T) config {
	return config{seed: 7, seconds: 0.2, scale: 100, outDir: t.TempDir()}
}

// The same seeded ops must leave byte-identical pool and engine counters
// whether or not the decorators are installed and recording.
func TestDecoratorsAreTransparent(t *testing.T) {
	sp, err := findSpec("load_bptree")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.scaled(100)
	sp.workers = 1
	cfg := quickConfig(t)
	const n = 400
	sp.roundOps = 2 * n

	plain, err := runPass(&sp, cfg, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(nil, 16*n)
	traced, err := runPass(&sp, cfg, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) == 0 || tr.eng.stores == 0 {
		t.Fatalf("decorators recorded nothing: %d spans, %d stores", len(tr.spans), tr.eng.stores)
	}
	pv, tv := plain.env.view(), traced.env.view()
	if p, q := pv.pool.Stats(), tv.pool.Stats(); p != q {
		t.Errorf("pool stats differ:\n plain  %+v\n traced %+v", p, q)
	}
	if p, q := pv.eng.Stats().Snapshot(), tv.eng.Stats().Snapshot(); p != q {
		t.Errorf("engine stats differ:\n plain  %+v\n traced %+v", p, q)
	}
	if plain.b.workers[0].failed+traced.b.workers[0].failed != 0 {
		t.Error("ops failed")
	}
}

func TestAuditConvictsDroppedKey(t *testing.T) {
	sp, err := findSpec("ycsb_a_hashmap")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.scaled(100)
	b, err := setUp(&sp, quickConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	audit := func() (failed int64) {
		for _, w := range b.workers {
			before := w.failed
			if err := w.audit(); err != nil {
				t.Fatal(err)
			}
			failed += w.failed - before
		}
		return failed
	}
	if n := audit(); n != 0 {
		t.Fatalf("audit of an intact store counted %d failures", n)
	}

	w := b.workers[1]
	const victim = 5 // odd, so worker 1 owns it
	key := w.kg.key(make([]byte, sp.keySize), victim)
	st := b.env.(*libEnv).tgts[0].st
	if existed, err := st.Delete(0, key); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	if n := audit(); n != 1 {
		t.Errorf("audit after dropping one acknowledged key counted %d failures, want 1", n)
	}

	// A stale version is convicted too: put version 1 back under a key
	// whose acknowledged version is 2.
	w.vers[victim] = 2
	if err := st.Insert(0, key, w.kg.value(make([]byte, sp.valSize), victim, 1)); err != nil {
		t.Fatal(err)
	}
	if n := audit(); n != 1 {
		t.Errorf("audit of a stale version counted %d failures, want 1", n)
	}
}

// Every workload at 1/100 scale, untraced and traced, against the real
// server binary; every metric BENCHMARK.json names must be reported.
func TestQuickSmoke(t *testing.T) {
	var declared struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &declared); err != nil {
		t.Fatal(err)
	}
	if len(declared.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(declared.Workloads), len(specs))
	}

	cfg := quickConfig(t)
	cfg.serverBin = filepath.Join(t.TempDir(), "memcachedsim")
	if out, err := exec.Command("go", "build", "-o", cfg.serverBin, "clobbernvm/cmd/memcachedsim").CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	for _, wl := range declared.Workloads {
		sp, err := findSpec(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			run, want := runUntraced, declared.EndToEnd
			if traced {
				run, want = runTraced, declared.PerLayer
			}
			res, err := run(sp, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", sp.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", sp.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not reported", sp.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", sp.name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", sp.name, m.Name, got.Value)
				}
			}
		}
	}
}
