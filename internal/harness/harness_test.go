package harness

import (
	"strconv"
	"strings"
	"testing"

	"clobbernvm/internal/nvm"
)

// tinyScale keeps harness tests fast while preserving the relative shapes.
var tinyScale = Scale{
	Entries:         800,
	Ops:             4000,
	Threads:         []int{1},
	MemcachedOps:    4000,
	VacationTasks:   200,
	VacationRecords: 60,
	YadaPoints:      25,
	PoolBytes:       1 << 27,
	Latency:         nvm.DefaultLatency,
	Runs:            1,
}

// cell fetches a row's column by header name.
func cell(t *testing.T, tab *Table, row []string, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return row[i]
		}
	}
	t.Fatalf("table %s has no column %q", tab.Name, col)
	return ""
}

func cellF(t *testing.T, tab *Table, row []string, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %s column %s: %v", tab.Name, col, err)
	}
	return v
}

// find returns rows matching all given column=value constraints.
func find(t *testing.T, tab *Table, want map[string]string) [][]string {
	t.Helper()
	var out [][]string
	for _, row := range tab.Rows {
		ok := true
		for col, val := range want {
			if cell(t, tab, row, col) != val {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

func TestFig6Shape(t *testing.T) {
	tab, err := Fig6(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4*4 { // 4 structures x 4 engines x 1 thread
		t.Fatalf("fig6 rows = %d", len(tab.Rows))
	}
	for _, st := range AllStructures {
		row := func(engine string) []string {
			rows := find(t, tab, map[string]string{"engine": engine, "structure": string(st)})
			if len(rows) != 1 {
				t.Fatalf("fig6 %s/%s: %d rows", engine, st, len(rows))
			}
			if cellF(t, tab, rows[0], "ops_per_sec") <= 0 {
				t.Fatalf("fig6 %s/%s: zero throughput", engine, st)
			}
			return rows[0]
		}
		// Headline shape: clobber beats PMDK undo and Atlas at one thread,
		// asserted on what decides it under the cost model and repeats exactly
		// per run — every insert persists fewer log bytes, issues fewer
		// flushes and waits on fewer fences. The throughput itself is
		// benchfigs' and bench/'s to measure.
		clobber := row("clobber")
		for _, rival := range []string{"pmdk", "atlas"} {
			for _, col := range []string{"log_bytes_per_tx", "flushes_per_tx", "fences_per_tx"} {
				c, r := cellF(t, tab, clobber, col), cellF(t, tab, row(rival), col)
				if c >= r {
					t.Errorf("fig6 %s: clobber %s (%v) not < %s (%v)", st, col, c, rival, r)
				}
			}
		}
	}
	if !strings.Contains(tab.CSV(), "engine,structure") {
		t.Fatal("CSV header missing")
	}
}

func TestFig7Shape(t *testing.T) {
	tab, err := Fig7(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range AllStructures {
		row := func(variant string) []string {
			rows := find(t, tab, map[string]string{"variant": variant, "structure": string(st)})
			if len(rows) != 1 {
				t.Fatalf("fig7 %s/%s: %d rows", variant, st, len(rows))
			}
			return rows[0]
		}
		nolog := row("nolog")
		vlog := row("clobber-vlog")
		full := row("clobber")
		pmdk := row("pmdk")

		if e := cellF(t, tab, nolog, "log_entries_per_tx"); e != 0 {
			t.Errorf("fig7 %s: nolog logs %v entries/tx", st, e)
		}
		// §5.3: the v_log entry count is always one per transaction.
		if e := cellF(t, tab, vlog, "log_entries_per_tx"); e != 1 {
			t.Errorf("fig7 %s: vlog entries/tx = %v, want 1", st, e)
		}
		fe := cellF(t, tab, full, "log_entries_per_tx")
		pe := cellF(t, tab, pmdk, "log_entries_per_tx")
		if fe >= pe {
			t.Errorf("fig7 %s: clobber entries/tx (%v) not < pmdk (%v)", st, fe, pe)
		}
		fb := cellF(t, tab, full, "log_bytes_per_tx")
		pb := cellF(t, tab, pmdk, "log_bytes_per_tx")
		if fb >= pb {
			t.Errorf("fig7 %s: clobber bytes/tx (%v) not < pmdk (%v)", st, fb, pb)
		}
		ff := cellF(t, tab, full, "fences_per_tx")
		pf := cellF(t, tab, pmdk, "fences_per_tx")
		if ff >= pf {
			t.Errorf("fig7 %s: clobber fences/tx (%v) not < pmdk (%v)", st, ff, pf)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tab, err := Fig8(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range AllStructures {
		cl := find(t, tab, map[string]string{"system": "clobber", "structure": string(st)})
		id := find(t, tab, map[string]string{"system": "ido", "structure": string(st)})
		if len(cl) != 1 || len(id) != 1 {
			t.Fatalf("fig8 %s: missing rows", st)
		}
		cb := cellF(t, tab, cl[0], "log_bytes_per_tx")
		ib := cellF(t, tab, id[0], "log_bytes_per_tx")
		// §5.4: iDO always persists at least as many bytes per transaction.
		if ib < cb {
			t.Errorf("fig8 %s: ido bytes/tx (%v) < clobber (%v)", st, ib, cb)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4*2 {
		t.Fatalf("fig9 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if ms := cellF(t, tab, row, "recovery_ms"); ms <= 0 {
			t.Errorf("fig9: non-positive recovery time %v", ms)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	sc := tinyScale
	tab, err := Fig10(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 4 mixes x 2 locks x 3 engines x 1 thread.
	if len(tab.Rows) != 4*2*3 {
		t.Fatalf("fig10 rows = %d", len(tab.Rows))
	}
	// Insert-intensive mix at one thread: clobber beats pmdk (with a 10%
	// noise margin for scheduler jitter).
	cl := find(t, tab, map[string]string{"engine": "clobber", "mix": "95i-5s", "lock": "spinlock"})
	pm := find(t, tab, map[string]string{"engine": "pmdk", "mix": "95i-5s", "lock": "spinlock"})
	if cellF(t, tab, cl[0], "ops_per_sec") < 0.9*cellF(t, tab, pm[0], "ops_per_sec") {
		t.Error("fig10: clobber clearly slower than pmdk on insert-intensive mix")
	}
}

func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// 2 trees x 3 q values x 4 engines.
	if len(tab.Rows) != 2*3*4 {
		t.Fatalf("fig11 rows = %d", len(tab.Rows))
	}
	for _, row := range find(t, tab, map[string]string{"engine": "nolog"}) {
		if cellF(t, tab, row, "elapsed_ms") <= 0 {
			t.Error("fig11: nolog elapsed <= 0")
		}
	}
	// Clobber's overhead over No-log stays close to or below PMDK's (§5.7
	// reports 68% vs 74% at q=6). Asserted on the per-task persistence costs
	// that overhead is made of, which repeat exactly per run: clobber logs
	// fewer bytes, flushes fewer lines and waits on fewer fences.
	for _, tree := range []string{"rbtree", "avltree"} {
		for _, q := range []string{"2", "4", "6"} {
			cl := find(t, tab, map[string]string{"engine": "clobber", "tree": tree, "queries_per_task": q})
			pm := find(t, tab, map[string]string{"engine": "pmdk", "tree": tree, "queries_per_task": q})
			for _, col := range []string{"log_bytes_per_task", "flushes_per_task", "fences_per_task"} {
				c, p := cellF(t, tab, cl[0], col), cellF(t, tab, pm[0], col)
				if c >= p {
					t.Errorf("fig11 %s q=%s: clobber %s (%v) not < pmdk (%v)", tree, q, col, c, p)
				}
			}
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tab, err := Fig12(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4*3 {
		t.Fatalf("fig12 rows = %d", len(tab.Rows))
	}
	// All engines must agree on the amount of refinement work (same seeded
	// mesh, deterministic algorithm).
	for _, angle := range []string{"15.000", "30.000"} {
		rows := find(t, tab, map[string]string{"angle_deg": angle})
		first := cell(t, tab, rows[0], "elements_processed")
		for _, r := range rows[1:] {
			if cell(t, tab, r, "elements_processed") != first {
				t.Errorf("fig12 angle %s: engines processed different element counts", angle)
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tab, err := Fig13(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		name := cell(t, tab, row, "workload")
		if strings.HasPrefix(name, "yada") {
			continue
		}
		if extra := cellF(t, tab, row, "extra_entries_pct"); extra < 0 {
			t.Errorf("fig13 %s: conservative logs FEWER entries (%.1f%%)", name, extra)
		}
	}
}

func TestFig13Static(t *testing.T) {
	tab := Fig13Static()
	rows := find(t, tab, map[string]string{"transaction": "skiplist_insert"})
	if len(rows) != 1 {
		t.Fatal("fig13-static missing skiplist")
	}
	if cell(t, tab, rows[0], "conservative_sites") != "5" ||
		cell(t, tab, rows[0], "refined_sites") != "3" {
		t.Errorf("fig13-static skiplist = %v, want 5 conservative / 3 refined (§5.9)", rows[0])
	}
}

func TestFig14Shape(t *testing.T) {
	tab := Fig14(100)
	if len(tab.Rows) != 9 {
		t.Fatalf("fig14 rows = %d", len(tab.Rows))
	}
	// Tiny corpus functions sit at timer-noise level; the synthetic unit is
	// the robust assertion: the passes must cost measurably more than the
	// frontend alone.
	rows := find(t, tab, map[string]string{"unit": "synthetic-400instr"})
	if len(rows) != 1 {
		t.Fatal("fig14 missing synthetic unit")
	}
	if over := cellF(t, tab, rows[0], "overhead_pct"); over <= 0 {
		t.Errorf("fig14 synthetic: pass overhead %.1f%% (must be positive)", over)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Name: "x", Header: []string{"a", "b"}}
	tab.add("one", 2)
	tab.add(3.14159, "z")
	got := tab.CSV()
	want := "a,b\none,2\n3.142,z\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestBuildEngineUnknown(t *testing.T) {
	if _, err := NewSetup(EngineKind("bogus"), tinyScale); err == nil {
		t.Fatal("unknown engine accepted")
	}
}
