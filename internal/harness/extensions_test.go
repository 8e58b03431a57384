package harness

import "testing"

func TestExtYCSBMixesShape(t *testing.T) {
	tab, err := ExtYCSBMixes(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*3*5 { // 2 structures x 3 engines x A/B/C + RMW mixes
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Only the redo engine pays read interposition.
	rmwRows := 0
	for _, row := range tab.Rows {
		rc := cellF(t, tab, row, "read_checks_per_op")
		switch cell(t, tab, row, "engine") {
		case "mnemosyne":
			switch cell(t, tab, row, "workload") {
			case "c":
				if rc == 0 {
					t.Error("mnemosyne read-only workload paid no read checks")
				}
			case "a-rmw", "b-rmw":
				rmwRows++
				if rc == 0 {
					t.Error("mnemosyne RMW workload paid no read checks")
				}
			}
		default:
			if rc != 0 {
				t.Errorf("%s paid read checks (%v)", cell(t, tab, row, "engine"), rc)
			}
		}
	}
	if rmwRows != 2*2 {
		t.Errorf("rmw mnemosyne rows = %d, want 4", rmwRows)
	}
	// On the read-only workload clobber beats mnemosyne because it has no read
	// path. Asserted on that cause, which repeats exactly per run — every
	// mnemosyne read checks the write set, no clobber read does; a 4000-read
	// window is a few milliseconds of wall clock, and whose came out shorter
	// on a loaded host is benchfigs' to report.
	for _, st := range []string{"hashmap", "rbtree"} {
		cl := find(t, tab, map[string]string{"engine": "clobber", "structure": st, "workload": "c"})
		mn := find(t, tab, map[string]string{"engine": "mnemosyne", "structure": st, "workload": "c"})
		if len(cl) != 1 || len(mn) != 1 {
			t.Fatalf("%s workload C: %d clobber rows, %d mnemosyne rows", st, len(cl), len(mn))
		}
		c, m := cellF(t, tab, cl[0], "read_checks_per_op"), cellF(t, tab, mn[0], "read_checks_per_op")
		if c != 0 || m < 1 {
			t.Errorf("%s workload C: read checks per op clobber %v, mnemosyne %v; want 0 and at least one per read", st, c, m)
		}
		if cellF(t, tab, cl[0], "ops_per_sec") <= 0 || cellF(t, tab, mn[0], "ops_per_sec") <= 0 {
			t.Errorf("%s workload C: zero throughput", st)
		}
	}
}

func TestExtFenceAblationShape(t *testing.T) {
	tab, err := ExtFenceAblation(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Clobber wins at every point of the sweep: from log volume (free
	// fences) to fence count (expensive fences). Asserted on the simulated
	// persistence wait per transaction, which repeats exactly per run: clobber
	// waits less at every fence cost, and its advantage grows with the cost,
	// from the flush-count ratio toward the fence-count ratio. The speedup
	// column is wall clock and benchfigs' to report.
	first := tab.Rows[0]
	prevRatio := 0.0
	for _, row := range tab.Rows {
		fence := cell(t, tab, row, "fence_ns")
		cf := cellF(t, tab, row, "clobber_fences_per_tx")
		pf := cellF(t, tab, row, "pmdk_fences_per_tx")
		if cf >= pf {
			t.Errorf("fence=%s ns: clobber fences/tx (%v) not < pmdk (%v)", fence, cf, pf)
		}
		if cf != cellF(t, tab, first, "clobber_fences_per_tx") || pf != cellF(t, tab, first, "pmdk_fences_per_tx") {
			t.Errorf("fence=%s ns: fence counts moved with the fence cost (%v, %v)", fence, cf, pf)
		}
		cw := cellF(t, tab, row, "clobber_wait_ns_per_tx")
		pw := cellF(t, tab, row, "pmdk_wait_ns_per_tx")
		if cw <= 0 || cw >= pw {
			t.Errorf("fence=%s ns: clobber waits %v ns/tx, pmdk %v", fence, cw, pw)
		}
		if ratio := pw / cw; ratio <= prevRatio || ratio >= pf/cf {
			t.Errorf("fence=%s ns: wait ratio %.3f not between the previous point's %.3f and the fence-count ratio %.3f",
				fence, ratio, prevRatio, pf/cf)
		} else {
			prevRatio = ratio
		}
	}
}
