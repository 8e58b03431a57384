package crashsweep

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
)

// pinnedCells fingerprints every atomic roster entry on three workloads: the
// persist points of the reference run per crash kind, its per-op log entries,
// the engine statistics and a hash of the durable image; then, after a crash
// halfway through the same window, the persist points of attach plus
// recovery, the recovery report, the recovered engine's statistics and the
// recovered image. Engines are built from shared pieces, and these values
// say that a change to how they are assembled left every store, flush and
// fence where it was.
var pinnedCells = map[string]string{
	"clobber/hashmap":                "points [33 36 12 81] ref [1 1 1] stats {3 0 3 120 3 107 0 0} image 481e81dfc9c743e2 | recovery points [13 14 5 32] report {Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {1 1 1 40 1 39 0 0} image d6e1ca10baf3c943",
	"clobber/list":                   "points [33 38 12 83] ref [1 1 1] stats {3 0 3 120 3 98 0 0} image cfd8d77993fc19a7 | recovery points [13 14 5 32] report {Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {1 1 1 40 1 36 0 0} image 3f5b18f2194b6b6b",
	"clobber/bptree-twolevel":        "points [56 114 22 192] ref [3 7 3] stats {3 0 13 2088 3 96 0 0} image 208883e7e45262f8 | recovery points [36 48 12 96] report {Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {1 1 7 440 1 36 0 0} image cf8da671f1f2b5ed",
	"pmdk/hashmap":                   "points [41 42 20 103] ref [6 4 1] stats {3 0 11 432 0 0 0 0} image f1d7358f67871111 | recovery points [2 2 2 6] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 4c64564929e5d0c1",
	"pmdk/list":                      "points [41 44 20 105] ref [6 4 1] stats {3 0 11 432 0 0 0 0} image bab23589d488b05c | recovery points [2 2 2 6] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 437e360cef5787dc",
	"pmdk/bptree-twolevel":           "points [67 132 33 232] ref [6 15 3] stats {3 0 24 2979 0 0 0 0} image 771a53c0236b82b7 | recovery points [9 15 3 27] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 2334d1459b0e423e",
	"mnemosyne/hashmap":              "points [28 32 12 72] ref [3 2 1] stats {3 0 6 280 0 0 22 0} image 0884040ddd52da5e | recovery points [5 5 5 15] report {Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {0 0 0 0 0 0 0 0} image 4f03d1451c51eb4e",
	"mnemosyne/list":                 "points [28 33 12 73] ref [3 2 1] stats {3 0 6 280 0 0 77 0} image 20515a077eae847e | recovery points [5 5 5 15] report {Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {0 0 0 0 0 0 0 0} image 2ebed5f42ef7f3ae",
	"mnemosyne/bptree-twolevel":      "points [34 108 12 154] ref [2 11 2] stats {3 0 15 2704 0 0 872 0} image e0fb24b4d64e3118 | recovery points [15 24 5 44] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:0 RolledForward:1 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image ca4ee839ee3088f4",
	"atlas/hashmap":                  "points [50 46 23 119] ref [6 4 1] stats {3 0 11 432 0 0 0 0} image 27d46c30ac94c005 | recovery points [2 2 2 6] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image c981ac850f75a037",
	"atlas/list":                     "points [50 48 23 121] ref [6 4 1] stats {3 0 11 432 0 0 0 0} image be98f1ac21b7c32e | recovery points [2 2 2 6] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image d31015be2f54b6a4",
	"atlas/bptree-twolevel":          "points [79 141 39 259] ref [6 18 3] stats {3 0 27 3099 0 0 0 0} image 89980946fd0b99cb | recovery points [11 17 3 31] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 9ab00c7bca152e69",
	"clobber-line/hashmap":           "points [33 33 12 78] ref [1 1 1] stats {3 0 3 48 3 107 0 0} image e68355d1857a2b0b | recovery points [13 13 5 31] report {Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {1 1 1 16 1 39 0 0} image c5a1a894a372fc2f",
	"clobber-line/list":              "points [33 35 12 80] ref [1 1 1] stats {3 0 3 48 3 98 0 0} image 9980e4233deaec15 | recovery points [13 13 5 31] report {Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {1 1 1 16 1 36 0 0} image 765a1de446471d68",
	"clobber-line/bptree-twolevel":   "points [86 111 22 219] ref [3 7 3] stats {3 0 13 1776 3 96 0 0} image 55f4f4344f97f73c | recovery points [40 45 12 97] report {Slots:2 Recovered:1 Reexecuted:1 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {1 1 7 272 1 36 0 0} image ee2b2cf7925a13d1",
	"pmdk-line/hashmap":              "points [43 37 20 100] ref [6 4 1] stats {3 0 11 176 0 0 0 0} image 4f75d4e39e92e10b | recovery points [2 2 2 6] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 31625cf8d2338693",
	"pmdk-line/list":                 "points [43 39 20 102] ref [6 4 1] stats {3 0 11 176 0 0 0 0} image c08922054fc13ea4 | recovery points [2 2 2 6] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 81b645d31a6dcb37",
	"pmdk-line/bptree-twolevel":      "points [109 128 33 270] ref [6 15 3] stats {3 0 24 2416 0 0 0 0} image 65d7612aa5d76674 | recovery points [9 15 3 27] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 7688989813ad8229",
	"mnemosyne-line/hashmap":         "points [29 29 12 70] ref [3 2 1] stats {3 0 6 136 0 0 22 0} image ddc504e41da35080 | recovery points [5 5 5 15] report {Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {0 0 0 0 0 0 0 0} image 3bf3db084bf57bea",
	"mnemosyne-line/list":            "points [29 30 12 71] ref [3 2 1] stats {3 0 6 136 0 0 77 0} image bb05816f3b4f78a0 | recovery points [5 5 5 15] report {Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {0 0 0 0 0 0 0 0} image 992710b73f4eb68c",
	"mnemosyne-line/bptree-twolevel": "points [75 108 12 195] ref [2 11 2] stats {3 0 15 2344 0 0 872 0} image 4a23c4b6ba8efdeb | recovery points [5 5 5 15] report {Slots:2 Recovered:0 Reexecuted:0 RolledBack:0 RolledForward:0 Quarantined:0 Errors:[]} stats {0 0 0 0 0 0 0 0} image d0329af9d82d09d6",
	"atlas-line/hashmap":             "points [52 41 23 116] ref [6 4 1] stats {3 0 11 176 0 0 0 0} image 98b475fe370f269d | recovery points [3 3 3 9] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 8a6946690c0cd741",
	"atlas-line/list":                "points [52 43 23 118] ref [6 4 1] stats {3 0 11 176 0 0 0 0} image 120a3f31f0810314 | recovery points [3 3 3 9] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image f476fd1845a73691",
	"atlas-line/bptree-twolevel":     "points [122 136 39 297] ref [6 18 3] stats {3 0 27 2464 0 0 0 0} image 36e079c537123a7e | recovery points [11 17 3 31] report {Slots:2 Recovered:1 Reexecuted:0 RolledBack:1 RolledForward:0 Quarantined:0 Errors:[]} stats {0 1 0 0 0 0 0 0} image 245e2b405ad1ed36",
}

// pinWorkloads are the cells' workloads: the generated insert/update/delete
// mix on two structures and the B+tree script that reaches shifts and splits.
var pinWorkloads = []struct {
	name string
	cfg  Config
}{
	{"hashmap", Config{Structure: "hashmap"}},
	{"list", Config{Structure: "list"}},
	{"bptree-twolevel", Config{Structure: "bptree", Script: BPTreeTwoLevel()}},
}

func TestPinnedPersistSequences(t *testing.T) {
	var got strings.Builder
	for _, spec := range Specs() {
		if spec.Style != StyleAtomic {
			continue
		}
		for _, w := range pinWorkloads {
			key := spec.Name + "/" + w.name
			fp, err := pinRun(spec, w.cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			fmt.Fprintf(&got, "\t%q: %q,\n", key, fp)
			if want := pinnedCells[key]; fp != want {
				t.Errorf("%s:\n got %s\nwant %s", key, fp, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("fingerprints of this tree:\n%s", got.String())
	}
}

// pinRun follows RunSpec's reference run for one cell, then crashes the live
// window at half its persist points and recovers.
func pinRun(spec EngineSpec, cfg Config) (string, error) {
	cfg.fill()
	pool := nvm.New(cfg.PoolSize, nvm.WithSeed(cfg.Seed), nvm.WithEviction(cfg.Policy))
	alloc, err := pmem.Create(pool)
	if err != nil {
		return "", err
	}
	eng, err := spec.Create(pool, alloc)
	if err != nil {
		return "", err
	}
	store, err := OpenStructure(cfg.Structure, eng, cfg.RootSlot)
	if err != nil {
		return "", err
	}
	seedOps, liveOps := cfg.ops()
	for _, o := range seedOps {
		if err := o.run(store); err != nil {
			return "", err
		}
	}
	base := pool.CoherentSnapshot()

	var fp strings.Builder
	var total int64
	for pass := 0; pass < 2; pass++ {
		if err := pool.Restore(base); err != nil {
			return "", err
		}
		a, err := pmem.Attach(pool)
		if err != nil {
			return "", err
		}
		if eng, err = spec.Attach(pool, a); err != nil {
			return "", err
		}
		if store, err = OpenStructure(cfg.Structure, eng, cfg.RootSlot); err != nil {
			return "", err
		}
		if _, err := eng.Recover(); err != nil {
			return "", err
		}
		if pass == 0 {
			pool.ResetPersistPoints()
			var ref []int64
			for _, o := range liveOps {
				before := eng.Stats().Snapshot().LogEntries
				if err := o.run(store); err != nil {
					return "", err
				}
				ref = append(ref, eng.Stats().Snapshot().LogEntries-before)
			}
			total = pool.PersistPoints(nvm.CrashAtAny)
			fmt.Fprintf(&fp, "points %v ref %v stats %v image %x", pinPoints(pool), ref,
				eng.Stats().Snapshot(), imageHash(pool))
			continue
		}
		pool.ScheduleCrashAt(nvm.CrashAtAny, total/2)
		fired := false
		for _, o := range liveOps {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if e, ok := r.(error); !ok || !errors.Is(e, nvm.ErrCrash) {
							panic(r)
						}
						fired = true
					}
				}()
				err = o.run(store)
			}()
			if fired {
				break
			}
			if err != nil {
				return "", err
			}
		}
		if !fired {
			return "", errors.New("the scheduled crash never fired")
		}
		pool.ScheduleCrashAt(nvm.CrashAtAny, 0)
		pool.Crash()
		pool.ResetPersistPoints()
		a2, err := pmem.Attach(pool)
		if err != nil {
			return "", err
		}
		e2, err := spec.Attach(pool, a2)
		if err != nil {
			return "", err
		}
		if _, err := OpenStructure(cfg.Structure, e2, cfg.RootSlot); err != nil {
			return "", err
		}
		rep, err := Recover(e2)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&fp, " | recovery points %v report %+v stats %v image %x", pinPoints(pool), rep,
			e2.Stats().Snapshot(), imageHash(pool))
	}
	return fp.String(), nil
}

// imageHash is the first 64 bits of the SHA-256 of the durable image.
func imageHash(p *nvm.Pool) []byte {
	sum := sha256.Sum256(p.Snapshot())
	return sum[:8]
}

// pinPoints lists the persist points since the last reset per crash kind:
// stores, flushes, fences, all.
func pinPoints(p *nvm.Pool) [4]int64 {
	return [4]int64{p.PersistPoints(nvm.CrashAtStore), p.PersistPoints(nvm.CrashAtFlush),
		p.PersistPoints(nvm.CrashAtFence), p.PersistPoints(nvm.CrashAtAny)}
}
