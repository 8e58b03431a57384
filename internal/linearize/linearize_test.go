package linearize

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// mkOp builds a history entry with explicit timestamps.
func mkOp(thread int, k Kind, key, val, out string, found bool, inv, ret int64) Op {
	return Op{Thread: thread, Kind: k, Key: key, Val: val, Out: out, Found: found, Invoke: inv, Return: ret}
}

func TestCheckHandBuiltHistories(t *testing.T) {
	cases := []struct {
		name    string
		history []Op
		want    Verdict
	}{
		{
			name: "get concurrent with insert may miss",
			history: []Op{
				mkOp(0, Insert, "k", "v", "", false, 1, 4),
				mkOp(1, Get, "k", "", "", false, 2, 3), // linearizes before the insert
			},
			want: Ok,
		},
		{
			name: "get concurrent with insert may hit",
			history: []Op{
				mkOp(0, Insert, "k", "v", "", false, 1, 4),
				mkOp(1, Get, "k", "", "v", true, 2, 3),
			},
			want: Ok,
		},
		{
			name: "get after insert returned must hit",
			history: []Op{
				mkOp(0, Insert, "k", "v", "", false, 1, 2),
				mkOp(1, Get, "k", "", "", false, 3, 4), // stale miss: real-time order violated
			},
			want: Violation,
		},
		{
			name: "stale value after overwrite",
			history: []Op{
				mkOp(0, Insert, "k", "v1", "", false, 1, 2),
				mkOp(0, Insert, "k", "v2", "", false, 3, 4),
				mkOp(1, Get, "k", "", "v1", true, 5, 6),
			},
			want: Violation,
		},
		{
			name: "racing inserts legalize either read",
			history: []Op{
				mkOp(0, Insert, "k", "v1", "", false, 1, 5),
				mkOp(1, Insert, "k", "v2", "", false, 2, 6),
				mkOp(2, Get, "k", "", "v1", true, 7, 8),
			},
			want: Ok,
		},
		{
			name: "double delete cannot both find the key",
			history: []Op{
				mkOp(0, Insert, "k", "v", "", false, 1, 2),
				mkOp(0, Delete, "k", "", "", true, 3, 4),
				mkOp(1, Delete, "k", "", "", true, 5, 6),
			},
			want: Violation,
		},
		{
			name: "racing deletes where only one finds the key",
			history: []Op{
				mkOp(0, Insert, "k", "v", "", false, 1, 2),
				mkOp(0, Delete, "k", "", "", true, 3, 6),
				mkOp(1, Delete, "k", "", "", false, 4, 5),
			},
			want: Ok,
		},
		{
			name: "independent keys do not interfere",
			history: []Op{
				mkOp(0, Insert, "a", "v", "", false, 1, 2),
				mkOp(1, Insert, "b", "w", "", false, 3, 4),
				mkOp(0, Get, "a", "", "v", true, 5, 6),
				mkOp(1, Get, "b", "", "w", true, 7, 8),
			},
			want: Ok,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := Check(c.history, 0)
			if res.Verdict != c.want {
				t.Fatalf("verdict %v (key %q), want %v\nops: %v", res.Verdict, res.Key, c.want, res.KeyOps)
			}
		})
	}
}

func TestCheckBudgetExhaustion(t *testing.T) {
	// Fully overlapping inserts force branching; a one-node budget cannot
	// decide them and must say so rather than mislabel the history.
	history := []Op{
		mkOp(0, Insert, "k", "a", "", false, 1, 10),
		mkOp(1, Insert, "k", "b", "", false, 2, 11),
		mkOp(2, Insert, "k", "c", "", false, 3, 12),
		mkOp(3, Get, "k", "", "a", true, 13, 14),
	}
	if res := Check(history, 1); res.Verdict != Exhausted {
		t.Fatalf("budget-1 verdict = %v, want Exhausted", res.Verdict)
	}
	if res := Check(history, 0); res.Verdict != Ok {
		t.Fatalf("default-budget verdict = %v, want Ok", res.Verdict)
	}
}

func TestRecorderTimestampsAreOrdered(t *testing.T) {
	r := NewRecorder(2)
	inv := r.Invoke()
	r.RecordInsert(0, inv, "k", "v")
	inv2 := r.Invoke()
	r.RecordGet(1, inv2, "k", "v", true)
	h := r.History()
	if len(h) != 2 {
		t.Fatalf("history len %d", len(h))
	}
	for _, o := range h {
		if o.Invoke >= o.Return {
			t.Fatalf("op %v: invoke not before return", o)
		}
	}
	if !(h[0].Return < h[1].Invoke) {
		t.Fatalf("sequential ops not ordered: %v then %v", h[0], h[1])
	}
}

// lfMap opens a lock-free hashmap on a fresh clobber engine.
func lfMap(t *testing.T) *pds.LFHashMap {
	t.Helper()
	pool := nvm.New(1 << 26)
	pool.SetFastPath(true)
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 16}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pds.NewLFHashMap(eng, 16)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestLFHashMapTortureIsLinearizable is the real-run acceptance test: eight
// workers hammer a small shared key space on the lock-free map while the
// recorder captures every op, and the checker must certify the merged
// history. Unique values per (worker, op) make reads attributable.
func TestLFHashMapTortureIsLinearizable(t *testing.T) {
	const workers = 8
	const perWorker = 40
	const keySpace = 16
	h := lfMap(t)
	rec := NewRecorder(workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*104729 + 13))
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("key-%02d", rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4:
					val := fmt.Sprintf("w%d-%d", w, i)
					inv := rec.Invoke()
					if err := h.Insert(w, []byte(key), []byte(val)); err != nil {
						errs[w] = err
						return
					}
					rec.RecordInsert(w, inv, key, val)
				case 5, 6:
					inv := rec.Invoke()
					existed, err := h.Delete(w, []byte(key))
					if err != nil {
						errs[w] = err
						return
					}
					rec.RecordDelete(w, inv, key, existed)
				default:
					inv := rec.Invoke()
					out, found, err := h.Get(w, []byte(key))
					if err != nil {
						errs[w] = err
						return
					}
					rec.RecordGet(w, inv, key, string(out), found)
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	history := rec.History()
	if len(history) != workers*perWorker {
		t.Fatalf("recorded %d ops, want %d", len(history), workers*perWorker)
	}
	res := Check(history, 1<<22)
	if res.Verdict != Ok {
		t.Fatalf("torture history %v on key %q (%d nodes explored)\nops: %v",
			res.Verdict, res.Key, res.Explored, res.KeyOps)
	}
	t.Logf("%d ops certified linearizable (%d nodes explored)", len(history), res.Explored)
}

// staleStore is the deliberately non-linearizable variant: it remembers the
// first value ever written to each key and serves reads from that cache, so
// any key overwritten and then read yields a stale value. The checker must
// convict it — this is the harness's own acceptance test, like the chaos
// suite's -chaos-broken engine.
type staleStore struct {
	inner pds.Store
	mu    sync.Mutex
	first map[string]string
}

func newStaleStore(inner pds.Store) *staleStore {
	return &staleStore{inner: inner, first: map[string]string{}}
}

func (s *staleStore) Insert(slot int, key, val []byte) error {
	s.mu.Lock()
	if _, ok := s.first[string(key)]; !ok {
		s.first[string(key)] = string(val)
	}
	s.mu.Unlock()
	return s.inner.Insert(slot, key, val)
}

func (s *staleStore) Get(slot int, key []byte) ([]byte, bool, error) {
	_, found, err := s.inner.Get(slot, key)
	if err != nil || !found {
		return nil, found, err
	}
	s.mu.Lock()
	v := s.first[string(key)]
	s.mu.Unlock()
	return []byte(v), true, nil
}

func (s *staleStore) Delete(slot int, key []byte) (bool, error) {
	return s.inner.Delete(slot, key)
}

// TestCheckerConvictsStaleReads runs the broken variant through the same
// recorder pipeline: overwrite-then-read on every key guarantees at least
// one stale read, and the checker must return Violation.
func TestCheckerConvictsStaleReads(t *testing.T) {
	const workers = 4
	s := newStaleStore(lfMap(t))
	rec := NewRecorder(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", w) // per-worker key: conviction is deterministic
			for i := 0; i < 3; i++ {
				val := fmt.Sprintf("w%d-%d", w, i)
				inv := rec.Invoke()
				if err := s.Insert(w, []byte(key), []byte(val)); err != nil {
					t.Error(err)
					return
				}
				rec.RecordInsert(w, inv, key, val)
			}
			inv := rec.Invoke()
			out, found, err := s.Get(w, []byte(key))
			if err != nil {
				t.Error(err)
				return
			}
			rec.RecordGet(w, inv, key, string(out), found)
		}(w)
	}
	wg.Wait()
	res := Check(rec.History(), 0)
	if res.Verdict != Violation {
		t.Fatalf("broken variant verdict = %v, want Violation", res.Verdict)
	}
	t.Logf("convicted on key %q: %v", res.Key, res.KeyOps)
}
