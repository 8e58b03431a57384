package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/undolog"
)

const cacheSlot = 20

func newCache(t *testing.T, opts Options) (*nvm.Pool, *Cache) {
	t.Helper()
	pool := nvm.New(1 << 26)
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 8}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(eng, cacheSlot, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pool, c
}

func TestSetGetDelete(t *testing.T) {
	_, c := newCache(t, Options{})
	if err := c.Set(0, []byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(0, []byte("alpha"))
	if err != nil || !found || string(v) != "one" {
		t.Fatalf("get: %q %v %v", v, found, err)
	}
	if err := c.Set(0, []byte("alpha"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = c.Get(0, []byte("alpha"))
	if string(v) != "two" {
		t.Fatalf("update lost: %q", v)
	}
	existed, err := c.Delete(0, []byte("alpha"))
	if err != nil || !existed {
		t.Fatalf("delete: %v %v", existed, err)
	}
	if _, found, _ := c.Get(0, []byte("alpha")); found {
		t.Fatal("deleted key still present")
	}
	if existed, _ := c.Delete(0, []byte("alpha")); existed {
		t.Fatal("double delete reported existence")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEviction(t *testing.T) {
	_, c := newCache(t, Options{Capacity: 10})
	for i := 0; i < 25; i++ {
		if err := c.Set(0, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("Len = %d, want 10 (capacity)", n)
	}
	if c.Evictions.Load() != 15 {
		t.Fatalf("evictions = %d, want 15", c.Evictions.Load())
	}
	// The most recent 10 keys survive.
	for i := 15; i < 25; i++ {
		if _, found, _ := c.Get(0, []byte(fmt.Sprintf("k%02d", i))); !found {
			t.Fatalf("recent key k%02d evicted", i)
		}
	}
	if _, found, _ := c.Get(0, []byte("k00")); found {
		t.Fatal("oldest key survived eviction")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRefreshesLRU(t *testing.T) {
	_, c := newCache(t, Options{Capacity: 3})
	for _, k := range []string{"a", "b", "c"} {
		c.Set(0, []byte(k), []byte("v"))
	}
	c.Set(0, []byte("a"), []byte("v2")) // refresh a
	c.Set(0, []byte("d"), []byte("v"))  // evicts b (now LRU)
	if _, found, _ := c.Get(0, []byte("a")); !found {
		t.Fatal("refreshed key evicted")
	}
	if _, found, _ := c.Get(0, []byte("b")); found {
		t.Fatal("stale key not evicted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLockModes(t *testing.T) {
	for _, mode := range []LockMode{LockExclusive, LockSpin, LockRW} {
		t.Run(mode.String(), func(t *testing.T) {
			_, c := newCache(t, Options{Lock: mode})
			res, err := Drive(c, DriverConfig{
				Mix: MixInsertMost, Threads: 4, Ops: 2000, KeySpace: 500, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 2000 {
				t.Fatalf("ops = %d", res.Ops)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestProtocolSession(t *testing.T) {
	_, c := newCache(t, Options{})
	input := strings.Join([]string{
		"set greeting 0 0 5\r\nhello\r\n",
		"get greeting\r\n",
		"get missing\r\n",
		"delete greeting\r\n",
		"delete greeting\r\n",
		"bogus\r\n",
		"quit\r\n",
	}, "")
	var out strings.Builder
	sess := NewSession(c, 0, strings.NewReader(input), &out)
	if err := sess.Serve(); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"STORED\r\n",
		"VALUE greeting 0 5\r\nhello\r\nEND\r\n",
		"END\r\n",
		"DELETED\r\n",
		"NOT_FOUND\r\n",
		"ERROR\r\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("response missing %q:\n%s", want, got)
		}
	}
}

func TestProtocolBadInput(t *testing.T) {
	_, c := newCache(t, Options{})
	var out strings.Builder
	sess := NewSession(c, 0, strings.NewReader("set x 0 0 notanumber\r\n"), &out)
	if err := sess.Serve(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CLIENT_ERROR") {
		t.Fatalf("bad set not rejected: %s", out.String())
	}
}

func TestServerOverTCP(t *testing.T) {
	_, c := newCache(t, Options{})
	srv, err := NewServer(c, "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	fmt.Fprintf(conn, "set tcpkey 0 0 4\r\ndata\r\n")
	line, _ := r.ReadString('\n')
	if strings.TrimSpace(line) != "STORED" {
		t.Fatalf("set reply %q", line)
	}
	fmt.Fprintf(conn, "get tcpkey\r\n")
	line, _ = r.ReadString('\n')
	if !strings.HasPrefix(line, "VALUE tcpkey 0 4") {
		t.Fatalf("get reply %q", line)
	}
	data, _ := r.ReadString('\n')
	if strings.TrimSpace(data) != "data" {
		t.Fatalf("value %q", data)
	}
	end, _ := r.ReadString('\n')
	if strings.TrimSpace(end) != "END" {
		t.Fatalf("end %q", end)
	}
}

func TestCrashRecoveryMidSet(t *testing.T) {
	for n := int64(5); n <= 120; n += 9 {
		pool := nvm.New(1<<26, nvm.WithEvictProbability(0.5), nvm.WithSeed(n))
		alloc, err := pmem.Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 4}})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(eng, cacheSlot, Options{Capacity: 50})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := c.Set(0, []byte(fmt.Sprintf("pre%02d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		pool.ScheduleCrash(n)
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, nvm.ErrCrash) {
						panic(r)
					}
					fired = true
				}
			}()
			_ = c.Set(0, []byte("crashkey"), []byte("crashval"))
		}()
		if !fired {
			continue
		}
		pool.Crash()
		alloc2, err := pmem.Attach(pool)
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		eng2, err := clobber.Attach(pool, alloc2, clobber.Options{})
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		c2, err := New(eng2, cacheSlot, Options{Capacity: 50})
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		if _, err := eng2.Recover(); err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		if err := c2.CheckInvariants(); err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		for i := 0; i < 30; i++ {
			if _, found, _ := c2.Get(0, []byte(fmt.Sprintf("pre%02d", i))); !found {
				t.Fatalf("crash@%d: committed key pre%02d lost", n, i)
			}
		}
	}
}

func TestWorksOnUndoEngine(t *testing.T) {
	pool := nvm.New(1 << 26)
	alloc, _ := pmem.Create(pool)
	eng, err := undolog.Create(pool, alloc, undolog.Options{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	var _ pds.Engine = eng
	c, err := New(eng, cacheSlot, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(0, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := c.Get(0, []byte("k")); !found || string(v) != "v" {
		t.Fatal("pmdk-engine cache broken")
	}
}
