package loadgen

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/memcache"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pmem"
)

func newServer(t *testing.T, opts memcache.Options) (*memcache.Server, *memcache.Cache) {
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
	c, err := memcache.New(eng, 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := memcache.NewServer(c, "127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, c
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Addr: "127.0.0.1:1", Ops: 1}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(Config{Addr: "127.0.0.1:1", Rate: 100}); err == nil {
		t.Fatal("unbounded run accepted")
	}
}

func TestOpenLoopAgainstServer(t *testing.T) {
	srv, c := newServer(t, memcache.Options{Capacity: 1 << 12, FrontCache: true})
	// Preload the keyspace so gets hit.
	const keys = 256
	for i := 0; i < keys; i++ {
		if err := c.Set(0, []byte(fmt.Sprintf("lg-%06d", i)), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Addr:     srv.Addr(),
		Conns:    4,
		Rate:     8000,
		Ops:      2000,
		Keys:     keys,
		ZipfS:    1.2,
		GetFrac:  0.9,
		SetFrac:  0.1,
		Pipeline: 8,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("errors=%d rejected=%d", res.Errors, res.Rejected)
	}
	if res.Sent != 2000 || res.Completed != 2000 {
		t.Fatalf("sent=%d completed=%d, want 2000/2000", res.Sent, res.Completed)
	}
	if res.Gets == 0 || res.Sets == 0 {
		t.Fatalf("mix not exercised: gets=%d sets=%d", res.Gets, res.Sets)
	}
	if res.GetHits == 0 {
		t.Fatal("preloaded keyspace produced no get hits")
	}
	if res.Latency.Count != res.Completed {
		t.Fatalf("latency count %d != completed %d", res.Latency.Count, res.Completed)
	}
	s := res.Latency
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
	if res.Achieved <= 0 {
		t.Fatalf("achieved = %f", res.Achieved)
	}
	if res.PerOp["get"].Count+res.PerOp["set"].Count+res.PerOp["delete"].Count != res.Completed {
		t.Fatalf("per-op counts don't sum: %+v", res.PerOp)
	}
	// Zipfian hot head: the front cache must have absorbed a good chunk
	// of the reads.
	if fs := c.FrontStats(); fs.Hits == 0 {
		t.Fatalf("zipfian reads never hit the front cache: %+v", fs)
	}
}

// TestCoordinatedOmissionMeasured drives a deliberately slow stub server
// (10ms per reply) at 1ms inter-arrivals with a pipeline window of 1. A
// closed-loop driver would record ~10ms per op — it only sends when the
// server is ready. The open-loop schedule keeps injecting on time, so the
// induced queueing delay must appear in the tail: later ops wait for the
// whole backlog ahead of them.
func TestCoordinatedOmissionMeasured(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const serviceTime = 10 * time.Millisecond
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if !strings.HasPrefix(line, "get ") {
				continue
			}
			time.Sleep(serviceTime)
			fmt.Fprint(conn, "END\r\n")
		}
	}()

	const ops = 30
	res, err := Run(Config{
		Addr:     ln.Addr().String(),
		Conns:    1,
		Rate:     1000, // 1ms mean inter-arrival vs 10ms service time
		Ops:      ops,
		GetFrac:  1,
		Pipeline: 1,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != ops {
		t.Fatalf("completed = %d, want %d", res.Completed, ops)
	}
	// The last op queued behind ~29 predecessors at 10ms each while its
	// injection timestamp stayed on the 1ms schedule: its latency is
	// ~260ms+. Even the median waits behind half the backlog. Any value
	// near the 10ms service time would mean omission was coordinated
	// away.
	if res.Latency.Max < int64(5*serviceTime) {
		t.Fatalf("max latency %dns hides queueing (service time %v)", res.Latency.Max, serviceTime)
	}
	if res.Latency.P50 < int64(2*serviceTime) {
		t.Fatalf("p50 %dns looks closed-loop (service time %v)", res.Latency.P50, serviceTime)
	}
}
