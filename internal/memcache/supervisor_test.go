package memcache

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clobbernvm/internal/chassis"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/nvm"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/pmem"
)

// newSupervised builds a clobber-backed cache under a Supervisor whose
// rebuild path is the real one: NewFromImage + allocator/engine attach.
func newSupervised(t *testing.T) (*Supervisor, *nvm.Pool) {
	t.Helper()
	pool := nvm.New(1<<26, nvm.WithSeed(7))
	alloc, err := pmem.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := clobber.Create(pool, alloc, clobber.Options{Options: chassis.Options{Slots: 8}})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Capacity: 1 << 12}
	cache, err := New(eng, cacheSlot, opts)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(img []byte) (*nvm.Pool, pds.Engine, error) {
		p, err := nvm.NewFromImage(img, nvm.WithSeed(7))
		if err != nil {
			return nil, nil, err
		}
		a, err := pmem.Attach(p)
		if err != nil {
			return nil, nil, err
		}
		e, err := clobber.Attach(p, a, clobber.Options{})
		if err != nil {
			return nil, nil, err
		}
		return p, e, nil
	}
	return NewSupervisor(cache, pool, cacheSlot, opts, rebuild), pool
}

// sendCmd writes one command and returns the first reply line.
func sendCmd(t *testing.T, conn net.Conn, r *bufio.Reader, cmd string) string {
	t.Helper()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprint(conn, cmd); err != nil {
		t.Fatalf("write %q: %v", cmd, err)
	}
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("reply to %q: %v", cmd, err)
	}
	return strings.TrimSpace(line)
}

// TestSupervisorRecoversUnderTraffic is the end-to-end supervisor loop over
// a live TCP connection: acked sets before an injected power failure must
// survive recovery, the failure window must answer "SERVER_ERROR
// recovering", and service must resume on the rebuilt pool.
func TestSupervisorRecoversUnderTraffic(t *testing.T) {
	sup, _ := newSupervised(t)
	srv, err := NewServer(sup, "127.0.0.1:0", 4, WithDrainTimeout(100*time.Millisecond))
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

	// Acked writes: these must survive the crash.
	var acked []string
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("pre-%d", i)
		if got := sendCmd(t, conn, r, fmt.Sprintf("set %s 0 0 4\r\nv%03d\r\n", k, i)); got != "STORED" {
			t.Fatalf("pre-crash set %s: %q", k, got)
		}
		acked = append(acked, k)
	}

	if err := sup.Arm(nvm.CrashAtStore, 40); err != nil {
		t.Fatal(err)
	}
	// Hammer sets until one hits the latch and is refused.
	sawRecovering := false
	for i := 0; i < 200 && !sawRecovering; i++ {
		got := sendCmd(t, conn, r, fmt.Sprintf("set crash-%03d 0 0 2\r\nxx\r\n", i))
		switch {
		case got == "STORED":
		case strings.HasPrefix(got, "SERVER_ERROR recovering"):
			sawRecovering = true
		default:
			t.Fatalf("unexpected reply during crash window: %q", got)
		}
	}
	if !sawRecovering {
		t.Fatal("armed crash never surfaced as SERVER_ERROR recovering")
	}

	// Recovery completes in the background; the connection stays up.
	deadline := time.Now().Add(10 * time.Second)
	for sup.Generation() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if sup.Generation() == 0 {
		t.Fatal("recovery did not complete")
	}
	if !sup.Serving() {
		t.Fatalf("supervisor not serving after recovery: %+v", sup.Status())
	}
	if sup.Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", sup.Restarts())
	}

	// Post-recovery: service works again on the same connection...
	for i := 0; ; i++ {
		got := sendCmd(t, conn, r, "set post 0 0 2\r\nok\r\n")
		if got == "STORED" {
			break
		}
		if got != "SERVER_ERROR recovering" || i > 100 {
			t.Fatalf("post-recovery set: %q", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ...and every acked pre-crash key is still visible (durability-at-ack).
	for _, k := range acked {
		got := sendCmd(t, conn, r, fmt.Sprintf("get %s\r\n", k))
		if !strings.HasPrefix(got, "VALUE "+k+" ") {
			t.Fatalf("acked key %s lost after recovery: %q", k, got)
		}
		r.ReadString('\n') // value
		r.ReadString('\n') // END
	}
	if err := sup.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	if rep, err := sup.LastReport(); err != nil || rep.Quarantined != 0 {
		t.Fatalf("recovery report: %+v err=%v", rep, err)
	}
}

// TestSupervisorFailsFastWhileDraining: operations issued directly against
// a latched supervisor are refused with ErrRecovering instead of panicking
// or hanging, then succeed again after the swap.
func TestSupervisorFailsFastWhileDraining(t *testing.T) {
	sup, pool := newSupervised(t)
	if err := sup.Set(0, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	pool.ScheduleCrashAt(nvm.CrashAtStore, 1)
	if err := sup.Set(0, []byte("k2"), []byte("v2")); err != ErrInterrupted {
		t.Fatalf("interrupted set: err = %v, want ErrInterrupted", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sup.Serving() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !sup.Serving() {
		t.Fatalf("supervisor stuck: %+v", sup.Status())
	}
	v, found, err := sup.Get(0, []byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("acked key after recovery: %q %v %v", v, found, err)
	}
	// The interrupted set is allowed either way; both outcomes must be
	// readable without error.
	if _, _, err := sup.Get(0, []byte("k2")); err != nil {
		t.Fatal(err)
	}
}

// TestIdleTimeoutReleasesStalledConn: a client that connects and goes
// silent must be cut loose after the idle timeout instead of pinning its
// handler goroutine forever.
func TestIdleTimeoutReleasesStalledConn(t *testing.T) {
	_, c := newCache(t, Options{})
	srv, err := NewServer(c, "127.0.0.1:0", 4,
		WithIdleTimeout(50*time.Millisecond), WithDrainTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server must close the connection (read returns EOF) well before
	// our own guard deadline — without a server-side deadline this read
	// would block the full 5s and fail.
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read succeeded on a connection the server should have closed")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("server took %v to drop an idle connection", elapsed)
	}
}

// TestCloseDrainsInFlightSession: a session mid-command (payload promised,
// not delivered) holds Close for at most the drain window, after which the
// connection is force-closed and Close returns — with its handler gone.
func TestCloseDrainsInFlightSession(t *testing.T) {
	_, c := newCache(t, Options{})
	srv, err := NewServer(c, "127.0.0.1:0", 4, WithDrainTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise a 10-byte payload and stall: the handler blocks in ReadFull.
	if _, err := fmt.Fprint(conn, "set k 0 0 10\r\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the handler reach the payload read

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain a stalled in-flight session")
	}
	// Idempotent close.
	if err := srv.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseFastWhenIdle: with no in-flight commands Close must not burn the
// whole drain window.
func TestCloseFastWhenIdle(t *testing.T) {
	_, c := newCache(t, Options{})
	srv, err := NewServer(c, "127.0.0.1:0", 4, WithDrainTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle Close took %v", elapsed)
	}
}
