package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"clobbernvm/internal/harness"
	"clobbernvm/internal/memcache"
)

// serverChildEnv makes the test binary run the server's main instead of the
// tests, so a test can signal the real process.
const serverChildEnv = "MEMCACHEDSIM_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(serverChildEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterAnnouncement signals the server the moment it prints
// its listening line — what a supervisor that waits for readiness does. The
// handler must already be installed: the process drains and exits 0 instead
// of dying of the signal.
func TestSIGTERMRightAfterAnnouncement(t *testing.T) {
	for try := 0; try < 5; try++ {
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-debug-addr", "", "-pool-mb", "64")
		cmd.Env = append(os.Environ(), serverChildEnv+"=1")
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewScanner(out)
		announced, done := false, false
		for lines.Scan() {
			switch line := lines.Text(); {
			case strings.Contains(line, "listening on"):
				announced = true
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			case strings.Contains(line, "memcachedsim: done"):
				done = true
			}
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("try %d: server did not survive SIGTERM after its announcement: %v", try, err)
		}
		if !announced || !done {
			t.Fatalf("try %d: announced=%v, final stats line printed=%v", try, announced, done)
		}
	}
}

// TestShutdownSignalsDeliverSIGTERM pins the orchestrator contract: SIGTERM
// must reach the shutdown channel instead of killing the process outright,
// or a container stop would skip the graceful drain entirely.
func TestShutdownSignalsDeliverSIGTERM(t *testing.T) {
	sig := shutdownSignals()
	defer signal.Stop(sig)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-sig:
		if got != syscall.SIGTERM {
			t.Fatalf("received %v, want SIGTERM", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM never delivered to the shutdown channel")
	}
}

// TestShutdownDrainsInFlight races shutdown against a client that has just
// pipelined a burst of sets: the drain window must let every command finish
// and its reply reach the wire before the connection dies. The drain covers
// sessions, not connections still waiting to be accepted (Server.Close
// refuses those), so the client first completes a version round trip.
func TestShutdownDrainsInFlight(t *testing.T) {
	sc := harness.SmallScale
	sc.PoolBytes = 1 << 26
	sc.Threads = []int{4}
	setup, err := harness.NewSetup(harness.EngineClobber, sc)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memcache.New(setup.Engine, 34, memcache.Options{
		Capacity: 1 << 12, Lock: memcache.LockRW,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := memcache.NewServer(cache, "127.0.0.1:0", 4,
		memcache.WithIdleTimeout(30*time.Second),
		memcache.WithDrainTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION ") {
		t.Fatalf("version round trip: %q, %v", line, err)
	}

	const burst = 50
	var req strings.Builder
	for i := 0; i < burst; i++ {
		fmt.Fprintf(&req, "set k%03d 0 0 5\r\nhello\r\n", i)
	}
	req.WriteString("quit\r\n")
	if _, err := conn.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}

	done := make(chan string, 1)
	go func() { done <- shutdown(srv, cache, nil, nil) }()

	for i := 0; i < burst; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d/%d lost during shutdown: %v", i, burst, err)
		}
		if line != "STORED\r\n" {
			t.Fatalf("reply %d: got %q, want STORED", i, line)
		}
	}
	summary := <-done
	if !strings.Contains(summary, "restarts=0") {
		t.Fatalf("summary %q reports unexpected restarts", summary)
	}
	if n, err := cache.Len(); err != nil || n != burst {
		t.Fatalf("cache holds %d items (err=%v), want %d — drained commands were dropped", n, err, burst)
	}
	if err := shutdown(srv, cache, nil, nil); !strings.Contains(err, "done") {
		t.Fatalf("second shutdown not idempotent: %q", err)
	}
}
