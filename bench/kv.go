package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// kvConn is a memcached text-protocol client connection. It is binary-safe:
// values are framed by the length in the VALUE line.
type kvConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dialKV(addr string) (*kvConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &kvConn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (c *kvConn) close() { _ = c.c.Close() }

func (c *kvConn) line() (string, error) {
	s, err := c.r.ReadString('\n')
	return strings.TrimRight(s, "\r\n"), err
}

func (c *kvConn) writeSet(key, val []byte) {
	c.w.WriteString("set ")
	c.w.Write(key)
	c.w.WriteString(" 0 0 ")
	c.w.WriteString(strconv.Itoa(len(val)))
	c.w.WriteString("\r\n")
	c.w.Write(val)
	c.w.WriteString("\r\n")
}

func (c *kvConn) readStored() error {
	reply, err := c.line()
	if err != nil {
		return err
	}
	if reply != "STORED" {
		return fmt.Errorf("set: %s", reply)
	}
	return nil
}

func (c *kvConn) writeGet(key []byte) {
	c.w.WriteString("get ")
	c.w.Write(key)
	c.w.WriteString("\r\n")
}

// readValue reads the reply to a single-key get.
func (c *kvConn) readValue(key []byte) (val []byte, found bool, err error) {
	for {
		reply, err := c.line()
		if err != nil {
			return nil, false, err
		}
		if reply == "END" {
			return val, found, nil
		}
		f := strings.Fields(reply)
		if len(f) != 4 || f[0] != "VALUE" || f[1] != string(key) {
			return nil, false, fmt.Errorf("get: %s", reply)
		}
		n, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, false, fmt.Errorf("get: %s", reply)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, false, err
		}
		if !bytes.HasSuffix(buf, []byte("\r\n")) {
			return nil, false, errors.New("get: value not terminated")
		}
		val, found = buf[:n], true
	}
}

func (c *kvConn) put(key, val []byte) error {
	c.writeSet(key, val)
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.readStored()
}

func (c *kvConn) get(key []byte) ([]byte, bool, error) {
	c.writeGet(key)
	if err := c.w.Flush(); err != nil {
		return nil, false, err
	}
	return c.readValue(key)
}

// pipelineDepth is how many requests the bulk calls send before reading the
// replies; it keeps preload and read-back short without changing what the
// measured window does (one request in flight per connection).
const pipelineDepth = 64

func (c *kvConn) putMany(n int, kv func(int) ([]byte, []byte)) error {
	for base := 0; base < n; base += pipelineDepth {
		end := min(base+pipelineDepth, n)
		for i := base; i < end; i++ {
			c.writeSet(kv(i))
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		for i := base; i < end; i++ {
			if err := c.readStored(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *kvConn) getMany(n int, key func(int) []byte, each func(int, []byte, bool)) error {
	for base := 0; base < n; base += pipelineDepth {
		end := min(base+pipelineDepth, n)
		for i := base; i < end; i++ {
			c.writeGet(key(i))
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		for i := base; i < end; i++ {
			val, found, err := c.readValue(key(i))
			if err != nil {
				return err
			}
			each(i, val, found)
		}
	}
	return nil
}

// stats returns the integer STAT lines of the stats command.
func (c *kvConn) stats() (map[string]int64, error) {
	c.w.WriteString("stats\r\n")
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for {
		reply, err := c.line()
		if err != nil {
			return nil, err
		}
		if reply == "END" {
			return out, nil
		}
		f := strings.Fields(reply)
		if len(f) != 3 || f[0] != "STAT" {
			return nil, fmt.Errorf("stats: %s", reply)
		}
		if v, err := strconv.ParseInt(f[2], 10, 64); err == nil {
			out[f[1]] = v
		}
	}
}

var (
	listenRE   = regexp.MustCompile(`listening on (\S+)`)
	debugRE    = regexp.MustCompile(`debug endpoint on (http://[^/\s]+)`)
	restartsRE = regexp.MustCompile(`done \(.*restarts=(\d+)\)`)
)

// kvEnv is the real cmd/memcachedsim binary with default flags (only
// -addr 127.0.0.1:0 so parallel checkouts do not collide; the smoke test
// also shrinks the pool), one connection per worker.
type kvEnv struct {
	cmd      *exec.Cmd
	addr     string
	debugURL string
	// tail receives the child's last output line once its stdout closes.
	tail  chan string
	conns []*kvConn
	// crashesInjected is how many restarts the shutdown line may report.
	crashesInjected int
}

// defaultPoolBytes is cmd/memcachedsim's -pool-mb default.
const defaultPoolBytes = 512 << 20

// startAttempts bounds how often set-up starts the server over. About one
// start in six, the Go runtime hands the server a pool array on a recycled
// heap page and zeroes all of it, which makes the whole array resident
// before the first request and doubles or triples peak_rss_mb at random.
// Such a child is stopped and started again, so the metric reads the
// footprint the workload causes; if every attempt comes up that way the
// server now does it on purpose, and the last child is kept and measured.
const startAttempts = 5

func newKVEnv(sp *spec, bin string) (*kvEnv, error) {
	poolBytes := sp.poolBytes
	if poolBytes == 0 {
		poolBytes = defaultPoolBytes
	}
	var e *kvEnv
	for attempt := 1; ; attempt++ {
		var err error
		if e, err = startServer(sp, bin); err != nil {
			return nil, err
		}
		rss, err := e.peakRSSMB()
		if err != nil {
			e.discard()
			return nil, err
		}
		if rss < float64(poolBytes>>20)/2 || attempt == startAttempts {
			break
		}
		info("server start %d came up with %.0f MB resident; starting it again", attempt, rss)
		e.discard()
	}
	for i := 0; i < sp.workers; i++ {
		c, err := dialKV(e.addr)
		if err != nil {
			e.discard()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// startServer starts the child and waits until it has announced its
// listening and debug addresses.
func startServer(sp *spec, bin string) (*kvEnv, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if sp.poolBytes > 0 {
		args = append(args, "-pool-mb", strconv.FormatUint(sp.poolBytes>>20, 10))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	e := &kvEnv{cmd: cmd, tail: make(chan string, 1)}

	// A child that never announces its addresses is killed, which closes
	// its stdout and ends the scan below.
	watchdog := time.AfterFunc(60*time.Second, func() { _ = cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	for (e.addr == "" || e.debugURL == "") && sc.Scan() {
		if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
			e.addr = m[1]
		}
		if m := debugRE.FindStringSubmatch(sc.Text()); m != nil {
			e.debugURL = m[1]
		}
	}
	watchdog.Stop()
	go func() {
		last := ""
		for sc.Scan() {
			last = sc.Text()
		}
		e.tail <- last
	}()
	if e.addr == "" || e.debugURL == "" {
		e.discard()
		return nil, errors.New("server exited before announcing its listening and debug addresses")
	}
	return e, nil
}

func (e *kvEnv) targets() []target {
	out := make([]target, len(e.conns))
	for i, c := range e.conns {
		out[i] = c
	}
	return out
}

func (e *kvEnv) counters() (counters, error) {
	st, err := e.conns[0].stats()
	if err != nil {
		return counters{}, err
	}
	for _, k := range []string{"pool_fences", "pool_flushes", "pool_bytes_stored", "txn_log_bytes", "txn_vlog_bytes"} {
		if _, ok := st[k]; !ok {
			return counters{}, fmt.Errorf("stats: no %s line", k)
		}
	}
	return counters{st["pool_fences"], st["pool_flushes"], st["pool_bytes_stored"], st["txn_log_bytes"] + st["txn_vlog_bytes"]}, nil
}

// crash arms one power failure at a seeded fence through the debug endpoint,
// keeps writing until the server refuses a set, then polls every 2 ms until
// a set succeeds again.
func (e *kvEnv) crash(w *worker, rng *rand.Rand) error {
	url := fmt.Sprintf("%s/debug/crash?at=fence&point=%d", e.debugURL, 1+rng.Intn(64))
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("arm crash: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("arm crash: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	e.crashesInjected++

	return rideOutCrash(w)
}

// rideOutCrash writes until the armed crash makes the server refuse a set,
// then polls every 2 ms until a set succeeds again. Sets the injected crash
// refuses are its expected effect, not failures of the system; whether each
// took effect is settled by the read-back that follows.
func rideOutCrash(w *worker) error {
	refused := func() bool {
		_, err := w.tryWrite(w.pickWrite())
		return err != nil
	}
	for n := 0; !refused(); n++ {
		if n == 10_000 {
			return errors.New("armed crash never fired")
		}
	}
	for deadline := time.Now().Add(30 * time.Second); refused(); {
		if time.Now().After(deadline) {
			return errors.New("server did not resume within 30 s of the crash")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (e *kvEnv) peakRSSMB() (float64, error) { return peakRSSMB(e.cmd.Process.Pid) }

// discard kills a child that has served nothing and waits for it. SIGTERM
// would not do: the server installs its handler just after it announces
// its address, and a signal that lands in between ends it with an error.
func (e *kvEnv) discard() {
	for _, c := range e.conns {
		c.close()
	}
	_ = e.cmd.Process.Kill()
	<-e.tail
	_ = e.cmd.Wait()
}

// close stops the child with SIGTERM, waits for it, and fails if it
// restarted more often than crashes were injected or did not say.
func (e *kvEnv) close() error {
	for _, c := range e.conns {
		c.close()
	}
	_ = e.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(15*time.Second, func() { _ = e.cmd.Process.Kill() })
	last := <-e.tail
	err := e.cmd.Wait()
	kill.Stop()
	if err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	m := restartsRE.FindStringSubmatch(last)
	if m == nil {
		return fmt.Errorf("server shutdown line missing, last output %q", last)
	}
	if n, _ := strconv.Atoi(m[1]); n != e.crashesInjected {
		return fmt.Errorf("server reports %d restarts, %d crashes were injected", n, e.crashesInjected)
	}
	return nil
}
