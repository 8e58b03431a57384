package chaos

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// keyState is the client-side oracle for one key: the last acknowledged
// outcome plus the set of unacknowledged outcomes still in flight since that
// ack. The audit accepts exactly these — an acked value must be visible
// (durability-at-ack), an unacked value may have landed or not, and nothing
// else is legal.
//
// Collapsing candidates on the next ack is sound because re-execution of an
// interrupted transaction happens *inside* the recovery boundary: by the
// time any later operation on the key is acknowledged, every earlier
// either-way outcome has already been resolved and overwritten.
type keyState struct {
	// ackedLive/acked: the last acknowledged write. ackedLive=false means
	// the last ack was a delete (or the key has never been acked), so
	// "absent" is the acked outcome.
	ackedLive bool
	acked     []byte
	// candidates are values of unacked sets since the last ack;
	// candidateAbsent records an unacked delete.
	candidates      [][]byte
	candidateAbsent bool
}

func (st *keyState) ackSet(v []byte) {
	st.ackedLive, st.acked = true, v
	st.candidates, st.candidateAbsent = nil, false
}

func (st *keyState) ackGone() {
	st.ackedLive, st.acked = false, nil
	st.candidates, st.candidateAbsent = nil, false
}

func (st *keyState) pendSet(v []byte) { st.candidates = append(st.candidates, v) }
func (st *keyState) pendDelete()      { st.candidateAbsent = true }

// allows reports whether an observed read (found/val) is a legal outcome.
func (st *keyState) allows(found bool, val []byte) bool {
	if found {
		if st.ackedLive && bytes.Equal(val, st.acked) {
			return true
		}
		for _, c := range st.candidates {
			if bytes.Equal(val, c) {
				return true
			}
		}
		return false
	}
	return !st.ackedLive || st.candidateAbsent
}

// allowed renders the legal outcome set for violation messages.
func (st *keyState) allowed() string {
	var out []string
	if st.ackedLive {
		out = append(out, fmt.Sprintf("acked %q", st.acked))
	}
	if !st.ackedLive || st.candidateAbsent {
		out = append(out, "absent")
	}
	for _, c := range st.candidates {
		out = append(out, fmt.Sprintf("unacked %q", c))
	}
	return strings.Join(out, " | ")
}

// anomaly is a client-observed breach, stamped with the round by the driver.
type anomaly struct {
	key    string
	detail string
}

// client is one synchronous memcached text-protocol client with a disjoint
// keyspace. At most one operation is ever in flight, so at a crash instant
// each client contributes at most one either-way outcome — the property
// that keeps the oracle exact.
type client struct {
	id    int
	addr  string
	rng   *rand.Rand
	keys  int
	seq   int64
	conn  net.Conn
	r     *bufio.Reader
	model map[string]*keyState

	acked, unacked, rejected int64
	anomalies                []anomaly
}

func newClient(id int, addr string, keys int, rng *rand.Rand) *client {
	return &client{id: id, addr: addr, keys: keys, rng: rng, model: map[string]*keyState{}}
}

// loop issues operations until stop; the driver owns synchronization, so
// model and counters are only read after the loop's goroutine has joined.
func (c *client) loop(stop *atomic.Bool) {
	for !stop.Load() {
		if !c.dial() {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c.step()
	}
}

// dial connects the client if it is not connected, reporting success.
func (c *client) dial() bool {
	if c.conn != nil {
		return true
	}
	conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return false
	}
	c.conn, c.r = conn, bufio.NewReader(conn)
	return true
}

// overwriteReread sets the client's first key, reads it back (which fills
// the front cache), overwrites it and reads it again: one pass through the
// front cache's coherence protocol, which a front that misses the write's
// invalidation fails on the spot.
func (c *client) overwriteReread() {
	k := fmt.Sprintf("c%02d-k%03d", c.id, 0)
	for _, op := range []func(string){c.doSet, c.doGet, c.doSet, c.doGet} {
		if !c.dial() {
			return
		}
		op(k)
	}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.r = nil, nil
	}
}

// takeAnomalies drains the client's inline observations, stamped with round.
func (c *client) takeAnomalies(round int) []Violation {
	var out []Violation
	for _, a := range c.anomalies {
		out = append(out, Violation{Round: round, Key: a.key, Detail: a.detail})
	}
	c.anomalies = nil
	return out
}

func (c *client) key() string {
	return fmt.Sprintf("c%02d-k%03d", c.id, c.rng.Intn(c.keys))
}

func (c *client) state(k string) *keyState {
	st := c.model[k]
	if st == nil {
		st = &keyState{}
		c.model[k] = st
	}
	return st
}

func (c *client) step() {
	k := c.key()
	switch r := c.rng.Intn(10); {
	case r < 6:
		c.doSet(k)
	case r < 8:
		c.doGet(k)
	default:
		c.doDelete(k)
	}
}

// send writes one command and returns the first reply line. ok=false means
// the exchange died mid-flight — the server may or may not have executed the
// command, so the caller must record an either-way outcome.
func (c *client) send(cmd string) (string, bool) {
	c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c.conn, cmd); err != nil {
		return "", false
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", false
	}
	return strings.TrimRight(line, "\r\n"), true
}

// classifyReply maps a write-command reply onto the oracle transition:
// ackOK for the success line, the exact "recovering" rejection for a
// provably-unexecuted fail-fast (no model change), and the interrupted
// suffix for the either-way case.
const (
	replyRejected    = "SERVER_ERROR recovering"
	replyInterrupted = "SERVER_ERROR recovering (crash interrupted)"
)

func (c *client) doSet(k string) {
	c.seq++
	v := []byte(fmt.Sprintf("v%02d.%06d", c.id, c.seq))
	st := c.state(k)
	line, ok := c.send(fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", k, len(v), v))
	if !ok {
		st.pendSet(v)
		c.unacked++
		c.close()
		return
	}
	switch line {
	case "STORED":
		st.ackSet(v)
		c.acked++
	case replyRejected:
		c.rejected++
		time.Sleep(time.Millisecond)
	case replyInterrupted:
		st.pendSet(v)
		c.unacked++
	default:
		c.anomalies = append(c.anomalies, anomaly{k, fmt.Sprintf("set reply %q", line)})
	}
}

func (c *client) doDelete(k string) {
	st := c.state(k)
	line, ok := c.send(fmt.Sprintf("delete %s\r\n", k))
	if !ok {
		st.pendDelete()
		c.unacked++
		c.close()
		return
	}
	switch line {
	case "DELETED", "NOT_FOUND":
		// Both acknowledge that the key is now absent.
		st.ackGone()
		c.acked++
	case replyRejected:
		c.rejected++
		time.Sleep(time.Millisecond)
	case replyInterrupted:
		st.pendDelete()
		c.unacked++
	default:
		c.anomalies = append(c.anomalies, anomaly{k, fmt.Sprintf("delete reply %q", line)})
	}
}

// doGet reads the key back and checks the observation against the oracle
// inline — reads confer no durability, so the model never changes, but a
// value outside the legal set is a violation the instant it is seen.
func (c *client) doGet(k string) {
	st := c.state(k)
	c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c.conn, "get "+k+"\r\n"); err != nil {
		c.close()
		return
	}
	var val []byte
	found, serverErr := false, false
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			c.close()
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			break
		}
		switch {
		case strings.HasPrefix(line, "VALUE "):
			f := strings.Fields(line)
			n, err := strconv.Atoi(f[3])
			if err != nil || n < 0 {
				c.anomalies = append(c.anomalies, anomaly{k, fmt.Sprintf("bad VALUE line %q", line)})
				c.close()
				return
			}
			buf := make([]byte, n+2)
			if _, err := io.ReadFull(c.r, buf); err != nil {
				c.close()
				return
			}
			val, found = buf[:n], true
		case strings.HasPrefix(line, "SERVER_ERROR"):
			// The reply is still END-terminated; keep draining.
			serverErr = true
		default:
			c.anomalies = append(c.anomalies, anomaly{k, fmt.Sprintf("get reply %q", line)})
			c.close()
			return
		}
	}
	if serverErr {
		c.rejected++
		time.Sleep(time.Millisecond)
		return
	}
	if !st.allows(found, val) {
		c.anomalies = append(c.anomalies, anomaly{k, fmt.Sprintf(
			"read %s, allowed {%s}", observed(found, val), st.allowed())})
	}
}

// observed renders a read outcome for violation messages.
func observed(found bool, val []byte) string {
	if !found {
		return "absent"
	}
	return fmt.Sprintf("%q", val)
}
