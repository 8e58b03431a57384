package memcache

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clobbernvm/internal/txn"
)

// acceptBackoffMin/Max bound the retry delay after a temporary Accept
// failure (EMFILE, ECONNABORTED, ...). The delay doubles per consecutive
// failure and resets on the next successful accept — the discipline
// net/http.Server uses, so a file-descriptor spike degrades service instead
// of silently killing the listener.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Default connection-lifecycle bounds. The idle timeout caps how long a
// silent client may pin a handler goroutine; the drain timeout caps how long
// Close waits for in-flight sessions to finish before force-closing their
// connections.
const (
	DefaultIdleTimeout  = 2 * time.Minute
	DefaultDrainTimeout = 1 * time.Second
)

// ServerOption configures a Server at construction time.
type ServerOption func(*Server)

// WithIdleTimeout bounds the gap between a connection's reads (and the
// duration of any single write). A connection idle longer than d is closed
// and its handler goroutine released. d <= 0 disables the deadline, restoring
// the historical stall-forever behaviour.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithDrainTimeout bounds how long Close waits for in-flight sessions to
// finish their current command before force-closing connections. d <= 0
// force-closes immediately.
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.drainTimeout = d }
}

// Server accepts memcached text-protocol connections and serves them from a
// Backend. Each connection is assigned a worker slot round-robin.
type Server struct {
	backend Backend
	ln      net.Listener

	nextSlot atomic.Int64
	slots    int

	idleTimeout  time.Duration
	drainTimeout time.Duration

	// AcceptRetries counts temporary Accept errors survived via backoff.
	AcceptRetries atomic.Int64

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	done     chan struct{}
	closing  sync.Once
	closeErr error

	// handlers tracks live per-connection goroutines so Close can drain
	// them instead of abandoning conns mid-reply.
	handlers sync.WaitGroup
}

// NewServer starts listening on addr (e.g. "127.0.0.1:0").
func NewServer(backend Backend, addr string, slots int, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerOn(backend, ln, slots, opts...), nil
}

// NewServerOn serves on an existing listener (tests inject failing
// listeners here). The server owns ln and closes it on Close.
func NewServerOn(backend Backend, ln net.Listener, slots int, opts ...ServerOption) *Server {
	if slots <= 0 || slots > txn.MaxSlots {
		slots = 8
	}
	s := &Server{
		backend:      backend,
		ln:           ln,
		slots:        slots,
		idleTimeout:  DefaultIdleTimeout,
		drainTimeout: DefaultDrainTimeout,
		conns:        map[net.Conn]struct{}{},
		done:         make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// idleConn arms a fresh deadline before every read and write, so the
// effective contract is "no single silent gap longer than idle" rather than
// a whole-connection lifetime bound. A deadline miss surfaces as a timeout
// error from the pending Read/Write, ending the session.
type idleConn struct {
	net.Conn
	idle time.Duration
}

func (c idleConn) Read(p []byte) (int, error) {
	_ = c.Conn.SetReadDeadline(time.Now().Add(c.idle))
	return c.Conn.Read(p)
}

func (c idleConn) Write(p []byte) (int, error) {
	_ = c.Conn.SetWriteDeadline(time.Now().Add(c.idle))
	return c.Conn.Write(p)
}

func (s *Server) acceptLoop() {
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Temporary errors (EMFILE, ECONNABORTED) clear on their own;
			// retry with capped exponential backoff. Anything else means
			// the listener is gone.
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				if backoff == 0 {
					backoff = acceptBackoffMin
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				s.AcceptRetries.Add(1)
				select {
				case <-s.done:
					return
				case <-time.After(backoff):
				}
				continue
			}
			return
		}
		backoff = 0
		s.mu.Lock()
		select {
		case <-s.done:
			// Raced with Close after it swept the conns map: don't leak a
			// connection Close can no longer see.
			s.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		slot := int(s.nextSlot.Add(1)) % s.slots
		s.handlers.Add(1)
		go func() {
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.handlers.Done()
			}()
			var rw interface {
				Read(p []byte) (int, error)
				Write(p []byte) (int, error)
			} = conn
			if s.idleTimeout > 0 {
				rw = idleConn{Conn: conn, idle: s.idleTimeout}
			}
			_ = NewSession(s.backend, slot, rw, rw).Serve()
		}()
	}
}

// Close stops accepting, lets in-flight sessions drain for the configured
// drain window, then force-closes the remaining connections and waits for
// their handlers to exit. Safe to call more than once. The drain covers
// sessions only: a connection not yet accepted when Close begins — still in
// the kernel's accept queue, or returned by Accept as the listener closes —
// is refused, and its client sees a reset.
func (s *Server) Close() error {
	s.closing.Do(func() {
		close(s.done)
		s.closeErr = s.ln.Close()

		drained := make(chan struct{})
		go func() {
			s.handlers.Wait()
			close(drained)
		}()
		if s.drainTimeout > 0 {
			select {
			case <-drained:
				return
			case <-time.After(s.drainTimeout):
			}
		}
		// Drain window expired: yank the remaining connections out from
		// under their sessions. The pending Read/Write errors out and each
		// handler exits promptly, so this second wait is short.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-drained
	})
	return s.closeErr
}
