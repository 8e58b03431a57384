package memcache

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"clobbernvm/internal/pds"
)

// maxValueBytes is the largest value a set may carry (memcached's classic
// 1 MB item limit).
const maxValueBytes = 1 << 20

// maxDiscardBytes bounds how much of a malformed set's payload the server
// will read and discard to stay in sync with the client before giving up on
// the connection.
const maxDiscardBytes = 8 << 20

// Backend is what a session needs from the store it serves: the cache
// operations the protocol dispatches plus the accessors the stats command
// reads. *Cache implements it directly; *Supervisor implements it with
// fail-fast recovery semantics, so a server can swap a freshly recovered
// cache in under live connections without the protocol layer noticing.
type Backend interface {
	SetFlags(slot int, key, value []byte, flags uint32) error
	Add(slot int, key, value []byte, flags uint32) (bool, error)
	Replace(slot int, key, value []byte, flags uint32) (bool, error)
	GetWithCAS(slot int, key []byte) ([]byte, uint32, uint64, bool, error)
	Delete(slot int, key []byte) (bool, error)
	Len() (int, error)
	Counters() (hits, misses, evictions int64)
	FrontStats() FrontStats
	Engine() pds.Engine
}

// Session serves the memcached text protocol (the subset memslap exercises
// plus the conditional stores: set, add, replace, get, gets, delete, stats,
// quit) over one connection, dispatching to the backend.
type Session struct {
	cache Backend
	slot  int
	r     *bufio.Reader
	w     *bufio.Writer
}

// NewSession wraps a connection's reader/writer. slot is the worker slot
// this session's transactions run on.
func NewSession(cache Backend, slot int, r io.Reader, w io.Writer) *Session {
	return &Session{cache: cache, slot: slot, r: bufio.NewReader(r), w: bufio.NewWriter(w)}
}

// Serve processes commands until EOF, "quit", or a protocol error.
//
// Replies are flushed when the input buffer drains, not per command: a
// client that pipelines N commands gets its N replies in one socket write,
// the way memcached's event loop writes when it stops reading. A client
// is only ever waiting on a reply after sending a complete command, so
// flushing at the would-block point (no buffered input) cannot stall a
// conforming peer.
func (s *Session) Serve() error {
	defer s.w.Flush()
	for {
		if s.r.Buffered() == 0 {
			if err := s.w.Flush(); err != nil {
				return err
			}
		}
		line, err := s.r.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		fields := strings.Fields(strings.TrimRight(line, "\r\n"))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit":
			return nil
		case "version":
			s.reply("VERSION clobbernvm")
		case "stats":
			if err := s.handleStats(); err != nil {
				return err
			}
		case "set", "add", "replace":
			if err := s.handleStore(fields); err != nil {
				return err
			}
		case "get", "gets":
			if err := s.handleGet(fields); err != nil {
				return err
			}
		case "delete":
			if err := s.handleDelete(fields); err != nil {
				return err
			}
		default:
			s.reply("ERROR")
		}
	}
}

func (s *Session) reply(line string) {
	s.w.WriteString(line)
	s.w.WriteString("\r\n")
}

// noreplyAt reports whether fields carries the optional trailing "noreply"
// token at index i. A client that sends noreply pipelines the next command
// immediately and reads no response, so the server must stay silent — even
// for errors — or every later reply is attributed to the wrong command.
func noreplyAt(fields []string, i int) bool {
	return len(fields) > i && fields[i] == "noreply"
}

// replyUnless emits line unless the command asked for no reply.
func (s *Session) replyUnless(noreply bool, line string) {
	if !noreply {
		s.reply(line)
	}
}

// discard consumes n payload bytes plus the trailing CRLF so a rejected set
// leaves the stream positioned at the next command instead of feeding the
// payload back through the command parser. A stream that ends mid-payload
// is a disconnect, not a protocol error: the reply (already queued) still
// reaches the client via the deferred flush, and Serve sees a clean EOF.
func (s *Session) discard(n int) error {
	_, err := io.CopyN(io.Discard, s.r, int64(n)+2)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// handleStore parses the three storage commands, which share a grammar:
// set|add|replace <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
// set stores unconditionally (STORED); add stores only when the key is
// absent and replace only when it is present (STORED/NOT_STORED). The
// flags word is stored and echoed back on get, as real clients expect;
// exptime is parsed but ignored (eviction here is LRU-only).
//
// Error discipline: the payload always follows the command line, so on a bad
// command line the server still consumes <bytes>+2 bytes (when <bytes> is
// parseable) before replying CLIENT_ERROR — otherwise the payload would be
// parsed as commands and the connection would desync.
func (s *Session) handleStore(fields []string) error {
	noreply := noreplyAt(fields, 5)
	if len(fields) < 5 {
		s.replyUnless(noreply, "CLIENT_ERROR bad command line format")
		return nil
	}
	// Parse <bytes> first: knowing the payload length is what lets every
	// later error path leave the stream in sync.
	n, nErr := strconv.Atoi(fields[4])
	if nErr != nil || n < 0 {
		// Length unparseable: the payload boundary is unknown, so the best
		// the server can do is reject the line and hope the client stops.
		s.replyUnless(noreply, "CLIENT_ERROR bad data chunk")
		return nil
	}
	if n > maxValueBytes {
		// Oversized but well-formed: swallow the payload (bounded) so the
		// connection survives, then reject the item.
		if n+2 > maxDiscardBytes {
			s.replyUnless(noreply, "SERVER_ERROR object too large for cache")
			return fmt.Errorf("memcache: set payload %d exceeds discard bound", n)
		}
		s.replyUnless(noreply, "SERVER_ERROR object too large for cache")
		return s.discard(n)
	}

	key := fields[1]
	flags, flagsErr := strconv.ParseUint(fields[2], 10, 32)
	_, expErr := strconv.Atoi(fields[3])
	if flagsErr != nil || expErr != nil {
		s.replyUnless(noreply, "CLIENT_ERROR bad command line format")
		return s.discard(n)
	}

	data := make([]byte, n+2)
	if _, err := io.ReadFull(s.r, data); err != nil {
		return err
	}
	if string(data[n:]) != "\r\n" {
		s.replyUnless(noreply, "CLIENT_ERROR bad data chunk")
		return nil
	}
	var stored bool
	var err error
	switch fields[0] {
	case "add":
		stored, err = s.cache.Add(s.slot, []byte(key), data[:n], uint32(flags))
	case "replace":
		stored, err = s.cache.Replace(s.slot, []byte(key), data[:n], uint32(flags))
	default:
		stored, err = true, s.cache.SetFlags(s.slot, []byte(key), data[:n], uint32(flags))
	}
	if err != nil {
		s.replyUnless(noreply, "SERVER_ERROR "+err.Error())
		return nil
	}
	if stored {
		s.replyUnless(noreply, "STORED")
	} else {
		s.replyUnless(noreply, "NOT_STORED")
	}
	return nil
}

// handleGet parses: get|gets <key> [<key>...]\r\n
// gets VALUE lines carry the 5th cas token; get stays 4-token. The response
// is always END-terminated: a mid-multi-get cache error emits a SERVER_ERROR
// line for the failing key but still closes the response with END, so
// clients that frame multi-get replies by END do not stall.
func (s *Session) handleGet(fields []string) error {
	withCAS := fields[0] == "gets"
	for _, key := range fields[1:] {
		val, flags, cas, found, err := s.cache.GetWithCAS(s.slot, []byte(key))
		if err != nil {
			s.reply("SERVER_ERROR " + err.Error())
			break
		}
		if !found {
			continue
		}
		if withCAS {
			fmt.Fprintf(s.w, "VALUE %s %d %d %d\r\n", key, flags, len(val), cas)
		} else {
			fmt.Fprintf(s.w, "VALUE %s %d %d\r\n", key, flags, len(val))
		}
		s.w.Write(val)
		s.w.WriteString("\r\n")
	}
	s.reply("END")
	return nil
}

// handleStats emits the cache counters plus the persistence engine's
// txn.Stats and the pool's persist-traffic StatsSnapshot, so the paper's
// accounting (log entries/bytes, flush/fence counts) is readable through
// the protocol a memcached operator already speaks.
func (s *Session) handleStats() error {
	n, err := s.cache.Len()
	if err != nil {
		s.reply("SERVER_ERROR " + err.Error())
		return nil
	}
	hits, misses, evictions := s.cache.Counters()
	fmt.Fprintf(s.w, "STAT curr_items %d\r\n", n)
	fmt.Fprintf(s.w, "STAT get_hits %d\r\n", hits)
	fmt.Fprintf(s.w, "STAT get_misses %d\r\n", misses)
	fmt.Fprintf(s.w, "STAT evictions %d\r\n", evictions)
	if fs := s.cache.FrontStats(); fs.Enabled {
		fmt.Fprintf(s.w, "STAT front_hits %d\r\n", fs.Hits)
		fmt.Fprintf(s.w, "STAT front_misses %d\r\n", fs.Misses)
		fmt.Fprintf(s.w, "STAT front_invalidations %d\r\n", fs.Invalidations)
		fmt.Fprintf(s.w, "STAT front_drops %d\r\n", fs.Drops)
	}

	eng := s.cache.Engine()
	fmt.Fprintf(s.w, "STAT engine %s\r\n", eng.Name())
	ts := eng.Stats().Snapshot()
	fmt.Fprintf(s.w, "STAT txn_committed %d\r\n", ts.Committed)
	fmt.Fprintf(s.w, "STAT txn_recovered %d\r\n", ts.Recovered)
	fmt.Fprintf(s.w, "STAT txn_log_entries %d\r\n", ts.LogEntries)
	fmt.Fprintf(s.w, "STAT txn_log_bytes %d\r\n", ts.LogBytes)
	fmt.Fprintf(s.w, "STAT txn_vlog_entries %d\r\n", ts.VLogEntries)
	fmt.Fprintf(s.w, "STAT txn_vlog_bytes %d\r\n", ts.VLogBytes)
	ps := eng.Pool().Stats()
	fmt.Fprintf(s.w, "STAT pool_stores %d\r\n", ps.Stores)
	fmt.Fprintf(s.w, "STAT pool_bytes_stored %d\r\n", ps.BytesStored)
	fmt.Fprintf(s.w, "STAT pool_flushes %d\r\n", ps.Flushes)
	fmt.Fprintf(s.w, "STAT pool_fences %d\r\n", ps.Fences)
	s.reply("END")
	return nil
}

// handleDelete parses: delete <key> [noreply]\r\n
func (s *Session) handleDelete(fields []string) error {
	if len(fields) < 2 {
		s.reply("CLIENT_ERROR bad command line format")
		return nil
	}
	noreply := noreplyAt(fields, 2)
	existed, err := s.cache.Delete(s.slot, []byte(fields[1]))
	if err != nil {
		s.replyUnless(noreply, "SERVER_ERROR "+err.Error())
		return nil
	}
	if existed {
		s.replyUnless(noreply, "DELETED")
	} else {
		s.replyUnless(noreply, "NOT_FOUND")
	}
	return nil
}
