// Package plog provides the persistent log primitive shared by the
// failure-atomicity engines: a variable-size-entry data log, used as PMDK's
// and Atlas's undo log, Clobber-NVM's clobber_log, and Mnemosyne's redo log.
// (Allocations and frees are not logged here: every engine reserves them on
// its slot's pmem.Tx, whose redo record commits with the transaction.)
//
// The paper builds clobber_log over PMDK's undo-log API on purpose ("this
// design choice leaves Clobber-NVM's clobber_log very simple"); sharing one
// log subsystem across engines reproduces that structure and guarantees the
// engines differ only in *what* they log, never in how efficiently they log
// it.
//
// Entries are validated by sequence number and checksum rather than by a
// persistent count, so appending an entry costs exactly one flush set plus
// one fence (or zero fences for best-effort logs), and a group of entries
// that no fence separates costs one fence for the group. A scan stops at the
// first entry whose checksum or sequence number does not match, which makes
// torn tail entries invisible — the same trick PMDK's ulog uses.
package plog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/txn"
)

// Pool is the pool interface the logs require.
type Pool interface {
	Load(addr uint64, buf []byte)
	Load64(addr uint64) uint64
	Store(addr uint64, data []byte)
	Store64(addr uint64, v uint64)
	Flush(addr, n uint64)
	// FlushOpt is the weakly ordered flush: durable only after the next
	// Fence. Log appends use it because a fence always follows — per
	// entry for undo discipline, at commit for redo discipline.
	FlushOpt(addr, n uint64)
	Fence()
	Persist(addr, n uint64)
	// Size bounds attach-time validation of persistent offsets.
	Size() uint64
}

// ErrLogFull reports that a transaction outgrew its log area.
var ErrLogFull = errors.New("plog: log capacity exceeded")

const (
	dataLogMagic = 0x444c4f47 // "DLOG"
	// dataLogMagicLine marks a data log formatted for the cache-line
	// write-combined writer. A distinct magic makes the mode a durable
	// property of the log itself: AttachDataLog auto-detects it, so the
	// crash-rebuild path needs no restated flag.
	dataLogMagicLine = 0x4c4c4f47 // "LLOG"

	entryHeaderSize  = 24 // seq(8) addr(8) len(4) group(4)
	entryTrailerSize = 8  // checksum

	// Line-writer layout: every 64-byte line carries 56 bytes (7 words) of
	// packed entry stream plus one trailing validity word, so a line is
	// self-validating at scan time — no separate commit record, no trailer
	// checksum, one streaming Store+FlushOpt per line.
	lineDataBytes   = LineSize - 8 // stream bytes per line
	lineValidityOff = lineDataBytes
	// Packed line-entry header: addr<<24 | len in one word. 24-bit length
	// (16 MiB, comfortably above any per-transaction undo/redo image) and
	// 40-bit address (1 TiB pool offset) bound what the line writer can
	// log; the admission check rejects anything larger up front.
	maxLineEntryLen  = 1<<24 - 1
	maxLineEntryAddr = 1<<40 - 1
	lineCksumMask    = 1<<56 - 1
)

// checksum mixes the entry header, payload and slot identity.
func checksum(seq, addr uint64, slot uint32, payload []byte) uint64 {
	return entryChecksum(seq, addr, slot, 0, payload)
}

// entryChecksum is checksum with the entry's group tag, mixed in only when
// it is set, so an entry outside a group keeps the checksum it had before
// groups existed.
func entryChecksum(seq, addr uint64, slot, group uint32, payload []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 31
	}
	mix(seq)
	mix(addr)
	mix(uint64(slot))
	if group != 0 {
		mix(uint64(group))
	}
	mix(uint64(len(payload)))
	for i := 0; i+8 <= len(payload); i += 8 {
		mix(binary.LittleEndian.Uint64(payload[i:]))
	}
	var tail [8]byte
	if r := len(payload) % 8; r != 0 {
		copy(tail[:], payload[len(payload)-r:])
		mix(binary.LittleEndian.Uint64(tail[:]))
	}
	return h
}

// lineChecksum is the 56-bit line validity checksum: it binds the line's
// slot, index, owning sequence and exactly the used prefix of its stream
// bytes. Covering only data[:used] (never the whole line) is load-bearing:
// the stream is append-only within a sequence, so when a partially filled
// line is re-emitted with more data and the crash tears the new image, the
// untouched old validity word still validates the previously fenced prefix
// byte-for-byte. Binding the sequence per line stops a torn multi-line
// entry from splicing checksum-valid stale lines of an older transaction
// into its payload.
func lineChecksum(slot uint32, lineIdx, seq uint64, data []byte) uint64 {
	return checksum(seq, lineIdx, slot, data) & lineCksumMask
}

// DataLog is an append-only persistent log of (address, old/new bytes)
// entries belonging to one worker slot.
//
// Two on-media formats share this type. The legacy writer persists each
// entry as header+payload+trailer-checksum at 8-byte alignment. The
// line-writer mode (FormatDataLogLine) packs entries into a 64-byte-aligned
// stream of cache lines, each carrying 56 stream bytes plus a validity
// word, and emits exactly one Store+FlushOpt per touched line.
type DataLog struct {
	pool Pool
	slot uint32
	base uint64 // first entry byte
	cap  uint64 // entry area capacity in bytes

	off uint64 // volatile append offset relative to base
	n   int    // volatile entry count for the current sequence

	// scratch stages an entry (or entry group) so the persistent image is
	// written with a single Store instead of one per field. Reused across
	// appends; grown on demand.
	scratch []byte

	// Line-writer state. area is the first cache-line-aligned byte of the
	// entry stream, lcap its capacity (a multiple of LineSize); both are
	// derived deterministically from base and cap, so attach needs no extra
	// persistent fields. lbuf stages the current line; used counts staged
	// stream bytes, emitted the used value at the line's last emission (so
	// an unchanged tail is never re-flushed), lseq the sequence the current
	// line belongs to.
	line    bool
	area    uint64
	lcap    uint64
	lineIdx uint64
	used    int
	emitted int
	lseq    uint64
	lbuf    [LineSize]byte
}

// DataLogSize returns the pool bytes needed for a data log with the given
// entry-area capacity.
func DataLogSize(capacity uint64) uint64 { return 16 + capacity }

// FormatDataLogMode formats a data log in either writer mode: line selects
// the write-combined line writer over the legacy entry-at-a-time format.
// Engines thread their Options.LineLog through here so the choice lives in
// one place; attach never needs it (the magic records the mode).
func FormatDataLogMode(p Pool, slot int, base, capacity uint64, line bool) *DataLog {
	if line {
		return FormatDataLogLine(p, slot, base, capacity)
	}
	return FormatDataLog(p, slot, base, capacity)
}

// FormatDataLog initializes a data log at base (pool space obtained by the
// caller, DataLogSize(capacity) bytes).
func FormatDataLog(p Pool, slot int, base, capacity uint64) *DataLog {
	p.Store64(base, dataLogMagic)
	p.Store64(base+8, capacity)
	p.Persist(base, 16)
	return &DataLog{pool: p, slot: uint32(slot), base: base + 16, cap: capacity}
}

// FormatDataLogLine initializes a data log in line-writer mode: entries are
// packed through a cache-line staging buffer and persisted one streaming
// Store+FlushOpt per 64-byte line, each line self-validated by its trailing
// validity word instead of a per-entry trailer checksum. The mode is
// recorded in the log's magic, so AttachDataLog reopens it without flags.
func FormatDataLogLine(p Pool, slot int, base, capacity uint64) *DataLog {
	p.Store64(base, dataLogMagicLine)
	p.Store64(base+8, capacity)
	p.Persist(base, 16)
	l := &DataLog{pool: p, slot: uint32(slot), base: base + 16, cap: capacity, line: true}
	l.area, l.lcap = lineArea(l.base, capacity)
	return l
}

// lineArea derives the cache-line-aligned stream region inside the entry
// area [base16, base16+capacity). Purely arithmetic, so format and attach
// always agree without persisting anything beyond the header.
func lineArea(base16, capacity uint64) (area, lcap uint64) {
	area = (base16 + LineSize - 1) &^ (LineSize - 1)
	if end := base16 + capacity; end > area {
		lcap = (end - area) &^ (LineSize - 1)
	}
	return area, lcap
}

// AttachDataLog opens a previously formatted data log. The header and the
// capacity it declares are validated against the pool bounds before any
// entry is touched: on arbitrary bytes the result is an error wrapping
// txn.ErrCorruptLog, never a panic. The writer mode (legacy or line) is
// read back from the magic.
func AttachDataLog(p Pool, slot int, base uint64) (*DataLog, error) {
	if base+16 > p.Size() || base+16 < base {
		return nil, fmt.Errorf("%w: data log header at %#x outside pool", txn.ErrCorruptLog, base)
	}
	magic := p.Load64(base)
	if magic != dataLogMagic && magic != dataLogMagicLine {
		return nil, fmt.Errorf("%w: no data log at %#x", txn.ErrCorruptLog, base)
	}
	capacity := p.Load64(base + 8)
	if end := base + 16 + capacity; end > p.Size() || end < base {
		return nil, fmt.Errorf("%w: data log at %#x declares capacity %#x beyond pool", txn.ErrCorruptLog, base, capacity)
	}
	l := &DataLog{pool: p, slot: uint32(slot), base: base + 16, cap: capacity}
	if magic == dataLogMagicLine {
		l.line = true
		l.area, l.lcap = lineArea(l.base, capacity)
	}
	return l, nil
}

// LineWriter reports whether the log uses the cache-line write-combined
// format.
func (l *DataLog) LineWriter() bool { return l.line }

// Reset prepares the log for a new transaction sequence. Old entries are
// implicitly invalidated by the sequence-number check (legacy) or the
// per-line sequence binding in the validity checksum (line mode).
func (l *DataLog) Reset() {
	l.off = 0
	l.n = 0
	if l.line {
		l.lineIdx, l.used, l.emitted, l.lseq = 0, 0, 0, 0
		l.lbuf = [LineSize]byte{}
	}
}

// EntryCount returns the number of entries appended since Reset.
func (l *DataLog) EntryCount() int { return l.n }

// AppendOptions controls durability of an append.
type AppendOptions struct {
	// NoFence skips the trailing fence (redo logs fence once at commit
	// instead of per entry).
	NoFence bool
	// Group, when nonzero, is the tag GroupTag returned as the caller
	// opened a group: entries appended with NoFence that one fence makes
	// durable together. A crash before that fence can persist any subset
	// of them, so each member carries the tag, and ScanStrict reads a torn
	// member as the end of the log rather than as damage. Line-mode logs
	// ignore it: their scans never convict.
	Group uint32
}

// GroupTag opens a group of appends (see AppendOptions.Group) and returns
// the tag its members carry: the group's start offset in 8-byte words, plus
// one so that no tag is zero. Past 32 GiB of log the tag wraps, which can
// only make ScanStrict more lenient, never convict a healthy log.
func (l *DataLog) GroupTag() uint32 { return uint32((l.off>>3)%(1<<32-1)) + 1 }

// grow returns l.scratch resized to n bytes (reallocating only on growth).
func (l *DataLog) grow(n int) []byte {
	if cap(l.scratch) < n {
		l.scratch = make([]byte, n+n/2)
	}
	return l.scratch[:n]
}

// encode writes one entry image (header, payload, checksum) into buf, which
// must be entryHeaderSize+len(payload)+entryTrailerSize bytes.
func (l *DataLog) encode(buf []byte, seq, addr uint64, group uint32, payload []byte) {
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[8:], addr)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:], group)
	copy(buf[entryHeaderSize:], payload)
	binary.LittleEndian.PutUint64(buf[entryHeaderSize+len(payload):], entryChecksum(seq, addr, l.slot, group, payload))
}

// Append logs payload for persistent address addr under sequence seq.
// The entry is staged in a volatile buffer and written with a single Store,
// then flushed; unless opts.NoFence, a fence orders it before any subsequent
// store (undo discipline: log must be durable before the data write it
// protects). Returns the number of log bytes consumed.
//
// The staged image includes a zeroed sequence word where the NEXT entry's
// header will go. Without it, a sequence number reused after Reset could
// resurrect stale entries: a scan of the reused sequence that walks past the
// fresh tail would keep accepting old same-sequence entries whose offsets
// happen to line up. The terminator makes every append leave a durable
// end-of-log marker, so capacity admission also reserves those 8 bytes.
func (l *DataLog) Append(seq, addr uint64, payload []byte, opts AppendOptions) (int, error) {
	raw := entryHeaderSize + len(payload) + entryTrailerSize
	need := (uint64(raw) + 7) &^ 7 // 8-byte alignment for the next header
	if l.line {
		return l.appendLine(seq, addr, payload, opts)
	}
	if l.off+need+8 > l.cap {
		return 0, fmt.Errorf("%w: need %d, %d free", ErrLogFull, need+8, l.cap-l.off)
	}
	at := l.base + l.off
	p := l.pool
	buf := l.grow(int(need) + 8)
	l.encode(buf, seq, addr, opts.Group, payload)
	for i := raw; i < len(buf); i++ {
		buf[i] = 0 // alignment pad + next-header terminator
	}
	p.Store(at, buf)
	p.FlushOpt(at, need+8)
	if !opts.NoFence {
		p.Fence()
	}
	l.off += need
	l.n++
	return raw, nil
}

// BatchEntry is one record of a batched append.
type BatchEntry struct {
	Addr uint64
	Data []byte
}

// AppendBatch logs every entry under sequence seq as one group: a single
// bounds check, one staged Store covering the whole group, one flush of the
// covered lines (adjacent entries share line flushes instead of re-issuing
// them), and — unless opts.NoFence — one trailing fence for the group. This
// is the commit path for redo-style engines, which need the entire write set
// durable before applying it but have no per-entry ordering requirement.
// Returns the number of log bytes consumed.
func (l *DataLog) AppendBatch(seq uint64, entries []BatchEntry, opts AppendOptions) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	if l.line {
		return l.appendBatchLine(seq, entries, opts)
	}
	total := uint64(0)
	for _, e := range entries {
		total += (uint64(entryHeaderSize+len(e.Data)+entryTrailerSize) + 7) &^ 7
	}
	if l.off+total+8 > l.cap {
		return 0, fmt.Errorf("%w: need %d, %d free", ErrLogFull, total+8, l.cap-l.off)
	}
	at := l.base + l.off
	buf := l.grow(int(total) + 8)
	pos := 0
	for _, e := range entries {
		raw := entryHeaderSize + len(e.Data) + entryTrailerSize
		l.encode(buf[pos:pos+raw], seq, e.Addr, 0, e.Data)
		padded := (raw + 7) &^ 7
		for i := pos + raw; i < pos+padded; i++ {
			buf[i] = 0
		}
		pos += padded
	}
	for i := pos; i < len(buf); i++ {
		buf[i] = 0 // next-header terminator (see Append)
	}
	p := l.pool
	p.Store(at, buf)
	p.FlushOpt(at, total+8)
	if !opts.NoFence {
		p.Fence()
	}
	l.off += total
	l.n += len(entries)
	return int(total), nil
}

// --- Line writer ------------------------------------------------------------

// lineEntryWords returns the stream words one packed entry occupies: one
// header word plus the payload rounded up to whole words.
func lineEntryWords(payloadLen int) uint64 { return 1 + (uint64(payloadLen)+7)/8 }

// lineRoom admission-checks one entry against the stream capacity, applying
// the same placement rule stageEntry will: a sequence change seals the
// current line and starts the entry on a fresh one; otherwise entries
// stream contiguously, straddling line boundaries freely. It returns the
// entry's stream words, or ErrLogFull.
func (l *DataLog) lineRoom(li uint64, used int, seq, lseq, addr uint64, payloadLen int) (words, endLi uint64, endUsed int, err error) {
	if payloadLen > maxLineEntryLen {
		return 0, 0, 0, fmt.Errorf("%w: line-writer entry payload %d exceeds %d bytes", ErrLogFull, payloadLen, maxLineEntryLen)
	}
	if addr > maxLineEntryAddr {
		return 0, 0, 0, fmt.Errorf("%w: line-writer entry address %#x exceeds 40 bits", ErrLogFull, addr)
	}
	words = lineEntryWords(payloadLen)
	if used > 0 && lseq != seq {
		li, used = li+1, 0
	}
	end := li*lineDataBytes + uint64(used) + words*8
	if needLines := (end + lineDataBytes - 1) / lineDataBytes; needLines*LineSize > l.lcap {
		return 0, 0, 0, fmt.Errorf("%w: line writer needs %d lines, %d available", ErrLogFull, needLines, l.lcap/LineSize)
	}
	return words, end / lineDataBytes, int(end % lineDataBytes), nil
}

// emitLine persists the current line image: validity word written into the
// staging buffer, one Store of the full 64-byte line, one FlushOpt. The
// validity checksum covers only data[:used], so a later torn re-emission of
// the same line still validates the previously fenced prefix under the old
// validity word.
func (l *DataLog) emitLine() {
	v := uint64(l.used) | lineChecksum(l.slot, l.lineIdx, l.lseq, l.lbuf[:l.used])<<8
	binary.LittleEndian.PutUint64(l.lbuf[lineValidityOff:], v)
	at := l.area + l.lineIdx*LineSize
	l.pool.Store(at, l.lbuf[:])
	l.pool.FlushOpt(at, LineSize)
	l.emitted = l.used
}

// emitPartial emits the current line only if it holds staged bytes that were
// not covered by its last emission.
func (l *DataLog) emitPartial() {
	if l.used > 0 && l.used != l.emitted {
		l.emitLine()
	}
}

// advanceLine moves staging to the next line. The buffer is cleared so the
// unused suffix of every emitted line is deterministically zero.
func (l *DataLog) advanceLine() {
	l.lineIdx++
	l.used, l.emitted = 0, 0
	l.lbuf = [LineSize]byte{}
}

// stageWord appends one 8-byte word (b may be shorter; zero-padded) to the
// stream, emitting and advancing when the line fills.
func (l *DataLog) stageWord(b []byte) {
	copy(l.lbuf[l.used:l.used+8], b)
	l.used += 8
	if l.used == lineDataBytes {
		l.emitLine()
		l.advanceLine()
	}
}

// stageEntry packs one entry into the stream. Entries stream contiguously
// and may straddle line boundaries; each full line is emitted as it
// completes, and the partial tail is emitted once per append/batch. A
// mid-stream line is therefore always full, which is what lets the scanner
// treat any partial line as the end of the stream — the one invariant that
// keeps a torn re-emission from splicing stale successor lines into the
// durable prefix.
func (l *DataLog) stageEntry(seq, addr uint64, payload []byte) {
	if l.used > 0 && l.lseq != seq {
		// A line belongs to exactly one sequence (the validity checksum
		// binds it); a new sequence starts on a fresh line. The sealed
		// partial line correctly terminates the old sequence's stream.
		l.emitPartial()
		l.advanceLine()
	}
	l.lseq = seq
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], addr<<24|uint64(len(payload)))
	l.stageWord(w[:])
	for i := 0; i < len(payload); i += 8 {
		end := i + 8
		if end > len(payload) {
			end = len(payload)
		}
		w = [8]byte{}
		copy(w[:], payload[i:end])
		l.stageWord(w[:])
	}
}

// terminateLineFrontier durably bounds the stream when an append ends
// exactly on a line boundary: the next line's validity word is zeroed so a
// scan can never run past the frontier into a stale same-sequence line (the
// line-mode analogue of the legacy writer's next-header terminator). When
// the append ends mid-line, the partial tail's own validity word already
// stops the scan before any stale successor is read.
func (l *DataLog) terminateLineFrontier() {
	if l.used != 0 || (l.lineIdx+1)*LineSize > l.lcap {
		return
	}
	at := l.area + l.lineIdx*LineSize + lineValidityOff
	l.pool.Store64(at, 0)
	l.pool.FlushOpt(at, 8)
}

// appendLine is Append for line mode: stage the entry through the line
// buffer, emit every touched line with one Store+FlushOpt, and fence unless
// opts.NoFence. Returns the stream bytes consumed.
func (l *DataLog) appendLine(seq, addr uint64, payload []byte, opts AppendOptions) (int, error) {
	words, _, _, err := l.lineRoom(l.lineIdx, l.used, seq, l.lseq, addr, len(payload))
	if err != nil {
		return 0, err
	}
	l.stageEntry(seq, addr, payload)
	l.emitPartial()
	l.terminateLineFrontier()
	if !opts.NoFence {
		l.pool.Fence()
	}
	l.n++
	return int(words * 8), nil
}

// appendBatchLine is AppendBatch for line mode: all entries are staged
// before the tail line is emitted once, so adjacent entries share line
// emissions, and at most one fence covers the group.
func (l *DataLog) appendBatchLine(seq uint64, entries []BatchEntry, opts AppendOptions) (int, error) {
	// Admission-check the whole batch against a simulated cursor before any
	// store, so a failed batch leaves the log untouched.
	li, used, lseq := l.lineIdx, l.used, l.lseq
	total := uint64(0)
	for _, e := range entries {
		words, endLi, endUsed, err := l.lineRoom(li, used, seq, lseq, e.Addr, len(e.Data))
		if err != nil {
			return 0, err
		}
		li, used, lseq = endLi, endUsed, seq
		total += words * 8
	}
	for _, e := range entries {
		l.stageEntry(seq, e.Addr, e.Data)
	}
	l.emitPartial()
	l.terminateLineFrontier()
	if !opts.NoFence {
		l.pool.Fence()
	}
	l.n += len(entries)
	return int(total), nil
}

// Invalidate durably destroys the log's first entry so no sequence scans
// anything until the next Reset+Append cycle. Engines whose sequence numbers
// can be reused across crashed attempts (redo logs, which do not persist a
// begin record) call this during recovery. In line mode the first line's
// validity word is zeroed instead — every scan starts at line zero, so a
// dead validity word there blanks the whole log.
func (l *DataLog) Invalidate() {
	if l.line {
		if l.lcap >= LineSize {
			l.pool.Store64(l.area+lineValidityOff, 0)
			l.pool.Persist(l.area+lineValidityOff, 8)
		}
		l.lineIdx, l.used, l.emitted, l.lseq = 0, 0, 0, 0
		l.lbuf = [LineSize]byte{}
		l.off, l.n = 0, 0
		return
	}
	var zero [entryHeaderSize]byte
	l.pool.Store(l.base, zero[:])
	l.pool.Persist(l.base, entryHeaderSize)
	l.off = 0
	l.n = 0
}

// Entry is a decoded log record.
type Entry struct {
	Addr uint64
	Data []byte
}

// Scan returns, in append order, all valid entries carrying sequence seq,
// stopping at the first invalid or mismatching entry. Scan reads the
// persistent image, so it works after a crash and reopen.
func (l *DataLog) Scan(seq uint64) []Entry {
	if l.line {
		return l.scanLines(seq)
	}
	out, _ := l.scanFrom(seq)
	return out
}

// scanLines reconstructs the packed entry stream for seq from the line
// image: lines validate against their validity word (used count + checksum
// bound to slot, line index and sequence), a torn or stale line reads as
// invalid and stops the scan, and a partial line is by construction the
// stream's tail. A trailing entry whose payload words were cut off by a
// crash mid-append is dropped — its fence never completed, so it was never
// promised durable.
func (l *DataLog) scanLines(seq uint64) []Entry {
	p := l.pool
	var stream []byte
	var buf [LineSize]byte
	for li := uint64(0); (li+1)*LineSize <= l.lcap; li++ {
		p.Load(l.area+li*LineSize, buf[:])
		v := binary.LittleEndian.Uint64(buf[lineValidityOff:])
		used := int(v & 0xff)
		if used == 0 || used > lineDataBytes || used%8 != 0 {
			break
		}
		if v>>8 != lineChecksum(l.slot, li, seq, buf[:used]) {
			break
		}
		stream = append(stream, buf[:used]...)
		if used < lineDataBytes {
			break // a partial line is always the stream's tail
		}
	}
	var out []Entry
	for pos := 0; pos+8 <= len(stream); {
		hv := binary.LittleEndian.Uint64(stream[pos:])
		plen := int(hv & maxLineEntryLen)
		payloadWords := int((uint64(plen) + 7) / 8)
		if pos+8+payloadWords*8 > len(stream) {
			break // torn trailing entry: header durable, payload cut off
		}
		data := make([]byte, plen)
		copy(data, stream[pos+8:pos+8+plen])
		out = append(out, Entry{Addr: hv >> 24, Data: data})
		pos += 8 + payloadWords*8
	}
	return out
}

// scanFrom is Scan plus the offset the scan stopped at.
func (l *DataLog) scanFrom(seq uint64) ([]Entry, uint64) {
	var out []Entry
	p := l.pool
	off := uint64(0)
	var hdr [entryHeaderSize]byte
	for off+entryHeaderSize+entryTrailerSize <= l.cap {
		at := l.base + off
		p.Load(at, hdr[:])
		eseq := binary.LittleEndian.Uint64(hdr[0:])
		addr := binary.LittleEndian.Uint64(hdr[8:])
		plen := uint64(binary.LittleEndian.Uint32(hdr[16:]))
		group := binary.LittleEndian.Uint32(hdr[20:])
		if eseq != seq || off+entryHeaderSize+plen+entryTrailerSize > l.cap {
			break
		}
		payload := make([]byte, plen)
		p.Load(at+entryHeaderSize, payload)
		want := p.Load64(at + entryHeaderSize + plen)
		if want != entryChecksum(eseq, addr, l.slot, group, payload) {
			break
		}
		out = append(out, Entry{Addr: addr, Data: payload})
		off += (entryHeaderSize + plen + entryTrailerSize + 7) &^ 7
	}
	return out, off
}

// ScanStrict is Scan with corruption detection for fence-ordered logs (every
// entry, or every group of entries, fenced before the next append starts).
// Under that discipline the only invalid entry a crash can produce lies in
// the last, unfenced append: nothing valid can exist beyond the first
// invalid entry except members of that entry's own group. ScanStrict probes
// past the stop point, and if it finds a complete valid entry for the same
// sequence that is no member of a group open at the stop point, it reports
// txn.ErrCorruptLog — the prefix was damaged after being fenced. It must
// NOT be used on best-effort logs (unfenced appends outside groups), where
// eviction luck makes a valid-after-invalid pattern legitimate.
func (l *DataLog) ScanStrict(seq uint64) ([]Entry, error) {
	if l.line {
		// Line mode appends with FlushOpt per line, so eviction luck can
		// persist a later line of an in-flight multi-line emission without
		// an earlier one — valid-after-invalid is a legitimate crash state,
		// not corruption, and every line already self-detects tearing via
		// its validity word. Strict scanning therefore degenerates to Scan.
		return l.scanLines(seq), nil
	}
	out, stop := l.scanFrom(seq)
	p := l.pool
	var hdr [entryHeaderSize]byte
	// If the entry at the stop point has a plausible header — matching
	// sequence and an in-bounds length — treat its full extent as the torn
	// region and resume probing after it. Probing from stop+8 would walk
	// 8-byte-aligned offsets inside the torn entry's own payload, where
	// stale bytes of an earlier same-sequence entry can still form a
	// checksum-valid image and convict a healthy slot of corruption.
	probe := stop + 8
	if stop+entryHeaderSize+entryTrailerSize <= l.cap {
		p.Load(l.base+stop, hdr[:])
		if binary.LittleEndian.Uint64(hdr[0:]) == seq {
			plen := uint64(binary.LittleEndian.Uint32(hdr[16:]))
			if stop+entryHeaderSize+plen+entryTrailerSize <= l.cap {
				probe = stop + (entryHeaderSize+plen+entryTrailerSize+7)&^7
			}
		}
	}
	// Headers are 8-byte aligned; the torn entry's length field may itself
	// be garbage, so probe every aligned offset beyond the torn extent.
	for off := probe; off+entryHeaderSize+entryTrailerSize <= l.cap; off += 8 {
		at := l.base + off
		p.Load(at, hdr[:])
		eseq := binary.LittleEndian.Uint64(hdr[0:])
		if eseq != seq {
			continue
		}
		addr := binary.LittleEndian.Uint64(hdr[8:])
		plen := uint64(binary.LittleEndian.Uint32(hdr[16:]))
		group := binary.LittleEndian.Uint32(hdr[20:])
		if off+entryHeaderSize+plen+entryTrailerSize > l.cap {
			continue
		}
		payload := make([]byte, plen)
		p.Load(at+entryHeaderSize, payload)
		if p.Load64(at+entryHeaderSize+plen) != entryChecksum(eseq, addr, l.slot, group, payload) {
			continue
		}
		if group != 0 && uint64(group-1)<<3 <= stop {
			// A member of the group the torn entry belongs to: no fence
			// separated them, so the crash was free to keep this one.
			continue
		}
		return out, fmt.Errorf("%w: data log slot %d: valid entry for seq %d at offset %#x beyond torn entry at %#x",
			txn.ErrCorruptLog, l.slot, seq, off, stop)
	}
	return out, nil
}

// Alignment sanity: headers stay 8-byte aligned so torn-write detection at
// word granularity holds.
var _ = func() struct{} {
	if entryHeaderSize%8 != 0 {
		panic("plog: misaligned entry layout")
	}
	if DataLogSize(0)%8 != 0 {
		panic("plog: misaligned log header")
	}
	return struct{}{}
}()

// LineSize re-exports the simulated cache-line size for capacity planning.
const LineSize = nvm.LineSize
