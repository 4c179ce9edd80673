package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"

	"pde/internal/oracle"
)

// Snapshot is one immutable table generation: everything a frame needs
// to validate, answer and stamp its queries. internal/server's *shard
// satisfies it; validation and answering always use the one Snapshot the
// handler loaded for that frame, so a hot-swap mid-stream can never
// produce a torn or mis-stamped answer frame.
type Snapshot interface {
	// NodeCount bounds valid ids: queries must lie in [0, NodeCount).
	NodeCount() int32
	// FingerprintRaw is the build fingerprint stamped on answer frames
	// (the raw u64 the HTTP layer formats as %016x).
	FingerprintRaw() uint64
	// AnswerInto serves qs into out (len(out) == len(qs)); workers <= 1
	// answers sequentially and must not allocate for the oracle scheme.
	AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int)
}

// SortedAnswerer is an optional Snapshot capability: a generation whose
// backend can exploit (v, s)-ascending query order answers the batch
// and reports true; false means "no sorted path here" and the server
// falls back to AnswerInto (which is also correct on sorted input —
// the capability buys speed, never semantics).
type SortedAnswerer interface {
	AnswerSorted(qs []oracle.Query, out []oracle.Answer) bool
}

// Shard is one named serving slot. Snapshot is loaded once per frame;
// ObserveWire feeds the serving counters after a frame is answered.
type Shard interface {
	Snapshot() Snapshot
	ObserveWire(t FrameType, queries int)
}

// Backend resolves shard names for Bind frames. internal/server's
// *Server satisfies it, so the wire listener serves exactly the same
// slots, stats and hot-swap semantics as the HTTP endpoints.
type Backend interface {
	WireShard(name string) (Shard, bool)
	// WireShardNames lists the shard inventory for unknown-shard errors.
	WireShardNames() string
}

// Config tunes a wire listener. The zero value gets sensible defaults.
type Config struct {
	// MaxBatch caps the queries one frame may carry (default 65536,
	// matching the HTTP layer).
	MaxBatch int
	// AcceptLoops is the number of goroutines blocked in Accept —
	// listener sharding, so a burst of dials is admitted in parallel
	// instead of serializing behind one accept loop (default 2).
	AcceptLoops int
	// Workers is the AnswerInto fan-out per frame (default 1: each
	// connection is its own pipeline lane, and the sequential path is
	// the allocation-free one).
	Workers int
	// SortThreshold gates the frame-local locality sort: frames with at
	// least this many queries are answered in table order (sorted by
	// (v, s)) and scattered back to wire order on encode, which turns
	// the oracle's binary searches into near-sequential array walks.
	// 0 uses the default (1024); negative disables sorting.
	SortThreshold int
}

const defaultSortThreshold = 1024

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.AcceptLoops <= 0 {
		c.AcceptLoops = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.SortThreshold == 0 {
		c.SortThreshold = defaultSortThreshold
	}
	return c
}

// Listener is the accept side of a PDE2 endpoint: accept loops feeding one
// handler goroutine per connection, with every live connection tracked
// so Close can sever them and wait. The daemon's Server and the cluster
// coordinator's relay both listen through it.
type Listener struct {
	ln     net.Listener
	handle func(net.Conn)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen starts acceptLoops accept loops on ln and returns immediately.
// handle runs once per connection, on its own goroutine; the connection
// is closed when it returns.
func Listen(ln net.Listener, acceptLoops int, handle func(net.Conn)) *Listener {
	l := &Listener{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	for i := 0; i < acceptLoops; i++ {
		l.wg.Add(1)
		go l.acceptLoop()
	}
	return l
}

// Addr is the listener's bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting, closes live connections and waits for every
// handler to exit. Safe to call more than once.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serve(conn)
	}
}

func (l *Listener) serve(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	l.handle(conn)
}

// Server is the daemon's PDE2 endpoint: a Listener whose connections
// answer frames from a Backend's shards.
type Server struct {
	*Listener
	cfg Config
	be  Backend
}

// Serve starts accept loops on ln and returns immediately.
func Serve(ln net.Listener, be Backend, cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), be: be}
	s.Listener = Listen(ln, s.cfg.AcceptLoops, s.handleConn)
	return s
}

// arena is the per-connection scratch memory: every steady-state frame
// is decoded, sorted, answered and encoded inside these buffers, so a
// long-lived connection serves frames with zero heap allocations. Arenas
// are pooled so a reconnect storm reuses warmed buffers.
type arena struct {
	hdr     [HeaderSize]byte
	payload []byte
	qs      []oracle.Query
	sorted  []oracle.Query
	ord     []sortRec
	ord2    []sortRec // radix sort's ping-pong buffer
	out     []oracle.Answer
	wbuf    []byte
}

// sortRec pairs a query's table-order key with its wire position for the
// locality sort's scatter on encode.
type sortRec struct {
	key uint64
	idx int32
}

var arenaPool = sync.Pool{New: func() any { return &arena{} }}

// ensure grows the arena for a frame of count queries. Growth is the
// cold path: after the first full-size frame every later frame reuses
// the same memory.
func (a *arena) ensure(count int) {
	if cap(a.qs) < count {
		a.qs = make([]oracle.Query, count)
		a.sorted = make([]oracle.Query, count)
		a.ord = make([]sortRec, count)
		a.ord2 = make([]sortRec, count)
		a.out = make([]oracle.Answer, count)
	}
	if need := HeaderSize + AnswersPayloadLen(count); cap(a.wbuf) < need {
		a.wbuf = make([]byte, need)
	}
}

func (a *arena) ensurePayload(n int) []byte {
	if cap(a.payload) < n {
		a.payload = make([]byte, n)
	}
	a.payload = a.payload[:n]
	return a.payload
}

func (s *Server) maxRequestPayload() int {
	n := QueryPayloadLen(s.cfg.MaxBatch)
	if n < MaxShardName {
		n = MaxShardName
	}
	return n
}

// handleConn runs one connection's frame loop. The response writer is
// flushed only when the read buffer has no complete next frame — the
// standard pipelining trick: while the client keeps frames in flight the
// answers coalesce into large writes, and the moment the handler would
// block it pushes everything out.
func (s *Server) handleConn(conn net.Conn) {
	a := arenaPool.Get().(*arena)
	defer arenaPool.Put(a)
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	defer bw.Flush()

	maxPayload := s.maxRequestPayload()
	var sh Shard
	for {
		if br.Buffered() < HeaderSize {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if _, err := io.ReadFull(br, a.hdr[:]); err != nil {
			return
		}
		t, corr, plen, err := ParseHeader(a.hdr[:])
		if err != nil {
			WriteErrorFrame(bw, corr, ErrCodeBadFrame, err.Error())
			return
		}
		if int(plen) > maxPayload {
			// A lying length prefix destroys the stream boundary: there
			// is no way to skip to the next frame, so answer and close.
			WriteErrorFrame(bw, corr, ErrCodeBadFrame, "payload length exceeds the frame limit")
			return
		}
		payload := a.ensurePayload(int(plen))
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		switch t {
		case FrameBind:
			next, ok := s.serveBind(bw, corr, payload)
			if !ok {
				return
			}
			if next != nil {
				sh = next
			}
		case FrameEstimate, FrameNextHop:
			if sh == nil {
				if !WriteErrorFrame(bw, corr, ErrCodeNotBound, "no shard bound; send a Bind frame first") {
					return
				}
				continue
			}
			if !s.serveQueries(bw, a, sh, t, corr, payload) {
				return
			}
		case FramePing:
			PutHeader(a.hdr[:], FramePong, corr, 0)
			if _, err := bw.Write(a.hdr[:]); err != nil {
				return
			}
		default:
			WriteErrorFrame(bw, corr, ErrCodeBadFrame, "unknown frame type")
			return
		}
	}
}

// serveBind resolves a Bind frame. It returns the shard to bind (nil to
// keep the current binding) and whether the connection stays open.
func (s *Server) serveBind(bw *bufio.Writer, corr uint64, payload []byte) (Shard, bool) {
	if len(payload) == 0 || len(payload) > MaxShardName {
		return nil, WriteErrorFrame(bw, corr, ErrCodeBadFrame, "shard name must be 1..256 bytes")
	}
	name := string(payload)
	sh, ok := s.be.WireShard(name)
	if !ok {
		return nil, WriteErrorFrame(bw, corr, ErrCodeUnknownShard, "no shard named "+name+" (have "+s.be.WireShardNames()+")")
	}
	snap := sh.Snapshot()
	var buf [HeaderSize + BoundPayloadLen]byte
	PutHeader(buf[:], FrameBound, corr, BoundPayloadLen)
	PutBoundPayload(buf[HeaderSize:], snap.NodeCount(), snap.FingerprintRaw())
	if _, err := bw.Write(buf[:]); err != nil {
		return nil, false
	}
	return sh, true
}

// radixBits is the LSD radix digit width: 2048 counters stay
// L1-resident while a tightly packed (v, s) key sorts in
// ceil(keyBits/11) passes — two for any shard up to ~2000 nodes.
const radixBits = 11

// radixSortRecs stable-sorts ord by key ascending with an LSD counting
// sort over radixBits-wide digits, ping-ponging between ord and scratch,
// and returns the slice holding the sorted records (which may be
// scratch). Digits the whole frame shares are skipped. A comparison
// sort here costs ~count·log(count) indirect calls per frame, which at
// serving batch sizes outweighs the locality win the sort exists to
// buy; this is O(passes·count) with no calls at all.
//
//pde:hotpath
func radixSortRecs(ord, scratch []sortRec, keyBits int) []sortRec {
	const mask = 1<<radixBits - 1
	var cnt [1 << radixBits]int32
	for shift := 0; shift < keyBits; shift += radixBits {
		for i := range cnt {
			cnt[i] = 0
		}
		for i := range ord {
			cnt[(ord[i].key>>shift)&mask]++
		}
		if int(cnt[(ord[0].key>>shift)&mask]) == len(ord) {
			continue
		}
		sum := int32(0)
		for i := range cnt {
			c := cnt[i]
			cnt[i] = sum
			sum += c
		}
		for i := range ord {
			d := (ord[i].key >> shift) & mask
			scratch[cnt[d]] = ord[i]
			cnt[d]++
		}
		ord, scratch = scratch, ord
	}
	return ord
}

// serveQueries answers one Estimate or NextHop frame entirely inside the
// connection's arena. One Snapshot is loaded up front and used for
// validation, answering and the fingerprint stamp, so the frame is
// coherent across concurrent hot-swaps. It reports whether the
// connection stays open.
//
//pde:hotpath
func (s *Server) serveQueries(bw *bufio.Writer, a *arena, sh Shard, t FrameType, corr uint64, payload []byte) bool {
	count, err := CheckQueryPayload(payload)
	if err != nil {
		WriteErrorFrame(bw, corr, ErrCodeBadFrame, err.Error())
		return false
	}
	if count == 0 {
		return WriteErrorFrame(bw, corr, ErrCodeBadFrame, "frame carries no queries")
	}
	if count > s.cfg.MaxBatch {
		return WriteErrorFrame(bw, corr, ErrCodeTooLarge, "frame exceeds the query limit")
	}
	a.ensure(count)
	snap := sh.Snapshot()
	n := snap.NodeCount()
	qs := a.qs[:count]
	for i := 0; i < count; i++ {
		q := QueryAt(payload, i)
		if !q.InRange(n) {
			return writeOutOfRange(bw, corr, i, q, n)
		}
		qs[i] = q
	}

	out := a.out[:count]
	var ord []sortRec // table-order permutation when the locality sort ran
	if s.cfg.SortThreshold > 0 && count >= s.cfg.SortThreshold {
		// Locality sort: answer in table order — ascending (v, s) walks
		// the oracle's CSR arrays near-sequentially instead of jumping
		// per query — then scatter answers back to wire positions on
		// encode. Answers are per-query independent, so the reordering
		// is bit-invisible to the client.
		// Keys pack (v, s) into the fewest bits n allows, so the radix
		// sort runs the fewest passes.
		sBits := bits.Len32(uint32(n - 1))
		ord = a.ord[:count]
		for i := 0; i < count; i++ {
			ord[i] = sortRec{key: uint64(uint32(qs[i].V))<<sBits | uint64(uint32(qs[i].S)), idx: int32(i)}
		}
		ord = radixSortRecs(ord, a.ord2[:count], 2*sBits)
		sq := a.sorted[:count]
		for i := 0; i < count; i++ {
			sq[i] = qs[ord[i].idx]
		}
		if sa, ok := snap.(SortedAnswerer); !ok || !sa.AnswerSorted(sq, out) {
			snap.AnswerInto(sq, out, s.cfg.Workers)
		}
	} else {
		snap.AnswerInto(qs, out, s.cfg.Workers)
	}

	fp := snap.FingerprintRaw()
	var frame []byte
	if t == FrameEstimate {
		frame = a.wbuf[:HeaderSize+AnswersPayloadLen(count)]
		PutHeader(frame, FrameAnswers, corr, AnswersPayloadLen(count))
		body := frame[HeaderSize:]
		PutAnswersPrefix(body, fp, count)
		if ord != nil {
			for i := 0; i < count; i++ {
				PutAnswerAt(body, int(ord[i].idx), out[i])
			}
		} else {
			for i := 0; i < count; i++ {
				PutAnswerAt(body, i, out[i])
			}
		}
	} else {
		frame = a.wbuf[:HeaderSize+HopsPayloadLen(count)]
		PutHeader(frame, FrameHops, corr, HopsPayloadLen(count))
		body := frame[HeaderSize:]
		PutHopsPrefix(body, fp, count)
		if ord != nil {
			for i := 0; i < count; i++ {
				PutHopAt(body, int(ord[i].idx), DeriveHop(qs[ord[i].idx], out[i]))
			}
		} else {
			for i := 0; i < count; i++ {
				PutHopAt(body, i, DeriveHop(qs[i], out[i]))
			}
		}
	}
	// Count before writing, as the HTTP handler does: a client that reads
	// /v1/stats the moment its answer arrives must find the frame counted.
	sh.ObserveWire(t, count)
	_, err = bw.Write(frame)
	return err == nil
}

// DeriveHop applies the next-hop convention to one answered query: v == s
// is terminal delivery (core.Router.NextHop), otherwise the estimate's
// via is the hop, and a pair with no table entry or no via has none. This
// is the only definition; HTTP /v1/nexthop and PDE2 NextHop frames both
// answer through it.
//
//pde:hotpath
func DeriveHop(q oracle.Query, a oracle.Answer) Hop {
	switch {
	case q.V == q.S:
		return Hop{Next: q.V, OK: true}
	case a.OK && a.Est.Via >= 0:
		return Hop{Next: a.Est.Via, OK: true}
	}
	return Hop{Next: -1, OK: false}
}

// WriteErrorFrame sends an Error frame and reports whether the
// connection should stay open: false for the fatal codes and for a write
// failure. Error frames are the cold path; they may allocate.
func WriteErrorFrame(bw *bufio.Writer, corr uint64, code uint16, msg string) bool {
	payload := ErrorPayload(code, msg)
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], FrameError, corr, len(payload))
	if _, err := bw.Write(hdr[:]); err != nil {
		return false
	}
	if _, err := bw.Write(payload); err != nil {
		return false
	}
	return !fatalCode(code)
}

// writeOutOfRange reports an out-of-range query id. Split from the hot
// path so serveQueries itself stays allocation-free.
func writeOutOfRange(bw *bufio.Writer, corr uint64, i int, q oracle.Query, n int32) bool {
	return WriteErrorFrame(bw, corr, ErrCodeOutOfRange,
		fmt.Sprintf("query %d: (v=%d, s=%d) outside [0, %d)", i, q.V, q.S, n))
}
