package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"

	"pde/internal/oracle"
)

// Handler is the answering side of one PDE2 connection. The frame loop
// owns the protocol — framing, limits, Ping, error frames, the reply
// encoders — and a Handler owns what a shard and an answer are: the
// daemon's come from a Backend's tables, the cluster relay's from an
// upstream daemon. A non-nil *RemoteError goes to the client as that
// Error frame, and the connection closes after it when the code is fatal.
type Handler interface {
	// Bind binds the connection to the named shard (1..MaxShardName
	// bytes) and returns the Bound reply: node count and serving
	// fingerprint. A refused Bind leaves any earlier binding in place.
	Bind(shard string) (n int32, fingerprint uint64, refusal *RemoteError)
	// Answer answers b.Qs from the bound shard and returns the
	// fingerprint of the one generation that produced every answer. It
	// is called only after a successful Bind.
	Answer(b *Batch) (fingerprint uint64, refusal *RemoteError)
	// Close releases the handler when the connection ends.
	Close()
}

// Batch is one query frame between decode and encode: the loop fills
// Type and Qs, the Handler fills Out (Estimate) or Hops (NextHop, the only
// frames Hops is sized for), each len(Qs) long and, for a Handler outside
// this package, in wire order. It is also the connection's arena: every
// steady-state frame is decoded, grouped, answered and encoded inside its
// buffers, so a long-lived connection serves frames with zero heap
// allocations. Arenas are pooled so a reconnect storm reuses warmed
// buffers.
type Batch struct {
	Type FrameType // FrameEstimate or FrameNextHop
	// Qs are the frame's queries. Their ids are not range-checked: the
	// node count belongs to the generation the Handler answers from.
	Qs   []oracle.Query
	Out  []oracle.Answer
	Hops []Hop

	// The daemon handler's row grouping: when perm is non-nil, record i
	// of Out and Hops answers wire position perm[i] and the encoder
	// scatters it there. rows and perms are its scratch, the second of
	// each pair the ping-pong half a shard of more than 2048 nodes needs.
	perm  []int32
	rows  [2][]oracle.Query
	perms [2][]int32

	hdr     [HeaderSize]byte
	payload []byte
	wbuf    []byte
}

var arenaPool = sync.Pool{New: func() any { return &Batch{} }}

// ensure sizes the arena for a frame of type t and count queries. Growth
// is the cold path: after the first full-size frame every later frame
// reuses the same memory.
func (a *Batch) ensure(t FrameType, count int) {
	if cap(a.Qs) < count {
		a.Qs = make([]oracle.Query, count)
		a.Out = make([]oracle.Answer, count)
	}
	a.Type, a.perm, a.Qs, a.Out = t, nil, a.Qs[:count], a.Out[:count]
	if t == FrameNextHop {
		if cap(a.Hops) < count {
			a.Hops = make([]Hop, count)
		}
		a.Hops = a.Hops[:count]
	}
	if need := HeaderSize + AnswersPayloadLen(count); cap(a.wbuf) < need {
		a.wbuf = make([]byte, need)
	}
}

func (a *Batch) ensurePayload(n int) []byte {
	if cap(a.payload) < n {
		a.payload = make([]byte, n)
	}
	a.payload = a.payload[:n]
	return a.payload
}

// Listener is the accept side of a PDE2 endpoint: an accept loop feeding
// one frame-loop goroutine per connection, with every live connection
// tracked so Close can sever them and wait. The daemon's endpoint (Serve)
// and the cluster coordinator's relay are both one of these.
type Listener struct {
	ln       net.Listener
	maxBatch int
	open     func() Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen starts accepting on ln and returns immediately. Every
// connection runs the PDE2 frame loop, capped at maxBatch queries per
// frame, against its own Handler from open; the connection is closed
// when the loop ends.
func Listen(ln net.Listener, maxBatch int, open func() Handler) *Listener {
	l := &Listener{ln: ln, maxBatch: maxBatch, open: open, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
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
	serveConn(conn, l.maxBatch, l.open())
}

// serveConn runs one connection's frame loop. The response writer is
// flushed only when the read buffer has no complete next frame — the
// standard pipelining trick: while the client keeps frames in flight the
// answers coalesce into large writes, and the moment the loop would
// block it pushes everything out.
func serveConn(conn net.Conn, maxBatch int, h Handler) {
	defer h.Close()
	a := arenaPool.Get().(*Batch)
	defer arenaPool.Put(a)
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	defer bw.Flush()

	maxPayload := max(QueryPayloadLen(maxBatch), MaxShardName)
	bound := false
	for {
		if br.Buffered() < HeaderSize {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if _, err := io.ReadFull(br, a.hdr[:]); err != nil {
			return
		}
		t, corr, plen, err := parseHeader(a.hdr[:])
		if err != nil {
			writeErrorFrame(bw, corr, ErrCodeBadFrame, err.Error())
			return
		}
		if int(plen) > maxPayload {
			// A lying length prefix destroys the stream boundary: there
			// is no way to skip to the next frame, so answer and close.
			writeErrorFrame(bw, corr, ErrCodeBadFrame, "payload length exceeds the frame limit")
			return
		}
		payload := a.ensurePayload(int(plen))
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		var open bool
		switch t {
		case FrameBind:
			var ok bool
			ok, open = serveBind(bw, h, corr, payload)
			bound = bound || ok
		case FrameEstimate, FrameNextHop:
			if bound {
				open = a.serveQueries(bw, h, t, corr, payload, maxBatch)
			} else {
				open = writeErrorFrame(bw, corr, ErrCodeNotBound, "no shard bound; send a Bind frame first")
			}
		case FramePing:
			putHeader(a.hdr[:], FramePong, corr, 0)
			_, err := bw.Write(a.hdr[:])
			open = err == nil
		default:
			writeErrorFrame(bw, corr, ErrCodeBadFrame, "unknown frame type")
		}
		if !open {
			return
		}
	}
}

// serveBind answers a Bind frame. It reports whether the handler bound
// the shard and whether the connection stays open.
func serveBind(bw *bufio.Writer, h Handler, corr uint64, payload []byte) (bound, open bool) {
	if len(payload) == 0 || len(payload) > MaxShardName {
		return false, writeErrorFrame(bw, corr, ErrCodeBadFrame, "shard name must be 1..256 bytes")
	}
	n, fp, refusal := h.Bind(string(payload))
	if refusal != nil {
		return false, writeErrorFrame(bw, corr, refusal.Code, refusal.Message)
	}
	var buf [HeaderSize + BoundPayloadLen]byte
	putHeader(buf[:], FrameBound, corr, BoundPayloadLen)
	putBoundPayload(buf[HeaderSize:], n, fp)
	_, err := bw.Write(buf[:])
	return true, err == nil
}

// serveQueries answers one Estimate or NextHop frame entirely inside the
// connection's arena: decode, the handler's answer, encode. It reports
// whether the connection stays open.
//
//pde:hotpath
func (a *Batch) serveQueries(bw *bufio.Writer, h Handler, t FrameType, corr uint64, payload []byte, maxBatch int) bool {
	count, err := checkQueryPayload(payload)
	if err != nil {
		return writeErrorFrame(bw, corr, ErrCodeBadFrame, err.Error())
	}
	if count == 0 {
		return writeErrorFrame(bw, corr, ErrCodeBadFrame, "frame carries no queries")
	}
	if count > maxBatch {
		return writeErrorFrame(bw, corr, ErrCodeTooLarge, "frame exceeds the query limit")
	}
	a.ensure(t, count)
	for i := range a.Qs {
		a.Qs[i] = QueryAt(payload, i)
	}
	fp, refusal := h.Answer(a)
	if refusal != nil {
		return writeErrorFrame(bw, corr, refusal.Code, refusal.Message)
	}

	// Encode. A row-grouped batch is scattered back to wire positions here;
	// answers are per-query independent, so the reordering is
	// bit-invisible to the client.
	kind, rec := FrameAnswers, AnswerRecordSize
	if t == FrameNextHop {
		kind, rec = FrameHops, HopRecordSize
	}
	plen := stampedLen(count, rec)
	frame := a.wbuf[:HeaderSize+plen]
	putHeader(frame, kind, corr, plen)
	body := frame[HeaderSize:]
	putStamp(body, fp, count)
	if t == FrameEstimate {
		for i, ans := range a.Out {
			at := i
			if a.perm != nil {
				at = int(a.perm[i])
			}
			PutAnswerAt(body, at, ans)
		}
	} else {
		for i, hop := range a.Hops {
			at := i
			if a.perm != nil {
				at = int(a.perm[i])
			}
			putHopAt(body, at, hop)
		}
	}
	_, err = bw.Write(frame)
	return err == nil
}

// writeErrorFrame sends an Error frame and reports whether the
// connection should stay open: false for the fatal codes and for a write
// failure. Error frames are the cold path; they may allocate.
func writeErrorFrame(bw *bufio.Writer, corr uint64, code uint16, msg string) bool {
	payload := errorPayload(code, msg)
	var hdr [HeaderSize]byte
	putHeader(hdr[:], FrameError, corr, len(payload))
	if _, err := bw.Write(hdr[:]); err != nil {
		return false
	}
	if _, err := bw.Write(payload); err != nil {
		return false
	}
	return !fatalCode(code)
}
