package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"pde/internal/oracle"
)

// Conn is one PDE2 client connection. It is not safe for concurrent use:
// a connection is either driven synchronously (Estimate / NextHop block
// for their answer) or handed to a Pipeline, which keeps up to W frames
// in flight. All steady-state buffers are owned by the Conn and reused,
// so a warmed connection issues queries with zero heap allocations.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	// MaxBatch bounds the answer frames this client will accept
	// (DefaultMaxBatch when zero); a lying server cannot force an
	// arbitrary allocation.
	MaxBatch int

	shard string // "" until Bind: NewPipeline refuses an unbound Conn
	n     int32
	fp    uint64
	corr  uint64

	hdr  [HeaderSize]byte
	rbuf []byte
	wbuf []byte

	err       error // sticky fatal transport error
	pipelined bool
}

// Dial opens a PDE2 connection. Bind must be called before queries.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(nc), nil
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newConn(nc), nil
}

// newConn wraps an established transport in a PDE2 client connection.
func newConn(nc net.Conn) *Conn {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 1<<16),
		bw: bufio.NewWriterSize(nc, 1<<16),
	}
}

// Close closes the transport.
func (c *Conn) Close() error { return c.nc.Close() }

// SetDeadline bounds every subsequent read and write on the transport.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// N is the bound shard's node count at Bind time.
func (c *Conn) N() int32 { return c.n }

// FingerprintRaw is the fingerprint stamped on the most recent Bound or
// answer frame.
func (c *Conn) FingerprintRaw() uint64 { return c.fp }

func (c *Conn) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return DefaultMaxBatch
}

func (c *Conn) fatal(err error) error {
	if c.err == nil {
		c.err = err
	}
	c.nc.Close()
	return err
}

// failed is fatal for the read-path errors that leave the stream unusable
// (frameFatal); a non-fatal Error frame passes through.
func (c *Conn) failed(err error) error {
	if frameFatal(err) {
		return c.fatal(err)
	}
	return err
}

func (c *Conn) ensureWbuf(n int) []byte {
	if cap(c.wbuf) < n {
		c.wbuf = make([]byte, n)
	}
	return c.wbuf[:n]
}

func (c *Conn) ensureRbuf(n int) []byte {
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	return c.rbuf[:n]
}

// Bind selects the shard every later query frame on this connection
// targets, returning its node count and current build fingerprint.
func (c *Conn) Bind(shard string) (n int32, fingerprint uint64, err error) {
	if len(shard) == 0 || len(shard) > MaxShardName {
		return 0, 0, fmt.Errorf("wire: shard name must be 1..%d bytes", MaxShardName)
	}
	payload, err := c.control(FrameBind, shard, FrameBound)
	if err != nil {
		return 0, 0, err
	}
	bn, fp, err := parseBoundPayload(payload)
	if err != nil {
		return 0, 0, c.fatal(err)
	}
	c.shard, c.n, c.fp = shard, bn, fp
	return bn, fp, nil
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.control(FramePing, "", FramePong)
	return err
}

// control round-trips a Bind or Ping frame carrying body; the reply must
// be of type want.
func (c *Conn) control(t FrameType, body string, want FrameType) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	c.corr++
	frame := c.ensureWbuf(HeaderSize + len(body))
	putHeader(frame, t, c.corr, len(body))
	copy(frame[HeaderSize:], body)
	if err := c.flushFrame(frame); err != nil {
		return nil, err
	}
	got, payload, err := c.readFrame(c.corr)
	if err == nil && got != want {
		err = fmt.Errorf("wire: %v frame answered a %v request", got, t)
	}
	if err != nil {
		return nil, c.failed(err)
	}
	return payload, nil
}

// flushFrame writes one whole frame to the transport.
func (c *Conn) flushFrame(frame []byte) error {
	if _, err := c.bw.Write(frame); err != nil {
		return c.fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fatal(err)
	}
	return nil
}

// writeQueryFrame frames and flushes one query batch.
//
//pde:hotpath
func (c *Conn) writeQueryFrame(t FrameType, corr uint64, qs []oracle.Query) error {
	plen := QueryPayloadLen(len(qs))
	frame := c.ensureWbuf(HeaderSize + plen)
	putHeader(frame, t, corr, plen)
	PutQueryPayload(frame[HeaderSize:], qs)
	return c.flushFrame(frame)
}

// readFrame reads one response frame into the Conn's own header and
// payload buffer (valid until the next read) and checks it answers the
// request corr. An Error frame comes back as *RemoteError before the
// correlation id is looked at: the server answers a frame it could not
// parse with corr 0. readFrame itself never poisons the connection — it
// runs on the submitting goroutine for a synchronous Conn and on the
// reader goroutine for a pipelined one — its caller does, for every
// error frameFatal reports.
//
//pde:hotpath
func (c *Conn) readFrame(corr uint64) (FrameType, []byte, error) {
	if _, err := readFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	t, got, plen, err := parseHeader(c.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if int(plen) > AnswersPayloadLen(c.maxBatch()) {
		return 0, nil, ErrFrameTooBig
	}
	payload := c.ensureRbuf(int(plen))
	if _, err := readFull(c.br, payload); err != nil {
		return 0, nil, err
	}
	if t == FrameError {
		code, msg, err := parseErrorPayload(payload)
		if err != nil {
			return 0, nil, err
		}
		return 0, nil, &RemoteError{Code: code, Message: msg}
	}
	if got != corr {
		return 0, nil, ErrCorrMismatch
	}
	return t, payload, nil
}

// frameFatal reports whether a read-path error leaves the stream
// unusable: everything but a non-fatal Error frame.
func frameFatal(err error) bool {
	rerr, ok := err.(*RemoteError)
	return !ok || rerr.Fatal()
}

// receive reads the reply to the query frame (kind, corr) and decodes it
// into out (Estimate) or hops (NextHop), whichever kind fills, returning
// the fingerprint of the generation that answered.
//
//pde:hotpath
func (c *Conn) receive(kind FrameType, corr uint64, out []oracle.Answer, hops []Hop) (uint64, error) {
	t, payload, err := c.readFrame(corr)
	if err != nil {
		return 0, err
	}
	if t != kind+0x80 {
		return 0, fmt.Errorf("wire: %v frame answered a %v request", t, kind)
	}
	return decodeInto(t, payload, out, hops)
}

// decodeInto validates an Answers or Hops payload and fills the caller's
// buffer, which must hold exactly the frame's record count.
//
//pde:hotpath
func decodeInto(t FrameType, payload []byte, out []oracle.Answer, hops []Hop) (uint64, error) {
	rec, want := AnswerRecordSize, len(out)
	if t == FrameHops {
		rec, want = HopRecordSize, len(hops)
	}
	fp, count, err := checkStamp(payload, rec)
	if err == nil && count != want {
		err = ErrBadPayload
	}
	if t == FrameAnswers {
		for i := 0; err == nil && i < count; i++ {
			err = AnswerAt(payload, i, &out[i])
		}
	} else {
		for i := 0; err == nil && i < count; i++ {
			err = hopAt(payload, i, &hops[i])
		}
	}
	if err != nil {
		return 0, err
	}
	return fp, nil
}

// query is the synchronous round trip behind Estimate and NextHop.
//
//pde:hotpath
func (c *Conn) query(kind FrameType, qs []oracle.Query, out []oracle.Answer, hops []Hop) (uint64, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.corr++
	if err := c.writeQueryFrame(kind, c.corr, qs); err != nil {
		return 0, err
	}
	fp, err := c.receive(kind, c.corr, out, hops)
	if err != nil {
		return 0, c.failed(err)
	}
	c.fp = fp
	return fp, nil
}

// Estimate answers qs into out (len(out) == len(qs)) synchronously and
// returns the fingerprint of the table generation that answered. The
// steady-state path performs no heap allocations.
//
//pde:hotpath
func (c *Conn) Estimate(qs []oracle.Query, out []oracle.Answer) (fingerprint uint64, err error) {
	return c.query(FrameEstimate, qs, out, nil)
}

// NextHop answers qs into hops (len(hops) == len(qs)) synchronously.
//
//pde:hotpath
func (c *Conn) NextHop(qs []oracle.Query, hops []Hop) (fingerprint uint64, err error) {
	return c.query(FrameNextHop, qs, nil, hops)
}

// readFull is io.ReadFull specialized for *bufio.Reader so the hot read
// loop never converts the reader to an interface.
//
//pde:hotpath
func readFull(br *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := br.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// --- pipelining --------------------------------------------------------

// Result reports one pipelined frame's outcome after the reader has
// processed it: the fingerprint stamp of the generation that answered,
// or a per-frame error (e.g. out_of_range). Results are owned by the
// pipeline between submission and Wait/Flush.
type Result struct {
	FP  uint64
	Err error
}

// pipeSlot is one in-flight frame's bookkeeping. A slot is owned by the
// submitter between <-free and full<-, and by the reader goroutine
// between <-full and free<- — the channels are the synchronization.
type pipeSlot struct {
	corr uint64
	kind FrameType // expected response type
	out  []oracle.Answer
	hops []Hop
	res  *Result
}

// Pipeline drives one Conn with up to depth frames in flight: Estimate
// and NextHop submit without waiting for answers, a background reader
// matches responses (which arrive in request order; correlation ids are
// verified) and fills the caller's buffers. Throughput is then bounded
// by the server's answer rate, not the round-trip latency — the wire
// analogue of keeping CONGEST rounds full by pipelining aggregation
// (the paper's Lemma 4 trick, applied to TCP).
//
// A Pipeline is single-submitter: one goroutine calls Estimate / NextHop
// / Wait / Close; the reader goroutine is internal. Steady state
// allocates nothing.
type Pipeline struct {
	c     *Conn
	slots []pipeSlot
	free  chan int32
	full  chan int32
	done  chan struct{}
	ferr  atomic.Pointer[error]
	idxs  []int32 // Wait's scratch
}

// NewPipeline wraps c with depth frames of in-flight budget. The Conn
// must be bound and must not be used directly until Close returns.
func (c *Conn) NewPipeline(depth int) (*Pipeline, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.pipelined {
		return nil, fmt.Errorf("wire: connection already has an active pipeline")
	}
	if c.shard == "" {
		return nil, fmt.Errorf("wire: Bind before NewPipeline")
	}
	if depth < 1 {
		depth = 1
	}
	c.pipelined = true
	p := &Pipeline{
		c:     c,
		slots: make([]pipeSlot, depth),
		free:  make(chan int32, depth),
		full:  make(chan int32, depth),
		done:  make(chan struct{}),
		idxs:  make([]int32, 0, depth),
	}
	for i := range p.slots {
		p.free <- int32(i)
	}
	go p.reader()
	return p, nil
}

// Estimate submits one estimate frame, blocking only when depth frames
// are already in flight. out and res must stay untouched until Wait or
// Close returns; res then carries the answering generation's
// fingerprint or the per-frame error.
//
//pde:hotpath
func (p *Pipeline) Estimate(qs []oracle.Query, out []oracle.Answer, res *Result) error {
	return p.submit(FrameEstimate, qs, out, nil, res)
}

// NextHop submits one next-hop frame under the same contract.
//
//pde:hotpath
func (p *Pipeline) NextHop(qs []oracle.Query, hops []Hop, res *Result) error {
	return p.submit(FrameNextHop, qs, nil, hops, res)
}

//pde:hotpath
func (p *Pipeline) submit(t FrameType, qs []oracle.Query, out []oracle.Answer, hops []Hop, res *Result) error {
	if e := p.ferr.Load(); e != nil {
		return *e
	}
	idx := <-p.free
	sl := &p.slots[idx]
	p.c.corr++
	sl.corr = p.c.corr
	sl.kind = t
	sl.out = out
	sl.hops = hops
	sl.res = res
	res.FP, res.Err = 0, nil
	if err := p.c.writeQueryFrame(t, sl.corr, qs); err != nil {
		p.setFatal(err)
		p.free <- idx
		return err
	}
	p.full <- idx
	return nil
}

// Wait blocks until every submitted frame has been answered and its
// Result filled, then returns the pipeline's transport error, if any
// (per-frame server errors live in each Result). The pipeline remains
// usable after Wait.
func (p *Pipeline) Wait() error {
	p.idxs = p.idxs[:0]
	for i := 0; i < len(p.slots); i++ {
		p.idxs = append(p.idxs, <-p.free)
	}
	for _, idx := range p.idxs {
		p.free <- idx
	}
	if e := p.ferr.Load(); e != nil {
		return *e
	}
	return nil
}

// Close waits for in-flight frames, stops the reader and releases the
// Conn for direct use again.
func (p *Pipeline) Close() error {
	err := p.Wait()
	close(p.full)
	<-p.done
	p.c.pipelined = false
	return err
}

func (p *Pipeline) setFatal(err error) {
	if p.ferr.Load() == nil {
		p.ferr.Store(&err)
	}
}

// reader drains responses for in-flight slots, reading each through the
// Conn's one receive path (the Conn is not used directly while it is
// pipelined, so its header and payload buffer are the reader's). After a
// transport error it keeps servicing the channel protocol (marking every
// later frame failed) so submitters never block on a dead pipeline.
func (p *Pipeline) reader() {
	defer close(p.done)
	for idx := range p.full {
		sl := &p.slots[idx]
		if e := p.ferr.Load(); e != nil {
			sl.res.Err = *e
		} else {
			sl.res.FP, sl.res.Err = p.c.receive(sl.kind, sl.corr, sl.out, sl.hops)
			if sl.res.Err != nil && frameFatal(sl.res.Err) {
				p.setFatal(sl.res.Err)
			}
		}
		p.free <- idx
	}
}
