package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"pde/internal/oracle"
	"pde/internal/server"
	"pde/internal/wire"
)

// WireRelay fronts the fleet's PDE2 wire endpoints behind one raw-TCP
// listener, the way the coordinator's HTTP handler fronts /v1/estimate:
// a client binds a shard once, and every Estimate / NextHop frame is
// store-and-forwarded to a healthy replica's wire endpoint with failover.
// Each client connection owns one upstream connection, so pipelined
// frames relay in order and every answer still carries the fingerprint
// of the single daemon generation that produced it — the relay never
// merges answers. Upstream endpoints are discovered from each daemon's
// /v1/stats (wire_addr), so only daemons started with -wire-addr are
// eligible; a shard whose replicas all lack a wire listener fails with
// an upstream error frame rather than falling back to HTTP.
type WireRelay struct {
	*wire.Listener
	c *Coordinator
}

// ServeWire starts a PDE2 relay on ln and returns immediately. The
// relay's address is reported as wire_addr in the coordinator-shaped
// /v1/stats, so pde-query -cluster -codec wire discovers it the same
// way it would a daemon's.
func (c *Coordinator) ServeWire(ln net.Listener) *WireRelay {
	r := &WireRelay{c: c}
	addr := ln.Addr().String()
	c.wireAddr.Store(&addr)
	r.Listener = wire.Listen(ln, 1, r.handleConn)
	return r
}

// relayState is one client connection's scratch: the bound shard, its
// current upstream and the daemon it leads to, and reused frame buffers.
type relayState struct {
	shard   string
	up      *wire.Conn
	upB     *backend   // the daemon up is connected to; nil with up
	reps    []*backend // replicas() scratch
	payload []byte
	qs      []oracle.Query
	out     []oracle.Answer
	hops    []wire.Hop
	wbuf    []byte
}

func (st *relayState) dropUpstream() {
	if st.up != nil {
		st.up.Close()
		st.up, st.upB = nil, nil
	}
}

// replicas is shard's replica set for a sweep, with the daemon this
// connection is already on moved to the front. The stream stays
// where it is while that daemon is healthy: a replica whose HTTP plane
// answers probes but whose wire listener is gone would otherwise be
// re-dialled, and fail, on every frame.
func (r *WireRelay) replicas(st *relayState, shard string) []*backend {
	st.reps = append(st.reps[:0], r.c.replicasFor(shard)...)
	for i, b := range st.reps {
		if b == st.upB {
			copy(st.reps[1:i+1], st.reps[:i])
			st.reps[0] = b
			break
		}
	}
	return st.reps
}

// connect is one sweep attempt at giving st an upstream bound to shard
// on b's wire endpoint, discovered from the daemon's /v1/stats. Failing to
// reach the daemon is a transport failure; a daemon that answers but
// serves no wire endpoint, or refuses the bind, is alive.
func (r *WireRelay) connect(st *relayState, b *backend, shard string) (alive bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.c.cfg.ProbeTimeout)
	stats, err := b.client.Stats(ctx)
	cancel()
	if err != nil {
		return false, err
	}
	if stats.WireAddr == "" {
		return true, errors.New("serves no wire endpoint (-wire-addr)")
	}
	uc, err := wire.DialTimeout(server.ResolveWireAddr(b.url, stats.WireAddr), r.c.cfg.ProbeTimeout)
	if err != nil {
		return false, fmt.Errorf("dialing wire endpoint: %w", err)
	}
	if _, _, err := uc.Bind(shard); err != nil {
		uc.Close()
		return true, fmt.Errorf("bind %q: %w", shard, err)
	}
	st.up, st.upB = uc, b
	return true, nil
}

// handleConn runs one client connection's relay loop: the same framing
// discipline as the daemon-side handler (flush only when no complete
// frame is buffered), with each query frame answered through the bound
// shard's upstream.
func (r *WireRelay) handleConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	defer bw.Flush()

	st := &relayState{}
	defer st.dropUpstream()
	var hdr [wire.HeaderSize]byte
	maxPayload := wire.QueryPayloadLen(wire.DefaultMaxBatch)
	if maxPayload < wire.MaxShardName {
		maxPayload = wire.MaxShardName
	}
	for {
		if br.Buffered() < wire.HeaderSize {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		t, corr, plen, err := wire.ParseHeader(hdr[:])
		if err != nil {
			wire.WriteErrorFrame(bw, corr, wire.ErrCodeBadFrame, err.Error())
			return
		}
		if int(plen) > maxPayload {
			wire.WriteErrorFrame(bw, corr, wire.ErrCodeBadFrame, "payload length exceeds the frame limit")
			return
		}
		if cap(st.payload) < int(plen) {
			st.payload = make([]byte, plen)
		}
		payload := st.payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		switch t {
		case wire.FrameBind:
			if !r.relayBind(bw, st, corr, payload) {
				return
			}
		case wire.FrameEstimate, wire.FrameNextHop:
			if !r.relayQueries(bw, st, t, corr, payload) {
				return
			}
		case wire.FramePing:
			wire.PutHeader(hdr[:], wire.FramePong, corr, 0)
			if _, err := bw.Write(hdr[:]); err != nil {
				return
			}
		default:
			wire.WriteErrorFrame(bw, corr, wire.ErrCodeBadFrame, "unknown frame type")
			return
		}
	}
}

// relayBind resolves the shard and establishes the upstream, answering
// the client with the upstream's Bound frame (node count and serving
// fingerprint). It reports whether the connection stays open.
func (r *WireRelay) relayBind(bw *bufio.Writer, st *relayState, corr uint64, payload []byte) bool {
	if len(payload) == 0 || len(payload) > wire.MaxShardName {
		return wire.WriteErrorFrame(bw, corr, wire.ErrCodeBadFrame, "shard name must be 1..256 bytes")
	}
	name := string(payload)
	if len(r.c.replicasFor(name)) == 0 {
		return wire.WriteErrorFrame(bw, corr, wire.ErrCodeUnknownShard, "no daemon serves shard "+name)
	}
	st.dropUpstream()
	err := r.c.sweep(context.Background(), r.replicas(st, name), func(b *backend) (bool, error) {
		return r.connect(st, b, name)
	})
	if err != nil {
		return wire.WriteErrorFrame(bw, corr, wire.ErrCodeUpstream, "shard "+name+": "+err.Error())
	}
	st.shard = name
	var buf [wire.HeaderSize + wire.BoundPayloadLen]byte
	wire.PutHeader(buf[:], wire.FrameBound, corr, wire.BoundPayloadLen)
	wire.PutBoundPayload(buf[wire.HeaderSize:], st.up.N(), st.up.FingerprintRaw())
	if _, werr := bw.Write(buf[:]); werr != nil {
		return false
	}
	return true
}

// relayQueries forwards one Estimate or NextHop frame: decode the
// queries, answer through the upstream — moving it across replicas under
// the coordinator's failover sweep when it breaks — and re-encode the
// answers under the client's correlation id. Protocol errors from the
// daemon (out_of_range above all) relay verbatim.
func (r *WireRelay) relayQueries(bw *bufio.Writer, st *relayState, t wire.FrameType, corr uint64, payload []byte) bool {
	if st.shard == "" {
		return wire.WriteErrorFrame(bw, corr, wire.ErrCodeNotBound, "no shard bound; send a Bind frame first")
	}
	count, err := wire.CheckQueryPayload(payload)
	if err != nil {
		wire.WriteErrorFrame(bw, corr, wire.ErrCodeBadFrame, err.Error())
		return false
	}
	if count == 0 {
		return wire.WriteErrorFrame(bw, corr, wire.ErrCodeBadFrame, "frame carries no queries")
	}
	if cap(st.qs) < count {
		st.qs = make([]oracle.Query, count)
		st.out = make([]oracle.Answer, count)
		st.hops = make([]wire.Hop, count)
	}
	qs := st.qs[:count]
	for i := 0; i < count; i++ {
		qs[i] = wire.QueryAt(payload, i)
	}

	var fp uint64
	var refusal *wire.RemoteError
	err = r.c.sweep(context.Background(), r.replicas(st, st.shard), func(b *backend) (bool, error) {
		if st.upB != b {
			st.dropUpstream()
			if alive, err := r.connect(st, b, st.shard); err != nil {
				return alive, err
			}
		}
		var qerr error
		if t == wire.FrameEstimate {
			fp, qerr = st.up.Estimate(qs, st.out[:count])
		} else {
			fp, qerr = st.up.NextHop(qs, st.hops[:count])
		}
		if qerr == nil {
			return true, nil
		}
		var re *wire.RemoteError
		if errors.As(qerr, &re) {
			// The daemon answered: a protocol-level refusal
			// (out_of_range, too_large) is identical on every replica,
			// so it settles the request like an answer does.
			refusal = re
			return true, nil
		}
		st.dropUpstream()
		return false, qerr
	})
	switch {
	case err != nil:
		return wire.WriteErrorFrame(bw, corr, wire.ErrCodeUpstream,
			fmt.Sprintf("shard %s: every replica failed: %v", st.shard, err))
	case refusal != nil:
		if refusal.Fatal() {
			st.dropUpstream()
		}
		return wire.WriteErrorFrame(bw, corr, refusal.Code, refusal.Message)
	}
	r.c.proxied.Add(1)
	return r.writeAnswers(bw, st, t, corr, count, fp)
}

// writeAnswers re-frames the upstream's answers for the client. The
// answer slices were just filled by the upstream decode, so the records
// re-encode bit-identically — the relay changes the correlation id and
// nothing else.
func (r *WireRelay) writeAnswers(bw *bufio.Writer, st *relayState, t wire.FrameType, corr uint64, count int, fp uint64) bool {
	var need int
	if t == wire.FrameEstimate {
		need = wire.HeaderSize + wire.AnswersPayloadLen(count)
	} else {
		need = wire.HeaderSize + wire.HopsPayloadLen(count)
	}
	if cap(st.wbuf) < need {
		st.wbuf = make([]byte, need)
	}
	frame := st.wbuf[:need]
	if t == wire.FrameEstimate {
		wire.PutHeader(frame, wire.FrameAnswers, corr, wire.AnswersPayloadLen(count))
		body := frame[wire.HeaderSize:]
		wire.PutAnswersPrefix(body, fp, count)
		for i := 0; i < count; i++ {
			wire.PutAnswerAt(body, i, st.out[i])
		}
	} else {
		wire.PutHeader(frame, wire.FrameHops, corr, wire.HopsPayloadLen(count))
		body := frame[wire.HeaderSize:]
		wire.PutHopsPrefix(body, fp, count)
		for i := 0; i < count; i++ {
			wire.PutHopAt(body, i, st.hops[i])
		}
	}
	_, err := bw.Write(frame)
	return err == nil
}
