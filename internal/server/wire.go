package server

import (
	"strings"

	"pde/internal/oracle"
	"pde/internal/wire"
)

// This file is the daemon's side of the PDE2 raw-TCP protocol
// (internal/wire): the wire listener serves exactly the slots the HTTP
// endpoints serve, through the same atomic hot-swap snapshots and into
// the same stats counters, so the two transports cannot diverge on
// semantics — only on overhead.

// NodeCount bounds valid query ids for this generation.
func (sh *shard) NodeCount() int32 { return int32(sh.g.N()) }

// AnswerInto serves a validated batch from this generation's tables.
//
//pde:hotpath
func (sh *shard) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	sh.inst.AnswerInto(qs, out, workers)
}

// sortedAnswerer is the scheme-level sorted-batch capability; only the
// oracle backend implements it today (its galloping row walk).
type sortedAnswerer interface {
	AnswerSorted(qs []oracle.Query, out []oracle.Answer)
}

// wireConn is the daemon's wire.Handler: one PDE2 connection and the
// slot it is bound to.
type wireConn struct {
	s  *Server
	sl *slot
}

// WireHandler opens the handler of one accepted PDE2 connection.
func (s *Server) WireHandler() wire.Handler { return &wireConn{s: s} }

func (c *wireConn) Close() {}

// Bind resolves a Bind frame's shard name to its serving slot.
func (c *wireConn) Bind(name string) (int32, uint64, *wire.RemoteError) {
	sl, ok := c.s.slots[name]
	if !ok {
		return 0, 0, &wire.RemoteError{Code: wire.ErrCodeUnknownShard,
			Message: "no shard named " + name + " (have " + strings.Join(c.s.names, ", ") + ")"}
	}
	c.sl = sl
	sh := sl.load()
	return sh.NodeCount(), sh.fpRaw, nil
}

// Answer serves one frame. The one generation loaded up front validates
// the ids, answers them and stamps the reply, so the frame is coherent
// across concurrent hot-swaps. Each connection is its own pipeline lane,
// so the batch is answered by one worker — the allocation-free path —
// and a table-ordered batch goes through the scheme's sorted-aware path
// when it has one (which buys speed, never semantics).
//
//pde:hotpath
func (c *wireConn) Answer(b *wire.Batch) (uint64, *wire.RemoteError) {
	sh := c.sl.load()
	qs, sorted, refusal := b.InOrder(sh.NodeCount())
	if refusal != nil {
		return 0, refusal
	}
	if sa, ok := sh.inst.(sortedAnswerer); sorted && ok {
		sa.AnswerSorted(qs, b.Out)
	} else {
		sh.inst.AnswerInto(qs, b.Out, 1)
	}
	if b.Type == wire.FrameNextHop {
		for i, q := range qs {
			b.Hops[i] = wire.DeriveHop(q, b.Out[i])
		}
	}
	// Count before the reply is written, as the HTTP handler does: a client
	// that reads /v1/stats the moment its answer arrives must find the
	// frame counted. Point lookups land in the same per-endpoint counters
	// HTTP requests use; wireFrames/wireQueries break out the PDE2 share.
	// All counters are atomic: the wire path runs one goroutine per
	// connection with no handler serialization.
	st := &c.sl.stats
	st.countPoint(b.Type, len(qs))
	st.wireFrames.Add(1)
	st.wireQueries.Add(int64(len(qs)))
	return sh.fpRaw, nil
}

// SetWireAddr records the bound PDE2 listener address so /v1/stats (and
// through it pde-query -codec wire and the cluster coordinator) can
// discover the raw-TCP endpoint.
func (s *Server) SetWireAddr(addr string) {
	s.wireAddr.Store(&addr)
}

// WireAddr returns the advertised PDE2 listener address ("" when the
// daemon has no wire listener).
func (s *Server) WireAddr() string {
	if p := s.wireAddr.Load(); p != nil {
		return *p
	}
	return ""
}
