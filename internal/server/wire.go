package server

import (
	"strings"

	"pde/internal/oracle"
	"pde/internal/wire"
)

// This file adapts the daemon to the PDE2 raw-TCP protocol
// (internal/wire): the wire listener serves exactly the slots the HTTP
// endpoints serve, through the same atomic hot-swap snapshots and into
// the same stats counters, so the two transports cannot diverge on
// semantics — only on overhead.

// Snapshot side: a *shard is one immutable table generation.

// NodeCount bounds valid query ids for this generation.
func (sh *shard) NodeCount() int32 { return int32(sh.g.N()) }

// FingerprintRaw is the raw build fingerprint PDE2 answer frames stamp.
func (sh *shard) FingerprintRaw() uint64 { return sh.fpRaw }

// AnswerInto serves a validated batch from this generation's tables.
//
//pde:hotpath
func (sh *shard) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	sh.inst.AnswerInto(qs, out, workers)
}

// sortedAnswerer is the scheme-level sorted-batch capability; only the
// oracle backend implements it today.
type sortedAnswerer interface {
	AnswerSorted(qs []oracle.Query, out []oracle.Answer)
}

// AnswerSorted serves a (v, s)-ascending batch through the generation's
// sorted-aware path when its scheme has one (the oracle backend's
// galloping row walk); rtc and compact generations report false and the
// wire layer falls back to AnswerInto.
//
//pde:hotpath
func (sh *shard) AnswerSorted(qs []oracle.Query, out []oracle.Answer) bool {
	sa, ok := sh.inst.(sortedAnswerer)
	if !ok {
		return false
	}
	sa.AnswerSorted(qs, out)
	return true
}

// Shard side: a *slot is the long-lived serving slot behind a name.

// Snapshot loads the current table generation. The pointer conversion to
// the interface is allocation-free, which the wire path's zero-alloc
// guarantee depends on.
//
//pde:hotpath
func (sl *slot) Snapshot() wire.Snapshot { return sl.load() }

// ObserveWire feeds the serving counters after a wire frame is answered.
// Point lookups land in the same per-endpoint counters HTTP requests use
// (countPoint); wireFrames/wireQueries additionally break out the PDE2
// share. All counters are atomic — the wire path runs one goroutine per
// connection with no handler serialization, so any non-atomic read or
// write here would be a race under -race churn.
//
//pde:hotpath
func (sl *slot) ObserveWire(t wire.FrameType, queries int) {
	sl.stats.countPoint(t, queries)
	sl.stats.wireFrames.Add(1)
	sl.stats.wireQueries.Add(int64(queries))
}

// Backend side: the *Server resolves shard names for Bind frames.

// WireShard resolves a Bind frame's shard name to its serving slot.
func (s *Server) WireShard(name string) (wire.Shard, bool) {
	sl, ok := s.slots[name]
	if !ok {
		return nil, false
	}
	return sl, true
}

// WireShardNames lists the shard inventory for unknown-shard errors.
func (s *Server) WireShardNames() string { return strings.Join(s.names, ", ") }

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
