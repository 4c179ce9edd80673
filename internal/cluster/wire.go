package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"

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
type WireRelay = wire.Listener

// ServeWire starts a PDE2 relay on ln and returns immediately. The
// relay's address is reported as wire_addr in the coordinator-shaped
// /v1/stats, so pde-query -cluster -codec wire discovers it the same
// way it would a daemon's.
func (c *Coordinator) ServeWire(ln net.Listener) *WireRelay {
	addr := ln.Addr().String()
	c.wireAddr.Store(&addr)
	return wire.Listen(ln, wire.DefaultMaxBatch, func() wire.Handler { return &relayConn{c: c} })
}

// relayConn is the relay's wire.Handler, one client connection's state:
// the bound shard, its current upstream and the daemon that leads to.
type relayConn struct {
	c     *Coordinator
	shard string
	up    *wire.Conn
	upB   *backend   // the daemon up is connected to; nil with up
	reps  []*backend // replicas() scratch
}

func (st *relayConn) Close() { st.dropUpstream() }

func (st *relayConn) dropUpstream() {
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
func (st *relayConn) replicas(shard string) []*backend {
	st.reps = append(st.reps[:0], st.c.replicasFor(shard)...)
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
func (st *relayConn) connect(b *backend, shard string) (alive bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), st.c.policy.probeTimeout)
	stats, err := b.client.Stats(ctx)
	cancel()
	if err != nil {
		return false, err
	}
	if stats.WireAddr == "" {
		return true, errors.New("serves no wire endpoint (-wire-addr)")
	}
	uc, err := wire.DialTimeout(server.ResolveWireAddr(b.url, stats.WireAddr), st.c.policy.probeTimeout)
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

// Bind resolves the shard and establishes the upstream; the client's
// Bound frame carries the upstream's node count and serving fingerprint.
func (st *relayConn) Bind(name string) (int32, uint64, *wire.RemoteError) {
	if len(st.c.replicasFor(name)) == 0 {
		return 0, 0, &wire.RemoteError{Code: wire.ErrCodeUnknownShard, Message: "no daemon serves shard " + name}
	}
	st.dropUpstream()
	err := st.c.sweep(context.Background(), st.replicas(name), func(b *backend) (bool, error) {
		return st.connect(b, name)
	})
	if err != nil {
		return 0, 0, &wire.RemoteError{Code: wire.ErrCodeUpstream, Message: "shard " + name + ": " + err.Error()}
	}
	st.shard = name
	return st.up.N(), st.up.FingerprintRaw(), nil
}

// Answer forwards one Estimate or NextHop frame through the upstream,
// moving it across replicas under the coordinator's failover sweep when
// it breaks. The upstream decode fills the batch, so the records re-encode
// bit-identically: the relay changes the correlation id and nothing else.
// Protocol errors from the daemon (out_of_range above all) relay verbatim.
func (st *relayConn) Answer(b *wire.Batch) (uint64, *wire.RemoteError) {
	var fp uint64
	var refusal *wire.RemoteError
	err := st.c.sweep(context.Background(), st.replicas(st.shard), func(be *backend) (bool, error) {
		if st.upB != be {
			st.dropUpstream()
			if alive, err := st.connect(be, st.shard); err != nil {
				return alive, err
			}
		}
		var qerr error
		if b.Type == wire.FrameEstimate {
			fp, qerr = st.up.Estimate(b.Qs, b.Out)
		} else {
			fp, qerr = st.up.NextHop(b.Qs, b.Hops)
		}
		if qerr == nil {
			return true, nil
		}
		if errors.As(qerr, &refusal) {
			// The daemon answered: a protocol-level refusal
			// (out_of_range, too_large) is identical on every replica,
			// so it settles the request like an answer does.
			return true, nil
		}
		st.dropUpstream()
		return false, qerr
	})
	switch {
	case err != nil:
		return 0, &wire.RemoteError{Code: wire.ErrCodeUpstream,
			Message: fmt.Sprintf("shard %s: every replica failed: %v", st.shard, err)}
	case refusal != nil:
		if refusal.Fatal() {
			st.dropUpstream()
		}
		return 0, refusal
	}
	st.c.proxied.Add(1)
	return fp, nil
}
