package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"pde/internal/cluster"
	"pde/internal/oracle"
	"pde/internal/server"
	"pde/internal/wire"
)

// One frame loop serves two handlers — the daemon's, answering from its
// tables, and the cluster relay's, answering through an upstream daemon —
// so one table of hostile input is thrown at both, raw bytes over
// loopback, and both must answer it the same way: the same Error frame,
// byte for byte, and the same fate for the connection.

// hostileCase is one frame a well-behaved client never sends.
type hostileCase struct {
	name string
	bind bool // send a valid Bind first (query frames need a bound shard)
	raw  []byte
	code uint16 // the Error frame's code
	// own: the refusal's text is the handler's own (the daemon lists its
	// shards, the relay its fleet's), so only code and fate are compared.
	own bool
}

func frame(t wire.FrameType, corr uint64, payload []byte) []byte {
	buf := make([]byte, wire.HeaderSize+len(payload))
	wire.PutHeader(buf, t, corr, len(payload))
	copy(buf[wire.HeaderSize:], payload)
	return buf
}

func queryFrame(corr uint64, qs ...oracle.Query) []byte {
	payload := make([]byte, wire.QueryPayloadLen(len(qs)))
	wire.PutQueryPayload(payload, qs)
	return frame(wire.FrameEstimate, corr, payload)
}

// bootBoth starts a daemon serving shard "alpha" (8 nodes, 16 queries a
// frame at most) and a relay in front of it, and returns their PDE2
// addresses by handler name.
func bootBoth(t *testing.T) map[string]string {
	t.Helper()
	srv, err := server.New(map[string]server.Spec{
		"alpha": {Topology: "ring", N: 8, Eps: 1, MaxW: 2, Seed: 1},
	}, server.Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	ws := wire.Serve(listen(), srv, wire.Config{MaxBatch: 16})
	srv.SetWireAddr(ws.Addr())
	ts := httptest.NewServer(srv)
	coord, err := cluster.New(cluster.Config{Daemons: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	relay := coord.ServeWire(listen())
	t.Cleanup(func() {
		relay.Close()
		coord.Close()
		ts.Close()
		ws.Close()
	})
	return map[string]string{"daemon": ws.Addr(), "relay": relay.Addr()}
}

// exchange sends tc to addr and returns the Error frame that came back.
// With open set the connection must survive it (a Ping sent behind the
// hostile frame is answered); otherwise the server must close it after
// the Error frame — a bounded read terminates, nothing hangs.
func exchange(t *testing.T, addr string, tc hostileCase, open bool) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if tc.bind {
		if _, err := nc.Write(frame(wire.FrameBind, 1, []byte("alpha"))); err != nil {
			t.Fatal(err)
		}
		bound := make([]byte, wire.HeaderSize+wire.BoundPayloadLen)
		if _, err := io.ReadFull(nc, bound); err != nil {
			t.Fatalf("reading Bound reply: %v", err)
		}
	}
	send := tc.raw
	if open {
		send = append(append([]byte(nil), tc.raw...), frame(wire.FramePing, 77, nil)...)
	}
	if _, err := nc.Write(send); err != nil {
		t.Fatal(err)
	}
	var reply []byte
	if open {
		hdr := make([]byte, wire.HeaderSize)
		if _, err := io.ReadFull(nc, hdr); err != nil {
			t.Fatalf("reading the Error frame: %v", err)
		}
		_, _, plen, _ := wire.ParseHeader(hdr)
		reply = append(hdr, make([]byte, plen)...)
		if _, err := io.ReadFull(nc, reply[wire.HeaderSize:]); err != nil {
			t.Fatalf("reading the Error payload: %v", err)
		}
		pong := make([]byte, wire.HeaderSize)
		if _, err := io.ReadFull(nc, pong); err != nil {
			t.Fatalf("connection did not survive a non-fatal error: %v", err)
		}
		if tt, corr, _, err := wire.ParseHeader(pong); err != nil || tt != wire.FramePong || corr != 77 {
			t.Fatalf("after the Error frame: %v corr %d (%v), want Pong 77", tt, corr, err)
		}
	} else if reply, err = io.ReadAll(io.LimitReader(nc, 1<<16)); err != nil {
		t.Fatalf("connection was not closed after a fatal error: %v", err)
	}
	tt, _, plen, err := wire.ParseHeader(reply)
	if err != nil || tt != wire.FrameError || len(reply) != wire.HeaderSize+int(plen) {
		t.Fatalf("reply is not exactly one Error frame: % x", reply[:min(len(reply), 32)])
	}
	code, msg, err := wire.ParseErrorPayload(reply[wire.HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if code != tc.code {
		t.Fatalf("error code %d (%s), want %d", code, msg, tc.code)
	}
	return reply
}

func runHostile(t *testing.T, cases []hostileCase, open bool) {
	addrs := bootBoth(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			daemon := exchange(t, addrs["daemon"], tc, open)
			relay := exchange(t, addrs["relay"], tc, open)
			if !tc.own && !bytes.Equal(daemon, relay) {
				t.Fatalf("daemon and relay answer differently:\n% x\n% x", daemon, relay)
			}
		})
	}
}

// TestMalformedFrames: input that destroys the stream boundary is answered
// with a fatal bad_frame and a close, never a hang or a panic.
func TestMalformedFrames(t *testing.T) {
	runHostile(t, []hostileCase{
		{name: "bad magic", raw: []byte("NOPE0123456789abcdef"), code: wire.ErrCodeBadFrame},
		{name: "nonzero flags", raw: func() []byte {
			b := frame(wire.FramePing, 1, nil)
			b[5] = 1
			return b
		}(), code: wire.ErrCodeBadFrame},
		{name: "unknown type", raw: frame(wire.FrameType(0x55), 1, nil), code: wire.ErrCodeBadFrame},
		{name: "lying length prefix", raw: func() []byte {
			b := frame(wire.FrameEstimate, 1, nil)
			binary.LittleEndian.PutUint32(b[16:20], 1<<30) // header promises 1 GiB
			return b
		}(), code: wire.ErrCodeBadFrame},
		{name: "count mismatch", bind: true, raw: func() []byte {
			payload := make([]byte, 4+8)              // one record...
			binary.LittleEndian.PutUint32(payload, 2) // ...claiming two
			return frame(wire.FrameEstimate, 2, payload)
		}(), code: wire.ErrCodeBadFrame},
		{name: "empty bind", raw: frame(wire.FrameBind, 1, nil), code: wire.ErrCodeBadFrame},
		{name: "truncated estimate payload", bind: true, raw: frame(wire.FrameEstimate, 2, []byte{1, 0}), code: wire.ErrCodeBadFrame},
		{name: "empty batch", bind: true, raw: queryFrame(2), code: wire.ErrCodeBadFrame},
	}, false)
}

// TestErrorFrames: a refusal that leaves the stream boundary intact leaves
// the connection usable.
func TestErrorFrames(t *testing.T) {
	over := make([]oracle.Query, 17) // one above the daemon's MaxBatch
	runHostile(t, []hostileCase{
		{name: "unknown shard", raw: frame(wire.FrameBind, 1, []byte("nope")), code: wire.ErrCodeUnknownShard, own: true},
		{name: "not bound", raw: queryFrame(2, oracle.Query{V: 1, S: 2}), code: wire.ErrCodeNotBound},
		{name: "out of range keeps connection", bind: true, raw: queryFrame(2, oracle.Query{V: 99, S: 2}), code: wire.ErrCodeOutOfRange},
		{name: "too large", bind: true, raw: queryFrame(2, over...), code: wire.ErrCodeTooLarge},
	}, true)
}

// corruptingConn sets a flags byte in the header of the corruptAt-th
// frame written through it (the client flushes one frame per Write).
type corruptingConn struct {
	net.Conn
	writes, corruptAt int
}

func (c *corruptingConn) Write(b []byte) (int, error) {
	if c.writes++; c.writes == c.corruptAt {
		b = append([]byte(nil), b...)
		b[5] = 1
	}
	return c.Conn.Write(b)
}

// TestClientReadsCorrZeroError is the hostile table's client half: the
// accept loop answers a header it cannot parse with a fatal bad_frame
// under correlation id 0 (it never learned the real one). Both faces of
// the client read path — the synchronous call and a pipelined slot —
// must report that Error frame, not a correlation mismatch, against the
// daemon and the relay alike.
func TestClientReadsCorrZeroError(t *testing.T) {
	addrs := bootBoth(t)
	for _, mode := range []string{"sync", "pipelined"} {
		for _, name := range []string{"daemon", "relay"} {
			t.Run(mode+"/"+name, func(t *testing.T) {
				nc, err := net.Dial("tcp", addrs[name])
				if err != nil {
					t.Fatal(err)
				}
				c := wire.NewConn(&corruptingConn{Conn: nc, corruptAt: 2}) // 1 is the Bind
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				if _, _, err := c.Bind("alpha"); err != nil {
					t.Fatal(err)
				}
				qs, out := []oracle.Query{{V: 1, S: 2}}, make([]oracle.Answer, 1)
				var got error
				if mode == "sync" {
					_, got = c.Estimate(qs, out)
				} else {
					p, err := c.NewPipeline(2)
					if err != nil {
						t.Fatal(err)
					}
					var res wire.Result
					if err := p.Estimate(qs, out, &res); err != nil {
						t.Fatal(err)
					}
					if err := p.Close(); err != res.Err {
						t.Fatalf("pipeline closed with %v, the frame's result holds %v", err, res.Err)
					}
					got = res.Err
				}
				var rerr *wire.RemoteError
				if !errors.As(got, &rerr) || rerr.Code != wire.ErrCodeBadFrame {
					t.Fatalf("client reports %v, want the server's bad_frame Error frame", got)
				}
			})
		}
	}
}
