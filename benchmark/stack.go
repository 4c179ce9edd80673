package main

import (
	"fmt"
	"net"
	"net/http"

	"pde/internal/cluster"
	"pde/internal/scheme"
	"pde/internal/server"
	"pde/internal/wire"
)

// shardName is the one shard every daemon of the benchmark serves.
const shardName = "bench"

// httpListener serves h on a loopback socket until close.
type httpListener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listenHTTP(h http.Handler) (*httpListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &httpListener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *httpListener) close() {
	_ = l.srv.Close()
	<-l.done
}

// daemon is one in-process pde-serve: the HTTP endpoints and the PDE2
// listener over the same shard slots, both on 127.0.0.1.
type daemon struct {
	srv  *server.Server
	http *httpListener
	wire *wire.Server
}

// bootDaemon serves inst the way cmd/pde-serve does. An oracle instance
// is handed over prebuilt (the daemon recompiles its tables, which is
// part of boot); other schemes are built by the daemon from the spec.
func bootDaemon(sp scheme.Spec, inst scheme.Instance) (*daemon, error) {
	var srv *server.Server
	var err error
	if oi, ok := inst.(*scheme.OracleInstance); ok {
		srv, err = server.NewWithPrebuilt(server.Config{},
			server.Prebuilt{Name: shardName, Spec: oi.Sp, G: oi.Gr, Res: oi.Res, BuildNS: oi.BuildNS()})
	} else {
		srv, err = server.New(map[string]server.Spec{shardName: sp}, server.Config{})
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	d := &daemon{srv: srv}
	if d.http, err = listenHTTP(srv); err != nil {
		d.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.wire = wire.Serve(ln, srv, wire.Config{})
	srv.SetWireAddr(d.wire.Addr())
	return d, nil
}

func (d *daemon) close() {
	if d.wire != nil {
		_ = d.wire.Close()
	}
	if d.http != nil {
		d.http.close()
	}
	d.srv.Close()
}

// dial opens a bound PDE2 connection to addr.
func dial(addr string) (*wire.Conn, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if _, _, err := c.Bind(shardName); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// client returns an HTTP client of the daemon protocol with its own
// keep-alive connection pool.
func client(baseURL string) *server.Client {
	return &server.Client{BaseURL: baseURL, Shard: shardName, HTTP: &http.Client{Transport: server.DefaultTransport()}}
}

// fleet is a coordinator with its PDE2 relay in front of daemons that
// all serve the same instance.
type fleet struct {
	daemons []*daemon
	coord   *cluster.Coordinator
	front   *httpListener
	relay   *cluster.WireRelay
}

func bootFleet(sp scheme.Spec, inst scheme.Instance, daemons int) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, daemons)
	for i := range urls {
		d, err := bootDaemon(sp, inst)
		if err != nil {
			f.close()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		urls[i] = d.http.url
	}
	var err error
	if f.coord, err = cluster.New(cluster.Config{Daemons: urls}); err != nil {
		f.close()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if f.front, err = listenHTTP(f.coord); err != nil {
		f.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.relay = f.coord.ServeWire(ln)
	return f, nil
}

func (f *fleet) close() {
	if f.relay != nil {
		_ = f.relay.Close()
	}
	if f.front != nil {
		f.front.close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, d := range f.daemons {
		d.close()
	}
}
