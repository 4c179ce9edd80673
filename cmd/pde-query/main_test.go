package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pde/internal/cluster"
	"pde/internal/server"
	"pde/internal/wire"
)

// The tests boot what the CI serve-smoke and cluster-smoke jobs boot —
// server.Server behind HTTP, wire.Serve on a loopback listener,
// cluster.New in front — in-process, and drive every mode through run(),
// the function main calls.

// sweepSpec is a partial (h, σ) shard: most uniform pairs have no table
// entry, so "delivered" is a number the codecs can disagree on.
var sweepSpec = server.Spec{Topology: "random", N: 48, Eps: 1, MaxW: 4, Seed: 3, H: 3, Sigma: 5}

// apspSpec is the tiny APSP shard the churn and cluster tests replicate.
var apspSpec = server.Spec{Topology: "random", N: 24, Eps: 1, MaxW: 4, Seed: 2}

// bootDaemon starts one daemon with a PDE2 endpoint; wrap, when set,
// stands between the wire server and its listener.
func bootDaemon(t *testing.T, specs map[string]server.Spec, wrap func(net.Listener) net.Listener) *httptest.Server {
	t.Helper()
	srv, err := server.New(specs, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	ws := wire.Serve(ln, srv, wire.Config{})
	srv.SetWireAddr(ws.Addr())
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ws.Close()
		srv.Close()
	})
	return ts
}

// query runs pde-query in-process and returns its exit code and streams.
func query(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// queryJSON runs pde-query -json, requires exit 0 and decodes stdout
// strictly: anything but one JSON document there fails the test.
func queryJSON[T any](t *testing.T, args ...string) T {
	t.Helper()
	code, stdout, stderr := query(append(args, "-json")...)
	return decodeReport[T](t, args, code, stdout, stderr)
}

func decodeReport[T any](t *testing.T, args []string, code int, stdout, stderr string) T {
	t.Helper()
	if code != 0 {
		t.Fatalf("pde-query %v: exit %d\nstderr: %s", args, code, stderr)
	}
	var v T
	dec := json.NewDecoder(strings.NewReader(stdout))
	if err := dec.Decode(&v); err != nil || dec.More() {
		t.Fatalf("pde-query %v: stdout is not one JSON document (%v):\n%s", args, err, stdout)
	}
	return v
}

func shardStatus(t *testing.T, base, shard string) server.ShardStatus {
	t.Helper()
	st, err := (&server.Client{BaseURL: base}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.Shards[shard]
}

// TestStreamCodecsAgree: one seeded stream delivers the same count over
// the binary, JSON and pipelined PDE2 codecs, and every wire frame is
// stamped with the generation /v1/stats reports.
func TestStreamCodecsAgree(t *testing.T) {
	ts := bootDaemon(t, map[string]server.Spec{"main": sweepSpec}, nil)
	fp := shardStatus(t, ts.URL, "main").Fingerprint
	for _, workload := range []string{"estimate", "nexthop"} {
		var want int
		for _, codec := range []string{"binary", "json", "wire"} {
			sum := queryJSON[summary](t, "-remote", ts.URL, "-workload", workload, "-codec", codec,
				"-depth", "4", "-queries", "3000", "-batch", "128", "-workers", "2")
			if sum.Delivered <= 0 || sum.Delivered >= sum.Queries {
				t.Fatalf("%s/%s: delivered %d of %d on a partial-sweep shard", workload, codec, sum.Delivered, sum.Queries)
			}
			if codec == "binary" {
				want = sum.Delivered
			}
			if sum.Delivered != want {
				t.Errorf("%s/%s delivered %d, binary delivered %d", workload, codec, sum.Delivered, want)
			}
			if sum.RemoteFP != fp || sum.QPS <= 0 || sum.N != 48 {
				t.Errorf("%s/%s summary: %+v", workload, codec, sum)
			}
			if wantFPs := []string{fp}; codec == "wire" && (!slices.Equal(sum.WireFPs, wantFPs) || sum.Depth != 4) {
				t.Errorf("%s/wire: fingerprints %v depth %d, want %v depth 4", workload, sum.WireFPs, sum.Depth, wantFPs)
			}
		}
	}
	if got := shardStatus(t, ts.URL, "main").Queries.Total; got != 6*3000 {
		t.Errorf("daemon counted %d queries, the six runs fired %d", got, 6*3000)
	}
}

// TestRoute: routes are always JSON whatever -codec says, and pairs the
// partial sweep cannot route are counted, not fatal.
func TestRoute(t *testing.T) {
	ts := bootDaemon(t, map[string]server.Spec{"main": sweepSpec}, nil)
	sum := queryJSON[summary](t, "-remote", ts.URL, "-workload", "route", "-queries", "200", "-batch", "50")
	if sum.Codec != "json" || sum.Delivered <= 0 || sum.Delivered >= 200 {
		t.Errorf("route summary: %+v", sum)
	}
	if code, stdout, _ := query("-remote", ts.URL, "-workload", "route", "-queries", "50"); code != 0 ||
		!strings.Contains(stdout, "pde-query: served 50 queries") {
		t.Errorf("prose route run: exit %d\n%s", code, stdout)
	}
}

type setDistReport struct {
	server.SetDistResponse
	WallNS int64 `json:"wall_ns"`
}

// TestSetDist: both codecs and both engines return the same aggregates,
// stamped with the serving generation.
func TestSetDist(t *testing.T) {
	ts := bootDaemon(t, map[string]server.Spec{"main": apspSpec}, nil)
	fp := shardStatus(t, ts.URL, "main").Fingerprint
	base := []string{"-remote", ts.URL, "-setdist", "-set-a", "8", "-set-b", "12"}
	bin := queryJSON[setDistReport](t, append(base, "-codec", "binary")...)
	if !bin.AB.Finite || !bin.BA.Finite || bin.Pairs != 2*8*12 || bin.Evaluated > bin.Pairs ||
		bin.Fingerprint != fp || bin.WallNS <= 0 {
		t.Fatalf("binary setdist: %+v", bin)
	}
	for name, args := range map[string][]string{
		"json":         {"-codec", "json"},
		"binary naive": {"-codec", "binary", "-naive"},
		"json naive":   {"-codec", "json", "-naive"},
	} {
		got := queryJSON[setDistReport](t, append(base, args...)...)
		if got.AB != bin.AB || got.BA != bin.BA || got.Hausdorff != bin.Hausdorff {
			t.Errorf("%s disagrees with binary pruned:\n%+v\n%+v", name, got, bin)
		}
		if strings.HasSuffix(name, "naive") && got.Evaluated <= bin.Evaluated {
			t.Errorf("%s evaluated %d pairs, the pruned engine %d", name, got.Evaluated, bin.Evaluated)
		}
	}
	if code, stdout, _ := query(base...); code != 0 || !strings.Contains(stdout, "pde-query: A->B {Chamfer:") {
		t.Errorf("prose setdist run: exit %d\n%s", code, stdout)
	}
}

// TestUpdates: a verified churn stream ends on the fingerprint the
// daemon then serves, and a shard it has mutated is refused.
func TestUpdates(t *testing.T) {
	ts := bootDaemon(t, map[string]server.Spec{"main": apspSpec}, nil)
	before := shardStatus(t, ts.URL, "main").Fingerprint
	sum := queryJSON[updateSummary](t, "-remote", ts.URL, "-updates", "5", "-update-verify")
	if sum.Updates != 5 || sum.Verified != 5 || sum.DeltaUpdates != 5 || sum.RebuildUpdates != 0 {
		t.Errorf("churn summary: %+v", sum)
	}
	after := shardStatus(t, ts.URL, "main")
	if sum.Fingerprint != after.Fingerprint || sum.Fingerprint == before || !after.Mutated {
		t.Errorf("summary ends on %s; daemon went %s -> %s (mutated %t)", sum.Fingerprint, before, after.Fingerprint, after.Mutated)
	}
	code, stdout, stderr := query("-remote", ts.URL, "-updates", "1")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "already mutated") {
		t.Errorf("second churn run: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if _, err := (&server.Client{BaseURL: ts.URL, Shard: "main"}).Rebuild(context.Background(), server.RebuildRequest{}); err != nil {
		t.Fatal(err)
	}
	if code, stdout, stderr := query("-remote", ts.URL, "-updates", "2"); code != 0 || !strings.Contains(stdout, "2 updates (2 delta") {
		t.Errorf("prose churn run after a rebuild: exit %d\n%s%s", code, stdout, stderr)
	}
}

// bootCluster fronts two daemons that replicate specs with a coordinator
// and its PDE2 relay.
func bootCluster(t *testing.T, specs map[string]server.Spec) *httptest.Server {
	t.Helper()
	coord, err := cluster.New(cluster.Config{
		Daemons:       []string{bootDaemon(t, specs, nil).URL, bootDaemon(t, specs, nil).URL},
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay := coord.ServeWire(ln)
	ts := httptest.NewServer(coord)
	t.Cleanup(func() {
		ts.Close()
		relay.Close()
		coord.Close()
	})
	return ts
}

// TestCluster: through a coordinator every mode works unchanged, the
// banner goes to stderr with its shard lines in name order, and stdout
// stays one JSON document. The parent ranged over the placement map, so
// its shard lines changed order run to run — past eight shards, that is:
// a smaller Go map iterates in insertion order from a random start.
func TestCluster(t *testing.T) {
	specs := map[string]server.Spec{}
	for _, name := range strings.Fields("golf alpha echo bravo foxtrot delta charlie india hotel kilo juliet lima") {
		specs[name] = apspSpec
	}
	ts := bootCluster(t, specs)

	code, stdout, stderr := query("-cluster", ts.URL, "-shard", "echo", "-queries", "500", "-batch", "64", "-workers", "2", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var sum summary
	if err := json.Unmarshal([]byte(stdout), &sum); err != nil || sum.Delivered != 500 || sum.Shard != "echo" {
		t.Errorf("stdout is not the summary (%v):\n%s", err, stdout)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(lines) != 13 || !strings.Contains(lines[0], "2/2 daemons healthy, 12 shard(s)") {
		t.Fatalf("banner:\n%s", stderr)
	}
	var shards []string
	for _, line := range lines[1:] {
		var name string
		if _, err := fmt.Sscanf(line, "pde-query:   shard %q ->", &name); err != nil || !strings.HasSuffix(line, "(2 healthy)") {
			t.Fatalf("banner line %q: %v", line, err)
		}
		shards = append(shards, name)
	}
	if !slices.IsSorted(shards) {
		t.Errorf("banner lists shards as %v, want name order", shards)
	}

	if sum := queryJSON[summary](t, "-cluster", ts.URL, "-shard", "alpha", "-codec", "wire", "-depth", "2",
		"-queries", "500", "-batch", "64"); sum.Delivered != 500 || len(sum.WireFPs) != 1 {
		t.Errorf("wire stream through the relay: %+v", sum)
	}
	if churn := queryJSON[updateSummary](t, "-cluster", ts.URL, "-shard", "bravo", "-updates", "3", "-update-verify"); churn.Verified != 3 || churn.DeltaUpdates != 3 {
		t.Errorf("churn through the coordinator: %+v", churn)
	}
	if code, _, stderr := query("-cluster", bootDaemon(t, map[string]server.Spec{"main": apspSpec}, nil).URL); code != 1 ||
		!strings.Contains(stderr, "/v1/cluster") {
		t.Errorf("-cluster at a plain daemon: exit %d, stderr %q", code, stderr)
	}
}

// TestWireStreamAcrossRebuild: a pipelined stream that a /v1/rebuild
// hot-swaps under finishes clean and reports the old generation, the new
// one, or both — never a third.
func TestWireStreamAcrossRebuild(t *testing.T) {
	ts := bootDaemon(t, map[string]server.Spec{"main": apspSpec}, nil)
	old := shardStatus(t, ts.URL, "main").Fingerprint
	args := []string{"-remote", ts.URL, "-codec", "wire", "-depth", "4", "-queries", "600000", "-batch", "256", "-workers", "2", "-json"}
	type result struct {
		code           int
		stdout, stderr string
	}
	done := make(chan result, 1)
	go func() {
		code, stdout, stderr := query(args...)
		done <- result{code, stdout, stderr}
	}()
	for shardStatus(t, ts.URL, "main").Wire.Frames == 0 {
		select {
		case r := <-done:
			t.Fatalf("the stream ended before its first frame was counted: exit %d\n%s", r.code, r.stderr)
		case <-time.After(time.Millisecond):
		}
	}
	seed := int64(9)
	resp, err := (&server.Client{BaseURL: ts.URL, Shard: "main"}).Rebuild(context.Background(), server.RebuildRequest{Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	sum := decodeReport[summary](t, args, r.code, r.stdout, r.stderr)
	if sum.Delivered != 600000 || len(sum.WireFPs) < 1 || len(sum.WireFPs) > 2 {
		t.Fatalf("stream across the swap: %+v", sum)
	}
	t.Logf("swap %s -> %s, frames stamped %v", old, resp.NewFingerprint, sum.WireFPs)
	for _, fp := range sum.WireFPs {
		if fp != old && fp != resp.NewFingerprint {
			t.Errorf("frames stamped %s; the swap was %s -> %s", fp, old, resp.NewFingerprint)
		}
	}
}

// TestUnknownWorkloadOnWire: workload × codec is validated before
// anything is dialled. The parent checked the workload only on the HTTP
// path, so `-codec wire -workload <typo>` ran the nexthop stream and
// exited 0.
func TestUnknownWorkloadOnWire(t *testing.T) {
	ts := bootDaemon(t, map[string]server.Spec{"main": apspSpec}, nil)
	code, stdout, stderr := query("-remote", ts.URL, "-codec", "wire", "-workload", "nexthops", "-queries", "1000")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `unknown workload "nexthops"`) {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if got := shardStatus(t, ts.URL, "main").Queries.Total; got != 0 {
		t.Errorf("the daemon served %d queries of a run that should not have started", got)
	}
}

// dyingListener cuts its second connection off after budget bytes have
// come in: one of two wire workers loses its daemon mid-stream.
type dyingListener struct {
	net.Listener
	accepted atomic.Int32
	budget   int
}

func (l *dyingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil && l.accepted.Add(1) == 2 {
		c = &dyingConn{Conn: c, budget: l.budget}
	}
	return c, err
}

type dyingConn struct {
	net.Conn
	budget int
}

func (c *dyingConn) Read(p []byte) (int, error) {
	if c.budget <= 0 {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(p[:min(len(p), c.budget)])
	c.budget -= n
	return n, err
}

// TestFailedWireWorkerStopsTheFleet: the first failed frame stops every
// worker. The parent's wire driver gave each worker a fixed half of the
// stream and no stop signal, so the surviving worker fired all of its
// half — 200000 queries here — before the run reported the failure.
func TestFailedWireWorkerStopsTheFleet(t *testing.T) {
	const queries = 400000
	ts := bootDaemon(t, map[string]server.Spec{"main": apspSpec}, func(ln net.Listener) net.Listener {
		return &dyingListener{Listener: ln, budget: 8 << 10}
	})
	code, stdout, stderr := query("-remote", ts.URL, "-codec", "wire", "-depth", "4",
		"-queries", fmt.Sprint(queries), "-batch", "64", "-workers", "2", "-json")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "estimate workload over wire") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if served := shardStatus(t, ts.URL, "main").Queries.Total; served >= queries/2 {
		t.Errorf("the daemon served %d of %d queries after one of two workers had failed", served, queries)
	}
}

// TestUsageAndFailures: a bad invocation exits 2 before anything is
// dialled, a failed run exits 1, and neither writes to stdout.
func TestUsageAndFailures(t *testing.T) {
	ts := bootDaemon(t, map[string]server.Spec{"zulu": apspSpec, "main": apspSpec}, nil)
	noWire := httptest.NewServer(mustServer(t, map[string]server.Spec{"main": apspSpec}))
	defer noWire.Close()
	dead := httptest.NewServer(nil)
	dead.Close()
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no target", nil, 2, "Usage of pde-query"},
		{"both targets", []string{"-remote", ts.URL, "-cluster", ts.URL}, 2, "one of the two"},
		{"unknown flag", []string{"-remote", ts.URL, "-topology", "grid"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "Usage of pde-query"},
		{"local-mode flag is gone", []string{"-n", "64"}, 2, "flag provided but not defined"},
		{"unknown workload", []string{"-remote", ts.URL, "-workload", "estimat"}, 2, "unknown workload"},
		{"unknown codec", []string{"-remote", ts.URL, "-codec", "xml"}, 2, "unknown codec"},
		{"route over wire", []string{"-remote", ts.URL, "-codec", "wire", "-workload", "route"}, 2, "not part of the PDE2 wire protocol"},
		{"zero batch", []string{"-remote", ts.URL, "-batch", "0"}, 2, "-batch must be positive"},
		{"zero depth", []string{"-remote", ts.URL, "-codec", "wire", "-depth", "0"}, 2, "-depth must be positive"},
		{"zero queries", []string{"-remote", ts.URL, "-queries", "0"}, 2, "-queries must be positive"},
		{"setdist over wire", []string{"-remote", ts.URL, "-setdist", "-codec", "wire"}, 2, "-setdist wants binary or json"},
		{"empty set", []string{"-remote", ts.URL, "-setdist", "-set-a", "0"}, 2, "must be positive"},
		{"unknown shard", []string{"-remote", ts.URL, "-shard", "nope"}, 1, `no shard "nope" (shards: [main zulu])`},
		{"no wire endpoint", []string{"-remote", noWire.URL, "-codec", "wire"}, 1, "start pde-serve with -wire-addr"},
		{"daemon down", []string{"-remote", dead.URL}, 1, "fetching /v1/stats"},
		{"coordinator down", []string{"-cluster", dead.URL}, 1, "fetching /v1/cluster"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := query(tc.args...)
			if code != tc.code || stdout != "" || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d (want %d), stdout %q, stderr lacks %q:\n%s", code, tc.code, stdout, tc.want, stderr)
			}
		})
	}
}

func mustServer(t *testing.T, specs map[string]server.Spec) *server.Server {
	t.Helper()
	srv, err := server.New(specs, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}
