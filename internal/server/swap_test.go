package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"pde/internal/oracle"
)

// TestHotSwapNoTornReads is the serving layer's linearizability check,
// run under -race in CI: reader goroutines hammer /v1/estimate and
// /v1/route while an admin loop performs 100 consecutive /v1/rebuild
// hot-swaps alternating between two seeds. Every response must be
// attributable — its fingerprint names one of the two known table
// generations and every answer in the body matches that generation
// exactly. A torn mix (answers from both generations in one response, or
// a fingerprint no generation owns) fails immediately, as does any
// dropped query (non-200 response) during a swap.
func TestHotSwapNoTornReads(t *testing.T) {
	const (
		rebuildCycles = 100
		readers       = 3
		routeReaders  = 1
	)
	seedA, seedB := int64(1), int64(2)
	spec := Spec{Topology: "random", N: 48, Eps: 1, MaxW: 4, Seed: seedA}

	// Precompute both table generations the server will ever serve.
	specB := spec
	specB.Seed = seedB
	shA, err := buildShard(spec)
	if err != nil {
		t.Fatalf("building generation A: %v", err)
	}
	shB, err := buildShard(specB)
	if err != nil {
		t.Fatalf("building generation B: %v", err)
	}
	if shA.fp == shB.fp {
		t.Fatalf("test needs two distinct generations, both fingerprint %s", shA.fp)
	}

	probes := make([]oracle.Query, 0, 64)
	for i := 0; i < 64; i++ {
		probes = append(probes, oracle.Query{V: int32((i * 7) % spec.N), S: int32((i * 13) % spec.N)})
	}
	expect := make(map[string][]oracle.Answer, 2)
	for _, sh := range []*shard{shA, shB} {
		out := make([]oracle.Answer, len(probes))
		sh.oracle().O.AnswerAll(probes, out)
		expect[sh.fp] = out
	}
	type routeLeg struct {
		weight int64
		hops   int
	}
	routePairs := []WirePair{{From: 0, To: 17}, {From: 5, To: 42}, {From: 31, To: 8}}
	expectRoutes := make(map[string][]routeLeg, 2)
	for _, sh := range []*shard{shA, shB} {
		legs := make([]routeLeg, len(routePairs))
		for i, p := range routePairs {
			rt, err := sh.oracle().Rtr.Route(int(p.From), p.To)
			if err != nil {
				t.Fatalf("generation %s: route %d->%d: %v", sh.fp, p.From, p.To, err)
			}
			legs[i] = routeLeg{weight: int64(rt.Weight), hops: len(rt.Path)}
		}
		expectRoutes[sh.fp] = legs
	}

	srv, err := NewWithPrebuilt(Config{},
		Prebuilt{Name: "main", Spec: spec, G: shA.g, Res: shA.oracle().Res})
	if err != nil {
		t.Fatalf("NewWithPrebuilt: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := ts.Client()

	var (
		stop      atomic.Bool
		served    atomic.Int64
		swapsSeen atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		failure   error
	)
	fail := func(err error) {
		mu.Lock()
		if failure == nil {
			failure = err
			stop.Store(true)
		}
		mu.Unlock()
	}
	body := EncodeQueries(probes)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastFP := ""
			for !stop.Load() {
				resp, err := client.Post(ts.URL+"/v1/estimate?shard=main", ContentTypeBinary, bytes.NewReader(body))
				if err != nil {
					fail(fmt.Errorf("estimate POST: %w", err))
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail(fmt.Errorf("estimate body: %w", err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("estimate dropped during swap: status %d: %s", resp.StatusCode, data))
					return
				}
				fp := resp.Header.Get("X-Pde-Fingerprint")
				want, known := expect[fp]
				if !known {
					fail(fmt.Errorf("response fingerprint %q is neither generation (torn swap?)", fp))
					return
				}
				got, err := DecodeAnswers(data)
				if err != nil {
					fail(fmt.Errorf("decode answers: %w", err))
					return
				}
				for i := range want {
					if got[i] != want[i] {
						fail(fmt.Errorf("torn read: response stamped %s but answer %d is %+v, want %+v",
							fp, i, got[i], want[i]))
						return
					}
				}
				if fp != lastFP {
					if lastFP != "" {
						swapsSeen.Add(1)
					}
					lastFP = fp
				}
				served.Add(int64(len(probes)))
			}
		}()
	}
	for r := 0; r < routeReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqBody, _ := json.Marshal(RouteRequest{Shard: "main", Pairs: routePairs})
			for !stop.Load() {
				resp, err := client.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					fail(fmt.Errorf("route POST: %w", err))
					return
				}
				var rr RouteResponse
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil {
					fail(fmt.Errorf("route decode: %w", err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("route dropped during swap: status %d", resp.StatusCode))
					return
				}
				want, known := expectRoutes[rr.Fingerprint]
				if !known {
					fail(fmt.Errorf("route fingerprint %q is neither generation", rr.Fingerprint))
					return
				}
				for i, leg := range want {
					got := rr.Routes[i]
					if !got.OK || int64(got.Weight) != leg.weight || len(got.Path) != leg.hops {
						fail(fmt.Errorf("torn route: stamped %s but route %d is %+v, want %+v",
							rr.Fingerprint, i, got, leg))
						return
					}
				}
				served.Add(int64(len(routePairs)))
			}
		}()
	}

	fps := map[int64]string{seedA: shA.fp, seedB: shB.fp}
	for cycle := 0; cycle < rebuildCycles; cycle++ {
		seed := seedA
		if cycle%2 == 0 {
			seed = seedB
		}
		reqBody, _ := json.Marshal(RebuildRequest{Shard: "main", Seed: &seed})
		resp, err := client.Post(ts.URL+"/v1/rebuild", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("cycle %d: rebuild POST: %v", cycle, err)
		}
		var rb RebuildResponse
		err = json.NewDecoder(resp.Body).Decode(&rb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cycle %d: rebuild status %d, decode err %v", cycle, resp.StatusCode, err)
		}
		if rb.NewFingerprint != fps[seed] {
			t.Fatalf("cycle %d: rebuild produced %s, want deterministic %s", cycle, rb.NewFingerprint, fps[seed])
		}
		if !rb.Changed {
			t.Fatalf("cycle %d: alternating seeds must always change the fingerprint", cycle)
		}
		if err := func() error { mu.Lock(); defer mu.Unlock(); return failure }(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
	t.Logf("served %d queries across %d hot-swaps; readers observed %d generation changes",
		served.Load(), rebuildCycles, swapsSeen.Load())
	if served.Load() == 0 {
		t.Fatal("readers served no queries — the race window never opened")
	}
}

// TestHotSwapShrinkDoesNotCrash pins validation/answer coherence: a
// request's node ids are range-checked against the snapshot its handler
// loaded, and answered from exactly that snapshot, even when a
// concurrent rebuild has replaced it with a *smaller* graph. Were the
// snapshot loaded a second time for answering, a query validated against
// the big generation could be answered — or panic — against the small
// one; every 200 response must be internally consistent with its stamped
// generation, and the daemon must survive the whole shrink/grow churn.
func TestHotSwapShrinkDoesNotCrash(t *testing.T) {
	big := Spec{Topology: "random", N: 48, Eps: 1, MaxW: 4, Seed: 1}
	small := big
	small.N = 24
	small.Seed = 2
	shBig, err := buildShard(big)
	if err != nil {
		t.Fatal(err)
	}
	shSmall, err := buildShard(small)
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]*shard{shBig.fp: shBig, shSmall.fp: shSmall}

	srv, err := NewWithPrebuilt(Config{}, Prebuilt{Name: "main", Spec: big, G: shBig.g, Res: shBig.oracle().Res})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := ts.Client()

	// Probes deliberately include ids valid only in the big generation.
	probes := make([]oracle.Query, 0, 32)
	for i := 0; i < 32; i++ {
		probes = append(probes, oracle.Query{V: int32((i * 3) % big.N), S: int32((i*11 + 40) % big.N)})
	}
	body := EncodeQueries(probes)

	var stop atomic.Bool
	var failure atomic.Pointer[string]
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failure.CompareAndSwap(nil, &msg)
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Post(ts.URL+"/v1/estimate?shard=main", ContentTypeBinary, bytes.NewReader(body))
				if err != nil {
					fail("estimate POST: %v", err)
					return
				}
				data, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					fail("read body: %v", rerr)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					fp := resp.Header.Get("X-Pde-Fingerprint")
					sh, known := gens[fp]
					if !known {
						fail("unknown fingerprint %q", fp)
						return
					}
					got, derr := DecodeAnswers(data)
					if derr != nil {
						fail("decode: %v", derr)
						return
					}
					for i, q := range probes {
						e, ok := sh.oracle().O.Estimate(int(q.V), q.S)
						if (oracle.Answer{Est: e, OK: ok}) != got[i] {
							fail("answer %d inconsistent with stamped generation %s", i, fp)
							return
						}
					}
				case http.StatusBadRequest:
					// out_of_range against the currently-small snapshot at
					// ingress: a valid refusal, not a drop.
				default:
					fail("unexpected status %d: %s", resp.StatusCode, data)
					return
				}
			}
		}()
	}
	for cycle := 0; cycle < 20 && !stop.Load(); cycle++ {
		spec := small
		if cycle%2 == 1 {
			spec = big
		}
		reqBody, _ := json.Marshal(RebuildRequest{Shard: "main", N: &spec.N, Seed: &spec.Seed})
		resp, err := client.Post(ts.URL+"/v1/rebuild", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("cycle %d: rebuild: %v", cycle, err)
		}
		var rb RebuildResponse
		err = json.NewDecoder(resp.Body).Decode(&rb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("cycle %d: rebuild status %d err %v", cycle, resp.StatusCode, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := failure.Load(); msg != nil {
		t.Fatal(*msg)
	}
	// The daemon is still alive and serving.
	if resp, err := client.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after shrink swaps: %v", err)
	} else {
		resp.Body.Close()
	}
}
