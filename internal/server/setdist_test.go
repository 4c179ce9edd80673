package server

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pde/internal/graph"
	"pde/internal/setdist"
)

// testSets is a deterministic overlapping set pair on the 32-node test
// shard.
func testSets() (a, b []int32) {
	a = []int32{0, 3, 7, 11, 19, 25, 31}
	b = []int32{3, 4, 9, 14, 22, 30} // b[0] overlaps a
	return a, b
}

// TestSetDistEndToEndJSON checks /v1/setdist (JSON) against the engine
// evaluated directly on the serving instance.
func TestSetDistEndToEndJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sh := srv.slots["main"].load()
	a, b := testSets()

	want, err := setdist.Eval(sh.inst, a, b, setdist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var resp SetDistResponse
	raw := postJSON(t, ts.URL+"/v1/setdist", &SetDistRequest{Shard: "main", A: a, B: b}, &resp)
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", raw.StatusCode)
	}
	if got := setDistResponse("main", sh.fp, want); !reflect.DeepEqual(&resp, got) {
		t.Fatalf("served %+v, engine says %+v", resp, got)
	}
	if resp.Fingerprint != sh.fp {
		t.Fatalf("fingerprint = %s, want %s", resp.Fingerprint, sh.fp)
	}
	if resp.Pruned <= 0 {
		t.Fatalf("expected some pruning on the test sets, got %+v", resp)
	}
}

// TestSetDistBinaryMatchesJSON pins the two encodings to identical
// decoded responses, fingerprint stamp included.
func TestSetDistBinaryMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a, b := testSets()
	cl := &Client{BaseURL: ts.URL, Shard: "main"}

	fromJSON, err := cl.SetDist(context.Background(), a, b, false, true)
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := cl.SetDist(context.Background(), a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromBinary) {
		t.Fatalf("JSON %+v != binary %+v", fromJSON, fromBinary)
	}
	if fromBinary.Fingerprint == "" {
		t.Fatal("binary response lost the fingerprint stamp")
	}

	// The naive reference returns the same aggregates with more work.
	naive, err := cl.SetDist(context.Background(), a, b, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if naive.AB != fromBinary.AB || naive.BA != fromBinary.BA || naive.Hausdorff != fromBinary.Hausdorff {
		t.Fatalf("naive aggregates diverge: %+v vs %+v", naive, fromBinary)
	}
	if naive.Evaluated < fromBinary.Evaluated {
		t.Fatalf("naive evaluated %d < pruned %d", naive.Evaluated, fromBinary.Evaluated)
	}
}

func TestSetDistStatsCountPairs(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	a, b := testSets()
	cl := &Client{BaseURL: ts.URL, Shard: "main"}
	if _, err := cl.SetDist(context.Background(), a, b, false, true); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 2 * int64(len(a)) * int64(len(b))
	got := st.Shards["main"].Queries
	if got.SetDist != wantPairs {
		t.Fatalf("stats setdist = %d, want %d candidate pairs", got.SetDist, wantPairs)
	}
	if got.Total < wantPairs {
		t.Fatalf("total %d does not include setdist pairs %d", got.Total, wantPairs)
	}
	_ = srv
}

func TestSetDistErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxBatch: 8})
	_ = srv
	do := func(body any) *http.Response {
		return postJSON(t, ts.URL+"/v1/setdist", body, nil)
	}
	wantErrorEnvelope(t, do(&SetDistRequest{Shard: "nope", A: []int32{1}, B: []int32{2}}),
		http.StatusNotFound, "unknown_shard")
	wantErrorEnvelope(t, do(&SetDistRequest{Shard: "main", A: nil, B: []int32{2}}),
		http.StatusBadRequest, "empty_batch")
	wantErrorEnvelope(t, do(&SetDistRequest{Shard: "main", A: []int32{1}, B: nil}),
		http.StatusBadRequest, "empty_batch")
	wantErrorEnvelope(t, do(&SetDistRequest{Shard: "main", A: []int32{1, 99}, B: []int32{2}}),
		http.StatusBadRequest, "out_of_range")
	wantErrorEnvelope(t, do(&SetDistRequest{Shard: "main", A: []int32{1}, B: []int32{-3}}),
		http.StatusBadRequest, "out_of_range")
	wantErrorEnvelope(t, do(&SetDistRequest{Shard: "main", A: []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}, B: []int32{2}}),
		http.StatusRequestEntityTooLarge, "batch_too_large")

	resp, err := http.Get(ts.URL + "/v1/setdist")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantErrorEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")

	// Binary without ?shard=, and with a corrupt frame.
	resp, err = http.Post(ts.URL+"/v1/setdist", ContentTypeBinary, bytes.NewReader(EncodeSetDistQuery([]int32{1}, []int32{2})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantErrorEnvelope(t, resp, http.StatusBadRequest, "bad_request")

	frame := EncodeSetDistQuery([]int32{1}, []int32{2})
	resp, err = http.Post(ts.URL+"/v1/setdist?shard=main", ContentTypeBinary, bytes.NewReader(frame[:len(frame)-2]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantErrorEnvelope(t, resp, http.StatusBadRequest, "bad_request")
}

func TestSetDistQueryCodecRoundTrip(t *testing.T) {
	a := []int32{5, 0, 7, 7}
	b := []int32{2}
	gotA, gotB, err := DecodeSetDistQuery(EncodeSetDistQuery(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, a) || !reflect.DeepEqual(gotB, b) {
		t.Fatalf("round trip: (%v, %v) != (%v, %v)", gotA, gotB, a, b)
	}
	for name, data := range map[string][]byte{
		"short":      {1, 2, 3},
		"bad magic":  append([]byte("PDEQ"), make([]byte, 16)...),
		"bad length": append(EncodeSetDistQuery(a, b), 0),
	} {
		if _, _, err := DecodeSetDistQuery(data); err == nil {
			t.Errorf("%s: want decode error", name)
		}
	}
}

// TestSetDistAnswerCodecRoundTrip pins the PDSA frame, including the raw
// IEEE +Inf that JSON cannot carry.
func TestSetDistAnswerCodecRoundTrip(t *testing.T) {
	inf := math.Inf(1)
	res := &setdist.Result{
		AB:        setdist.Aggregates{Chamfer: 12.5, Hausdorff: 4.25, MeanMin: 2.5, Members: 5, Unreachable: 0},
		BA:        setdist.Aggregates{Chamfer: inf, Hausdorff: inf, MeanMin: inf, Members: 3, Unreachable: 2},
		Hausdorff: inf,
		Pairs:     30, Evaluated: 11, Pruned: 19,
	}
	got, err := DecodeSetDistAnswer(EncodeSetDistAnswer(res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip: %+v != %+v", got, res)
	}
	frame := EncodeSetDistAnswer(res)
	for name, data := range map[string][]byte{
		"truncated": frame[:20],
		"bad magic": append([]byte("PDEA"), frame[4:]...),
	} {
		if _, err := DecodeSetDistAnswer(data); err == nil {
			t.Errorf("%s: want decode error", name)
		}
	}
}

// TestSetDistAfterShorteningUpdate is the test that fails if landmark
// keys outlive their graph. The pruned evaluation discards a candidate
// when a key difference — a lower bound on the true distance — reaches the
// best estimate seen; keys measured before an update that *shortens*
// distances over-bound the new graph and would drop true minima. So: warm
// the old generation's keys, pull every heavy road down to weight 1
// through /v1/update, and require the pruned answer on the new generation
// to equal the naive one bit for bit, over the binary codec (raw IEEE
// doubles).
func TestSetDistAfterShorteningUpdate(t *testing.T) {
	srv, err := New(map[string]Spec{"main": {Topology: "roadgrid", N: 64, Eps: 0.5, MaxW: 64, Seed: 5}}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	cl := &Client{BaseURL: ts.URL, Shard: "main"}
	before := srv.slots["main"].load()
	n := before.g.N()

	rng := rand.New(rand.NewSource(77))
	sets := make([][2][]int32, 6)
	for i := range sets {
		for side, size := range [2]int{12, 20} {
			for j := 0; j < size; j++ {
				sets[i][side] = append(sets[i][side], int32(rng.Intn(n)))
			}
		}
		if _, err := cl.SetDist(context.Background(), sets[i][0], sets[i][1], false, false); err != nil {
			t.Fatal(err)
		}
	}
	oldKeys := before.g.Landmarks()

	var changes []WireChange
	before.g.Edges(func(u, v int, w graph.Weight, _ int32) {
		if w > 8 {
			changes = append(changes, WireChange{Op: "reweight", U: u, V: v, W: 1})
		}
	})
	if len(changes) == 0 {
		t.Fatal("test graph has no heavy edge to shorten")
	}
	var ur UpdateResponse
	if resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{Shard: "main", Changes: changes}, &ur); resp.StatusCode != http.StatusOK || !ur.Changed {
		t.Fatalf("update status %d: %+v", resp.StatusCode, ur)
	}

	after := srv.slots["main"].load()
	newKeys := after.g.Landmarks()
	shrunk := 0
	for v, k := range newKeys.Key1 {
		if k < oldKeys.Key1[v] {
			shrunk++
		}
	}
	if newKeys == oldKeys || shrunk == 0 {
		t.Fatalf("the new generation's keys do not reflect the update (%d of %d shrank)", shrunk, n)
	}

	for i, s := range sets {
		pruned, err := cl.SetDist(context.Background(), s[0], s[1], false, false)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := cl.SetDist(context.Background(), s[0], s[1], true, false)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Fingerprint != ur.NewFingerprint || naive.Fingerprint != ur.NewFingerprint {
			t.Fatalf("sets %d: answered by %s / %s, update published %s", i, pruned.Fingerprint, naive.Fingerprint, ur.NewFingerprint)
		}
		if pruned.AB != naive.AB || pruned.BA != naive.BA ||
			math.Float64bits(pruned.Hausdorff) != math.Float64bits(naive.Hausdorff) {
			t.Errorf("sets %d: pruned %+v != naive %+v on the updated generation", i, pruned, naive)
		}
		if pruned.Evaluated >= naive.Evaluated {
			t.Errorf("sets %d: pruned evaluated %d of naive's %d — the bound pruned nothing", i, pruned.Evaluated, naive.Evaluated)
		}
	}
}
