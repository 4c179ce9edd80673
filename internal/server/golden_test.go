package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pde/internal/oracle"
)

var update = flag.Bool("update", false, "rewrite the golden wire-format files under testdata/")

// goldenSpec is a tiny fully deterministic shard: the ring generator with
// a pinned seed, so distances, vias and instance indices are reproducible
// everywhere and the committed bodies stay byte-stable.
var goldenSpec = Spec{Topology: "ring", N: 8, Eps: 1, MaxW: 4, Seed: 5}

func goldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	sh, err := buildShard(goldenSpec)
	if err != nil {
		t.Fatalf("building golden shard: %v", err)
	}
	srv, err := NewWithPrebuilt(Config{MaxBatch: 16},
		Prebuilt{Name: "golden", Spec: sh.spec, G: sh.g, Res: sh.oracle().Res})
	if err != nil {
		t.Fatalf("NewWithPrebuilt: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update. Golden files are committed, so any wire-format drift —
// a renamed JSON key, a reordered field, a binary layout change — fails
// CI instead of breaking deployed clients.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file %s (run 'go test ./internal/server -update' after an intentional wire change): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the committed golden file.\ngot:  %q\nwant: %q\nRun with -update only if the wire change is intentional.", name, got, want)
	}
}

var goldenQueries = []WireQuery{{V: 0, S: 3}, {V: 4, S: 4}, {V: 6, S: 1}, {V: 2, S: 7}}

func goldenOracleQueries() []oracle.Query { return queriesOf(goldenQueries) }

// TestGoldenJSONResponses pins the exact JSON bodies of every /v1/*
// query endpoint and the error envelope.
func TestGoldenJSONResponses(t *testing.T) {
	ts := goldenServer(t)

	do := func(url, body string) []byte {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		return data
	}

	checkGolden(t, "estimate_response.golden.json",
		do(ts.URL+"/v1/estimate", `{"shard":"golden","queries":[{"v":0,"s":3},{"v":4,"s":4},{"v":6,"s":1},{"v":2,"s":7}]}`))
	checkGolden(t, "nexthop_response.golden.json",
		do(ts.URL+"/v1/nexthop", `{"shard":"golden","queries":[{"v":0,"s":3},{"v":4,"s":4},{"v":6,"s":1},{"v":2,"s":7}]}`))
	checkGolden(t, "route_response.golden.json",
		do(ts.URL+"/v1/route", `{"shard":"golden","pairs":[{"from":0,"to":3},{"from":5,"to":5},{"from":7,"to":2}]}`))
	checkGolden(t, "error_unknown_shard.golden.json",
		do(ts.URL+"/v1/estimate", `{"shard":"ghost","queries":[{"v":0,"s":1}]}`))
	checkGolden(t, "error_out_of_range.golden.json",
		do(ts.URL+"/v1/estimate", `{"shard":"golden","queries":[{"v":99,"s":0}]}`))
}

// TestGoldenBinaryFrames pins the binary codec's byte layout: the
// committed request frame must decode to the golden queries, the
// server's response to it must match the committed answer frame, and
// re-encoding a decode must reproduce the input bytes.
func TestGoldenBinaryFrames(t *testing.T) {
	ts := goldenServer(t)
	qs := goldenOracleQueries()

	reqFrame := EncodeQueries(qs)
	checkGolden(t, "queries.golden.bin", reqFrame)

	decoded, err := DecodeQueries(reqFrame)
	if err != nil {
		t.Fatalf("decoding own frame: %v", err)
	}
	for i := range qs {
		if decoded[i] != qs[i] {
			t.Fatalf("query %d round-trip: got %+v, want %+v", i, decoded[i], qs[i])
		}
	}

	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url, ContentTypeBinary, bytes.NewReader(reqFrame))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return data
	}

	ansFrame := post(ts.URL + "/v1/estimate?shard=golden")
	checkGolden(t, "answers.golden.bin", ansFrame)
	answers, err := DecodeAnswers(ansFrame)
	if err != nil {
		t.Fatalf("decoding answer frame: %v", err)
	}
	if reencoded := EncodeAnswers(answers); !bytes.Equal(reencoded, ansFrame) {
		t.Fatal("answers do not re-encode to the same bytes")
	}

	hopFrame := post(ts.URL + "/v1/nexthop?shard=golden")
	checkGolden(t, "hops.golden.bin", hopFrame)
	hops, err := DecodeHops(hopFrame)
	if err != nil {
		t.Fatalf("decoding hop frame: %v", err)
	}
	if reencoded := EncodeHops(hops); !bytes.Equal(reencoded, hopFrame) {
		t.Fatal("hops do not re-encode to the same bytes")
	}
}

// TestCodecRoundTrip fuzz-lite: randomized batches survive
// encode→decode unchanged, and malformed frames error instead of
// silently truncating.
func TestCodecRoundTrip(t *testing.T) {
	qs := make([]oracle.Query, 257)
	answers := make([]oracle.Answer, 257)
	hops := make([]Hop, 257)
	for i := range qs {
		qs[i] = oracle.Query{V: int32(i * 31), S: int32(i*17 - 40)}
		answers[i] = oracle.Answer{OK: i%3 != 0}
		answers[i].Est.Dist = float64(i) * 1.75
		answers[i].Est.Src = int32(i * 5)
		answers[i].Est.Via = int32(i - 9)
		answers[i].Est.Instance = int32(i % 7)
		answers[i].Est.Flag = uint8(i % 4)
		hops[i] = Hop{Next: int32(i - 3), OK: i%2 == 0}
	}
	gotQ, err := DecodeQueries(EncodeQueries(qs))
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := DecodeAnswers(EncodeAnswers(answers))
	if err != nil {
		t.Fatal(err)
	}
	gotH, err := DecodeHops(EncodeHops(hops))
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if gotQ[i] != qs[i] || gotA[i] != answers[i] || gotH[i] != hops[i] {
			t.Fatalf("record %d did not round-trip", i)
		}
	}

	// Zero-length batches still frame and round-trip.
	if got, err := DecodeQueries(EncodeQueries(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %d records", err, len(got))
	}

	frame := EncodeQueries(qs)
	malformed := map[string][]byte{
		"empty":            {},
		"short header":     frame[:6],
		"bad magic":        append([]byte("NOPE"), frame[4:]...),
		"truncated record": frame[:len(frame)-1],
		"trailing bytes":   append(append([]byte{}, frame...), 0xFF),
		"wrong frame kind": EncodeHops(hops),
	}
	for name, data := range malformed {
		if _, err := DecodeQueries(data); err == nil {
			t.Errorf("DecodeQueries(%s) did not error", name)
		}
	}
	if _, err := DecodeAnswers(EncodeQueries(qs)); err == nil {
		t.Error("DecodeAnswers accepted a query frame")
	}
	bad := EncodeAnswers(answers[:1])
	bad[8+21] = 2 // ok byte out of domain
	if _, err := DecodeAnswers(bad); err == nil {
		t.Error("DecodeAnswers accepted ok byte 2")
	}
	badHop := EncodeHops(hops[:1])
	badHop[8+4] = 7
	if _, err := DecodeHops(badHop); err == nil {
		t.Error("DecodeHops accepted ok byte 7")
	}
}
