package wire

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"pde/internal/oracle"
	"pde/internal/scheme"
)

// frameHandler answers from one scheme instance the way the daemon's
// handler does (internal/server/wire.go), minus the stats counters:
// grouped frames take the row grouping and the row-aware answer path at
// any size, the others are range-checked and answered in wire order.
type frameHandler struct {
	inst    scheme.Instance
	n       int32
	grouped bool
}

func (h *frameHandler) Bind(string) (int32, uint64, *RemoteError) { return h.n, 0, nil }
func (h *frameHandler) Close()                                    {}

func (h *frameHandler) Answer(b *Batch) (uint64, *RemoteError) {
	if !h.grouped {
		for i, q := range b.Qs {
			if !q.InRange(h.n) {
				return 0, outOfRange(i, q, h.n)
			}
		}
		h.inst.AnswerInto(b.Qs, b.Out, 1)
		return 0, nil
	}
	qs, _, refusal := b.groupRows(h.n)
	if refusal != nil {
		return 0, refusal
	}
	h.inst.(interface {
		AnswerSorted([]oracle.Query, []oracle.Answer)
	}).AnswerSorted(qs, b.Out)
	return 0, nil
}

// BenchmarkFrame times one estimate frame's server work with no socket —
// decode, range check, row grouping, answer, encode — on serve-bulk's
// table shape (random n=384 APSP, ε=1, maxW=4) and query stream (262144
// uniformly random queries, cut into frames that are served in turn, so
// a frame finds the tables as cold as the previous frames left them).
// Each frame size runs grouped by row ("rows") and in wire order
// ("wire"); 16384 is serve-bulk's frame, 256..2048 bracket
// sortThreshold. Reported as ns/query:
//
//	go test -run '^$' -bench Frame -benchtime 64x ./internal/wire/
func BenchmarkFrame(b *testing.B) {
	inst, err := scheme.Build(scheme.Spec{Topology: "random", N: 384, Eps: 1, MaxW: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := int32(inst.Graph().N())
	rng := rand.New(rand.NewSource(7478))
	stream := make([]oracle.Query, 262144)
	for i := range stream {
		stream[i] = oracle.Query{V: rng.Int31n(n), S: rng.Int31n(n)}
	}
	for _, count := range []int{256, 512, 1024, 2048, 16384} {
		payloads := make([][]byte, len(stream)/count)
		for f := range payloads {
			payloads[f] = make([]byte, QueryPayloadLen(count))
			PutQueryPayload(payloads[f], stream[f*count:(f+1)*count])
		}
		for _, order := range []string{"wire", "rows"} {
			b.Run(fmt.Sprintf("q=%d/%s", count, order), func(b *testing.B) {
				h := &frameHandler{inst: inst, n: n, grouped: order == "rows"}
				a := new(Batch)
				bw := bufio.NewWriterSize(io.Discard, 1<<16)
				for _, p := range payloads { // sizes the arena, warms the tables
					a.serveQueries(bw, h, FrameEstimate, 0, p, DefaultMaxBatch)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !a.serveQueries(bw, h, FrameEstimate, uint64(i), payloads[i%len(payloads)], DefaultMaxBatch) {
						b.Fatal("frame refused")
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/query")
			})
		}
	}
}
