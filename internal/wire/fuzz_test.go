package wire

import (
	"encoding/binary"
	"testing"

	"pde/internal/oracle"
)

// FuzzWireFrame throws arbitrary bytes at every PDE2 decoder: the frame
// header parser and each payload validator. The invariants are the same
// ones the HTTP codec's malformed-frame matrix pins — no panic on any
// input, validators accept only exactly-sized payloads, and records of a
// validated payload are always addressable — with truncated, oversized
// and lying-length frames in the seed corpus.
func FuzzWireFrame(f *testing.F) {
	// A well-formed frame of each type.
	add := func(t FrameType, payload []byte) {
		buf := make([]byte, HeaderSize+len(payload))
		putHeader(buf, t, 42, len(payload))
		copy(buf[HeaderSize:], payload)
		f.Add(buf)
	}
	qbuf := make([]byte, QueryPayloadLen(3))
	PutQueryPayload(qbuf, []oracle.Query{{V: 1, S: 2}, {V: 3, S: 4}, {V: -1, S: -2}})
	add(FrameEstimate, qbuf)
	add(FrameNextHop, qbuf)
	add(FrameBind, []byte("alpha"))
	bound := make([]byte, BoundPayloadLen)
	putBoundPayload(bound, 512, 0xdeadbeef)
	add(FrameBound, bound)
	abuf := make([]byte, AnswersPayloadLen(2))
	PutAnswersPrefix(abuf, 7, 2)
	PutAnswerAt(abuf, 0, oracle.Answer{OK: true})
	PutAnswerAt(abuf, 1, oracle.Answer{})
	add(FrameAnswers, abuf)
	hbuf := make([]byte, stampedLen(2, HopRecordSize))
	putStamp(hbuf, 7, 2)
	putHopAt(hbuf, 0, Hop{Next: 3, OK: true})
	putHopAt(hbuf, 1, Hop{Next: -1})
	add(FrameHops, hbuf)
	add(FrameError, errorPayload(ErrCodeOutOfRange, "nope"))
	add(FramePing, nil)

	// Truncated header, truncated payload, lying length, oversized count.
	f.Add([]byte("PDE2"))
	f.Add([]byte("PDE2\x02\x00\x00\x00"))
	lying := make([]byte, HeaderSize)
	putHeader(lying, FrameEstimate, 1, 1<<30)
	f.Add(lying)
	overcount := make([]byte, 4+QueryRecordSize)
	binary.LittleEndian.PutUint32(overcount, 0xffffffff)
	f.Add(overcount)

	f.Fuzz(func(t *testing.T, data []byte) {
		tt, _, plen, err := parseHeader(data)
		if err == nil {
			// A parsed header's payload may be truncated; the decoders
			// must still be total functions over whatever bytes exist.
			payload := data[HeaderSize:]
			if int(plen) < len(payload) {
				payload = payload[:plen]
			}
			switch tt {
			case FrameEstimate, FrameNextHop:
				if count, err := checkQueryPayload(payload); err == nil {
					for i := 0; i < count; i++ {
						_ = QueryAt(payload, i)
					}
				}
			case FrameBound:
				_, _, _ = parseBoundPayload(payload)
			case FrameAnswers:
				if _, count, err := checkStamp(payload, AnswerRecordSize); err == nil {
					var a oracle.Answer
					for i := 0; i < count; i++ {
						_ = AnswerAt(payload, i, &a)
					}
				}
			case FrameHops:
				if _, count, err := checkStamp(payload, HopRecordSize); err == nil {
					var h Hop
					for i := 0; i < count; i++ {
						_ = hopAt(payload, i, &h)
					}
				}
			case FrameError:
				_, _, _ = parseErrorPayload(payload)
			}
		}

		// Every validator must also be total on the raw input directly.
		if count, err := checkQueryPayload(data); err == nil {
			if QueryPayloadLen(count) != len(data) {
				t.Fatalf("checkQueryPayload accepted a mis-sized payload: count=%d len=%d", count, len(data))
			}
			for i := 0; i < count; i++ {
				_ = QueryAt(data, i)
			}
		}
		if _, count, err := checkStamp(data, AnswerRecordSize); err == nil {
			if AnswersPayloadLen(count) != len(data) {
				t.Fatalf("checkStamp(answers) accepted a mis-sized payload")
			}
			var a oracle.Answer
			for i := 0; i < count; i++ {
				_ = AnswerAt(data, i, &a)
			}
		}
		if _, count, err := checkStamp(data, HopRecordSize); err == nil {
			if stampedLen(count, HopRecordSize) != len(data) {
				t.Fatalf("checkStamp(hops) accepted a mis-sized payload")
			}
			var h Hop
			for i := 0; i < count; i++ {
				_ = hopAt(data, i, &h)
			}
		}
		_, _, _ = parseBoundPayload(data)
		_, _, _ = parseErrorPayload(data)
	})
}
