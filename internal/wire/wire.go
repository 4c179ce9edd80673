// Package wire is the PDE2 persistent-connection binary protocol: the
// raw-TCP serving path that removes net/http routing, header parsing and
// per-request allocation from the query hot loop. It exists because the
// serving benchmark showed the HTTP transport answering at ~0.6x of the
// in-process oracle on one core — the tables are O(log σ) per pair
// (Lenzen & Patt-Shamir, PODC 2015), so at that rate the transport, not
// the lookup, was the bottleneck.
//
// A connection carries a stream of length-prefixed frames, each a fixed
// 20-byte header followed by a payload:
//
//	header  "PDE2" | u8 type | u8 flags | u16 reserved |
//	        u64 corr | u32 payload_len                          (20 B)
//
// corr is the client-chosen correlation id; the server echoes it on the
// matching response, which is what makes pipelining safe: a client may
// keep W request frames in flight and match answers to requests by corr
// (responses arrive in request order; corr is the tamper check, not a
// reordering mechanism). flags and reserved must be zero in PDE2.
//
// Frame types and payloads (all integers little-endian):
//
//	0x01 Bind      name bytes (1..256)            select the shard
//	0x02 Estimate  u32 count | count × query      point estimates
//	0x03 NextHop   u32 count | count × query      next-hop decisions
//	0x04 Ping      empty                          liveness probe
//	0x81 Bound     u32 n | u64 fingerprint        Bind reply
//	0x82 Answers   u64 fingerprint | u32 count | count × answer
//	0x83 Hops      u64 fingerprint | u32 count | count × hop
//	0x84 Pong      empty                          Ping reply
//	0xFF Error     u16 code | message bytes       per-frame failure
//
// The query, answer and hop records are the PDEQ / PDEA / PDEH records of
// the HTTP binary batch codec too: internal/server/codec.go frames the
// same PutQueryRecord … HopRecord calls, so this file is the one place
// the layout is written down:
//
//	query   { i32 v | i32 s }                                    (8 B)
//	answer  { f64 dist | i32 src | i32 via | i32 inst |
//	          u8 flag | u8 ok }                                 (22 B)
//	hop     { i32 next | u8 ok }                                 (5 B)
//
// Generation coherence works exactly as on HTTP: every Answers/Hops
// frame opens with the raw build fingerprint of the table generation
// that validated and answered all of its queries, so a hot-swap
// mid-stream is visible as a fingerprint change between frames, never as
// a torn frame.
//
// An Error frame echoes the request's corr and keeps the connection
// usable for codes that describe the request (unknown shard, id out of
// range, batch too large, not bound); a malformed frame (bad magic,
// nonzero flags, lying length) is fatal — the stream boundary is gone,
// so the server answers ErrCodeBadFrame and closes.
package wire

import (
	"encoding/binary"
	"errors"
	"math"

	"pde/internal/oracle"
)

// Magic opens every PDE2 frame header.
const Magic = "PDE2"

// HeaderSize is the fixed frame header length.
const HeaderSize = 20

// MaxShardName bounds a Bind payload.
const MaxShardName = 256

// DefaultMaxBatch mirrors the HTTP layer's default MaxBatch: the largest
// query count one frame may carry unless the server configures its own.
const DefaultMaxBatch = 65536

// FrameType tags a PDE2 frame. Requests have the high bit clear,
// responses set; Error is its own code.
type FrameType uint8

// The PDE2 frame types.
const (
	FrameBind     FrameType = 0x01
	FrameEstimate FrameType = 0x02
	FrameNextHop  FrameType = 0x03
	FramePing     FrameType = 0x04

	FrameBound   FrameType = 0x81
	FrameAnswers FrameType = 0x82
	FrameHops    FrameType = 0x83
	FramePong    FrameType = 0x84

	FrameError FrameType = 0xFF
)

// String names a frame type for error messages.
func (t FrameType) String() string {
	switch t {
	case FrameBind:
		return "Bind"
	case FrameEstimate:
		return "Estimate"
	case FrameNextHop:
		return "NextHop"
	case FramePing:
		return "Ping"
	case FrameBound:
		return "Bound"
	case FrameAnswers:
		return "Answers"
	case FrameHops:
		return "Hops"
	case FramePong:
		return "Pong"
	case FrameError:
		return "Error"
	}
	return "Unknown"
}

// Error frame codes. Fatal codes close the connection; the rest describe
// one request and leave the stream usable.
const (
	ErrCodeBadFrame     uint16 = 1 // malformed frame; fatal
	ErrCodeUnknownShard uint16 = 2
	ErrCodeNotBound     uint16 = 3
	ErrCodeOutOfRange   uint16 = 4
	ErrCodeTooLarge     uint16 = 5
	ErrCodeShuttingDown uint16 = 6 // fatal
	ErrCodeUpstream     uint16 = 7 // relay could not reach any replica
)

// Record sizes, shared with the HTTP binary batch codec's PDEQ / PDEA /
// PDEH frames (internal/server/codec.go).
const (
	QueryRecordSize  = 8
	AnswerRecordSize = 22
	HopRecordSize    = 5
)

// Hop is one next-hop answer: the PDEH wire record. internal/server
// aliases its JSON Hop to this type, so the two layers cannot drift.
//
//pde:wire size=5
type Hop struct {
	Next int32 `json:"next"`
	OK   bool  `json:"ok"`
}

// Frame-parse sentinel errors. They are preallocated so the hot decode
// path can reject a bad frame without heap traffic.
var (
	ErrBadMagic     = errors.New("wire: bad frame magic")
	ErrBadFlags     = errors.New("wire: nonzero flags/reserved in header")
	ErrShortHeader  = errors.New("wire: short frame header")
	ErrBadPayload   = errors.New("wire: payload length does not match record count")
	ErrBadOKByte    = errors.New("wire: ok byte is neither 0 nor 1")
	ErrFrameTooBig  = errors.New("wire: frame payload exceeds the negotiated limit")
	ErrCorrMismatch = errors.New("wire: response correlation id does not match request")
)

// PutHeader writes a frame header into buf, which must hold HeaderSize
// bytes.
//
//pde:hotpath
func PutHeader(buf []byte, t FrameType, corr uint64, payloadLen int) {
	_ = buf[HeaderSize-1]
	buf[0], buf[1], buf[2], buf[3] = 'P', 'D', 'E', '2'
	buf[4] = byte(t)
	buf[5] = 0
	binary.LittleEndian.PutUint16(buf[6:8], 0)
	binary.LittleEndian.PutUint64(buf[8:16], corr)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(payloadLen))
}

// ParseHeader validates a frame header and returns its fields. It never
// allocates: failures are the package's sentinel errors.
//
//pde:hotpath
func ParseHeader(buf []byte) (t FrameType, corr uint64, payloadLen uint32, err error) {
	if len(buf) < HeaderSize {
		return 0, 0, 0, ErrShortHeader
	}
	if buf[0] != 'P' || buf[1] != 'D' || buf[2] != 'E' || buf[3] != '2' {
		return 0, 0, 0, ErrBadMagic
	}
	if buf[5] != 0 || buf[6] != 0 || buf[7] != 0 {
		return 0, 0, 0, ErrBadFlags
	}
	t = FrameType(buf[4])
	corr = binary.LittleEndian.Uint64(buf[8:16])
	payloadLen = binary.LittleEndian.Uint32(buf[16:20])
	return t, corr, payloadLen, nil
}

// --- records -------------------------------------------------------------
//
// One put/get pair per record, addressed at rec[0]. The PDE2 payload
// accessors below and the HTTP codec's frames differ only in the prefix
// they skip before the first record.

// PutQueryRecord encodes q into rec[:QueryRecordSize].
//
//pde:hotpath
func PutQueryRecord(rec []byte, q oracle.Query) {
	_ = rec[QueryRecordSize-1]
	binary.LittleEndian.PutUint32(rec[0:], uint32(q.V))
	binary.LittleEndian.PutUint32(rec[4:], uint32(q.S))
}

// QueryRecord decodes rec[:QueryRecordSize].
//
//pde:hotpath
func QueryRecord(rec []byte) oracle.Query {
	_ = rec[QueryRecordSize-1]
	return oracle.Query{
		V: int32(binary.LittleEndian.Uint32(rec[0:])),
		S: int32(binary.LittleEndian.Uint32(rec[4:])),
	}
}

// PutAnswerRecord encodes a into rec[:AnswerRecordSize]. Every byte is
// written, so reused buffers never leak a previous frame's records.
//
//pde:hotpath
func PutAnswerRecord(rec []byte, a oracle.Answer) {
	_ = rec[AnswerRecordSize-1]
	binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(a.Est.Dist))
	binary.LittleEndian.PutUint32(rec[8:], uint32(a.Est.Src))
	binary.LittleEndian.PutUint32(rec[12:], uint32(a.Est.Via))
	binary.LittleEndian.PutUint32(rec[16:], uint32(a.Est.Instance))
	rec[20] = a.Est.Flag
	rec[21] = okByte(a.OK)
}

// AnswerRecord decodes rec[:AnswerRecordSize] into *a. The only failure
// is a corrupt ok byte.
//
//pde:hotpath
func AnswerRecord(rec []byte, a *oracle.Answer) error {
	_ = rec[AnswerRecordSize-1]
	a.Est.Dist = math.Float64frombits(binary.LittleEndian.Uint64(rec[0:]))
	a.Est.Src = int32(binary.LittleEndian.Uint32(rec[8:]))
	a.Est.Via = int32(binary.LittleEndian.Uint32(rec[12:]))
	a.Est.Instance = int32(binary.LittleEndian.Uint32(rec[16:]))
	a.Est.Flag = rec[20]
	return parseOKByte(rec[21], &a.OK)
}

// PutHopRecord encodes h into rec[:HopRecordSize], writing every byte.
//
//pde:hotpath
func PutHopRecord(rec []byte, h Hop) {
	_ = rec[HopRecordSize-1]
	binary.LittleEndian.PutUint32(rec[0:], uint32(h.Next))
	rec[4] = okByte(h.OK)
}

// HopRecord decodes rec[:HopRecordSize] into *h.
//
//pde:hotpath
func HopRecord(rec []byte, h *Hop) error {
	_ = rec[HopRecordSize-1]
	h.Next = int32(binary.LittleEndian.Uint32(rec[0:]))
	return parseOKByte(rec[4], &h.OK)
}

//pde:hotpath
func okByte(ok bool) byte {
	if ok {
		return 1
	}
	return 0
}

//pde:hotpath
func parseOKByte(b byte, ok *bool) error {
	if b > 1 {
		return ErrBadOKByte
	}
	*ok = b == 1
	return nil
}

// --- query payload (Estimate / NextHop requests) -----------------------

// QueryPayloadLen is the payload size of an Estimate/NextHop frame
// carrying count queries.
func QueryPayloadLen(count int) int { return 4 + count*QueryRecordSize }

// PutQueryPayload encodes qs into buf, which must hold
// QueryPayloadLen(len(qs)) bytes.
//
//pde:hotpath
func PutQueryPayload(buf []byte, qs []oracle.Query) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(qs)))
	for i, q := range qs {
		PutQueryRecord(buf[4+i*QueryRecordSize:], q)
	}
}

// CheckQueryPayload validates the count prefix against the payload
// length and returns the record count without decoding.
//
//pde:hotpath
func CheckQueryPayload(payload []byte) (int, error) {
	if len(payload) < 4 {
		return 0, ErrBadPayload
	}
	count := int(binary.LittleEndian.Uint32(payload[0:4]))
	if QueryPayloadLen(count) != len(payload) {
		return 0, ErrBadPayload
	}
	return count, nil
}

// QueryAt decodes record i of a validated query payload.
//
//pde:hotpath
func QueryAt(payload []byte, i int) oracle.Query {
	return QueryRecord(payload[4+i*QueryRecordSize:])
}

// --- answers payload ---------------------------------------------------

// AnswersPayloadLen is the payload size of an Answers frame carrying
// count records.
func AnswersPayloadLen(count int) int { return 12 + count*AnswerRecordSize }

// PutAnswersPrefix writes the fingerprint stamp and record count that
// open an Answers payload.
//
//pde:hotpath
func PutAnswersPrefix(buf []byte, fingerprint uint64, count int) {
	binary.LittleEndian.PutUint64(buf[0:8], fingerprint)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
}

// PutAnswerAt encodes answer record i.
//
//pde:hotpath
func PutAnswerAt(buf []byte, i int, a oracle.Answer) {
	PutAnswerRecord(buf[12+i*AnswerRecordSize:], a)
}

// CheckAnswersPayload validates an Answers payload and returns its
// fingerprint stamp and record count.
//
//pde:hotpath
func CheckAnswersPayload(payload []byte) (fingerprint uint64, count int, err error) {
	if len(payload) < 12 {
		return 0, 0, ErrBadPayload
	}
	fingerprint = binary.LittleEndian.Uint64(payload[0:8])
	count = int(binary.LittleEndian.Uint32(payload[8:12]))
	if AnswersPayloadLen(count) != len(payload) {
		return 0, 0, ErrBadPayload
	}
	return fingerprint, count, nil
}

// AnswerAt decodes answer record i of a validated payload into *a. The
// only failure is a corrupt ok byte.
//
//pde:hotpath
func AnswerAt(payload []byte, i int, a *oracle.Answer) error {
	return AnswerRecord(payload[12+i*AnswerRecordSize:], a)
}

// --- hops payload ------------------------------------------------------

// HopsPayloadLen is the payload size of a Hops frame carrying count
// records.
func HopsPayloadLen(count int) int { return 12 + count*HopRecordSize }

// PutHopsPrefix writes the fingerprint stamp and record count that open
// a Hops payload.
//
//pde:hotpath
func PutHopsPrefix(buf []byte, fingerprint uint64, count int) {
	binary.LittleEndian.PutUint64(buf[0:8], fingerprint)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(count))
}

// PutHopAt encodes hop record i, writing every byte.
//
//pde:hotpath
func PutHopAt(buf []byte, i int, h Hop) {
	PutHopRecord(buf[12+i*HopRecordSize:], h)
}

// CheckHopsPayload validates a Hops payload and returns its fingerprint
// stamp and record count.
//
//pde:hotpath
func CheckHopsPayload(payload []byte) (fingerprint uint64, count int, err error) {
	if len(payload) < 12 {
		return 0, 0, ErrBadPayload
	}
	fingerprint = binary.LittleEndian.Uint64(payload[0:8])
	count = int(binary.LittleEndian.Uint32(payload[8:12]))
	if HopsPayloadLen(count) != len(payload) {
		return 0, 0, ErrBadPayload
	}
	return fingerprint, count, nil
}

// HopAt decodes hop record i of a validated payload into *h.
//
//pde:hotpath
func HopAt(payload []byte, i int, h *Hop) error {
	return HopRecord(payload[12+i*HopRecordSize:], h)
}

// --- bound / error payloads (cold path, may allocate) ------------------

// BoundPayloadLen is the fixed payload size of a Bound frame.
const BoundPayloadLen = 12

// PutBoundPayload encodes a Bind reply.
func PutBoundPayload(buf []byte, n int32, fingerprint uint64) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	binary.LittleEndian.PutUint64(buf[4:12], fingerprint)
}

// ParseBoundPayload decodes a Bind reply.
func ParseBoundPayload(payload []byte) (n int32, fingerprint uint64, err error) {
	if len(payload) != BoundPayloadLen {
		return 0, 0, ErrBadPayload
	}
	n = int32(binary.LittleEndian.Uint32(payload[0:4]))
	fingerprint = binary.LittleEndian.Uint64(payload[4:12])
	return n, fingerprint, nil
}

// ErrorPayload encodes an Error frame payload.
func ErrorPayload(code uint16, msg string) []byte {
	buf := make([]byte, 2+len(msg))
	binary.LittleEndian.PutUint16(buf[0:2], code)
	copy(buf[2:], msg)
	return buf
}

// ParseErrorPayload decodes an Error frame payload.
func ParseErrorPayload(payload []byte) (code uint16, msg string, err error) {
	if len(payload) < 2 {
		return 0, "", ErrBadPayload
	}
	return binary.LittleEndian.Uint16(payload[0:2]), string(payload[2:]), nil
}

// RemoteError is an Error frame surfaced to a client caller.
type RemoteError struct {
	Code    uint16
	Message string
}

// Error renders the remote failure with its protocol code.
func (e *RemoteError) Error() string {
	return "wire: remote error " + codeName(e.Code) + ": " + e.Message
}

// Fatal reports whether the code closes the connection by protocol rule.
func (e *RemoteError) Fatal() bool { return fatalCode(e.Code) }

// fatalCode is the protocol's one fatal-code rule: after a malformed
// frame the stream boundary is gone, and a server shutting down will not
// read another frame, so both ends close on these two codes.
func fatalCode(code uint16) bool {
	return code == ErrCodeBadFrame || code == ErrCodeShuttingDown
}

func codeName(code uint16) string {
	switch code {
	case ErrCodeBadFrame:
		return "bad_frame"
	case ErrCodeUnknownShard:
		return "unknown_shard"
	case ErrCodeNotBound:
		return "not_bound"
	case ErrCodeOutOfRange:
		return "out_of_range"
	case ErrCodeTooLarge:
		return "batch_too_large"
	case ErrCodeShuttingDown:
		return "shutting_down"
	case ErrCodeUpstream:
		return "upstream_unavailable"
	}
	return "unknown"
}
