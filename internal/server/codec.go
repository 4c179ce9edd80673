package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"pde/internal/oracle"
	"pde/internal/setdist"
	"pde/internal/wire"
)

// ContentTypeBinary selects the binary batch codec: the allocation-light
// alternative to the JSON bodies for bulk traffic.
//
// Every frame is length-prefixed — a 4-byte magic, a
// u32 record count, then count fixed-width little-endian records — so a
// reader can validate the exact body size before touching a record and a
// torn or truncated body is rejected, never partially decoded.
//
//	queries  "PDEQ" | u32 count | count × query     (8 B/record)
//	answers  "PDEA" | u32 count | count × answer   (22 B/record)
//	hops     "PDEH" | u32 count | count × hop       (5 B/record)
//
// The three records are the PDE2 protocol's: internal/wire owns their
// layout and this file only frames its PutQueryRecord … HopRecord calls.
//
// The set-distance endpoint has its own pair of frames. The query frame
// carries two member lists, so its header holds two counts; the answer
// frame is the standard magic | u32 count shape with count = 1:
//
//	set query   "PDSQ" | u32 countA | u32 countB | countA × i32 |
//	                                               countB × i32
//	set answer  "PDSA" | u32 count | count × { A→B: f64 chamfer |
//	                     f64 hausdorff | f64 mean_min | u32 members |
//	                     u32 unreachable | B→A: (same 40 B) |
//	                     f64 hausdorff | i64 pairs | i64 evaluated |
//	                     i64 pruned }                               (96 B/record)
//
// PDSA floats are raw IEEE 754, so the +Inf unreachable convention flows
// through the binary codec losslessly (the JSON schema needs finite
// flags instead; see SetDistResponse).
//
// Requests carry the shard in the ?shard= query parameter; responses echo
// the serving table's build fingerprint in the X-Pde-Fingerprint header.
// The content type below marks both directions.
const ContentTypeBinary = "application/x-pde-batch"

const (
	magicQueries        = "PDEQ"
	magicAnswers        = "PDEA"
	magicHops           = "PDEH"
	magicSetDistQueries = "PDSQ"
	magicSetDistAnswers = "PDSA"

	setDistAnswerRecordSize = 96
)

// Hop is one next-hop answer (the JSON and binary wire record). It is
// the PDE2 protocol's hop record (internal/wire carries the //pde:wire
// marker), aliased so the HTTP and raw-TCP paths cannot drift.
type Hop = wire.Hop

func putHeader(buf []byte, magic string, count int) {
	copy(buf[:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(count))
}

// checkHeader validates magic + exact length-prefixed body size and
// returns the record count.
func checkHeader(data []byte, magic string, recordSize int) (int, error) {
	if len(data) < 8 {
		return 0, fmt.Errorf("binary body too short: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return 0, fmt.Errorf("bad magic %q (want %q)", data[:4], magic)
	}
	count := int(binary.LittleEndian.Uint32(data[4:8]))
	if want := 8 + count*recordSize; len(data) != want {
		return 0, fmt.Errorf("length prefix says %d records (%d bytes), body has %d bytes", count, want, len(data))
	}
	return count, nil
}

// EncodeQueries frames a query batch.
func EncodeQueries(qs []oracle.Query) []byte {
	buf := make([]byte, 8+len(qs)*wire.QueryRecordSize)
	putHeader(buf, magicQueries, len(qs))
	for i, q := range qs {
		wire.PutQueryRecord(buf[8+i*wire.QueryRecordSize:], q)
	}
	return buf
}

// DecodeQueries parses a framed query batch.
func DecodeQueries(data []byte) ([]oracle.Query, error) {
	count, err := checkHeader(data, magicQueries, wire.QueryRecordSize)
	if err != nil {
		return nil, err
	}
	qs := make([]oracle.Query, count)
	for i := range qs {
		qs[i] = wire.QueryRecord(data[8+i*wire.QueryRecordSize:])
	}
	return qs, nil
}

// EncodeAnswers frames an estimate answer batch.
func EncodeAnswers(answers []oracle.Answer) []byte {
	buf := make([]byte, 8+len(answers)*wire.AnswerRecordSize)
	putHeader(buf, magicAnswers, len(answers))
	for i, a := range answers {
		wire.PutAnswerRecord(buf[8+i*wire.AnswerRecordSize:], a)
	}
	return buf
}

// DecodeAnswers parses a framed estimate answer batch.
func DecodeAnswers(data []byte) ([]oracle.Answer, error) {
	count, err := checkHeader(data, magicAnswers, wire.AnswerRecordSize)
	if err != nil {
		return nil, err
	}
	answers := make([]oracle.Answer, count)
	for i := range answers {
		if err := wire.AnswerRecord(data[8+i*wire.AnswerRecordSize:], &answers[i]); err != nil {
			return nil, fmt.Errorf("answer %d: %w", i, err)
		}
	}
	return answers, nil
}

// EncodeHops frames a next-hop answer batch.
func EncodeHops(hops []Hop) []byte {
	buf := make([]byte, 8+len(hops)*wire.HopRecordSize)
	putHeader(buf, magicHops, len(hops))
	for i, h := range hops {
		wire.PutHopRecord(buf[8+i*wire.HopRecordSize:], h)
	}
	return buf
}

// EncodeSetDistQuery frames the two member sets of a set-distance
// request.
func EncodeSetDistQuery(a, b []int32) []byte {
	buf := make([]byte, 12+4*(len(a)+len(b)))
	copy(buf[:4], magicSetDistQueries)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(a)))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(b)))
	off := 12
	for _, v := range a {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range b {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	return buf
}

// DecodeSetDistQuery parses a framed set-distance request, validating
// the exact two-count length prefix before touching a member.
func DecodeSetDistQuery(data []byte) (a, b []int32, err error) {
	if len(data) < 12 {
		return nil, nil, fmt.Errorf("binary body too short: %d bytes", len(data))
	}
	if string(data[:4]) != magicSetDistQueries {
		return nil, nil, fmt.Errorf("bad magic %q (want %q)", data[:4], magicSetDistQueries)
	}
	countA := int(binary.LittleEndian.Uint32(data[4:8]))
	countB := int(binary.LittleEndian.Uint32(data[8:12]))
	if want := 12 + 4*(countA+countB); len(data) != want {
		return nil, nil, fmt.Errorf("length prefix says |A|=%d, |B|=%d (%d bytes), body has %d bytes", countA, countB, want, len(data))
	}
	a = make([]int32, countA)
	b = make([]int32, countB)
	off := 12
	for i := range a {
		a[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	for i := range b {
		b[i] = int32(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	return a, b, nil
}

func putAggregates(buf []byte, a setdist.Aggregates) {
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(a.Chamfer))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(a.Hausdorff))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(a.MeanMin))
	binary.LittleEndian.PutUint32(buf[24:], uint32(a.Members))
	binary.LittleEndian.PutUint32(buf[28:], uint32(a.Unreachable))
}

func getAggregates(buf []byte) setdist.Aggregates {
	return setdist.Aggregates{
		Chamfer:     math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
		Hausdorff:   math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		MeanMin:     math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		Members:     int32(binary.LittleEndian.Uint32(buf[24:])),
		Unreachable: int32(binary.LittleEndian.Uint32(buf[28:])),
	}
}

// EncodeSetDistAnswer frames one set-distance result.
func EncodeSetDistAnswer(res *setdist.Result) []byte {
	buf := make([]byte, 8+setDistAnswerRecordSize)
	putHeader(buf, magicSetDistAnswers, 1)
	rec := buf[8:]
	putAggregates(rec[0:], res.AB)
	putAggregates(rec[32:], res.BA)
	binary.LittleEndian.PutUint64(rec[64:], math.Float64bits(res.Hausdorff))
	binary.LittleEndian.PutUint64(rec[72:], uint64(res.Pairs))
	binary.LittleEndian.PutUint64(rec[80:], uint64(res.Evaluated))
	binary.LittleEndian.PutUint64(rec[88:], uint64(res.Pruned))
	return buf
}

// DecodeSetDistAnswer parses a framed set-distance result.
func DecodeSetDistAnswer(data []byte) (*setdist.Result, error) {
	count, err := checkHeader(data, magicSetDistAnswers, setDistAnswerRecordSize)
	if err != nil {
		return nil, err
	}
	if count != 1 {
		return nil, fmt.Errorf("set-distance answer frame carries %d records, want 1", count)
	}
	rec := data[8:]
	return &setdist.Result{
		AB:        getAggregates(rec[0:]),
		BA:        getAggregates(rec[32:]),
		Hausdorff: math.Float64frombits(binary.LittleEndian.Uint64(rec[64:])),
		Pairs:     int64(binary.LittleEndian.Uint64(rec[72:])),
		Evaluated: int64(binary.LittleEndian.Uint64(rec[80:])),
		Pruned:    int64(binary.LittleEndian.Uint64(rec[88:])),
	}, nil
}

// DecodeHops parses a framed next-hop answer batch.
func DecodeHops(data []byte) ([]Hop, error) {
	count, err := checkHeader(data, magicHops, wire.HopRecordSize)
	if err != nil {
		return nil, err
	}
	hops := make([]Hop, count)
	for i := range hops {
		if err := wire.HopRecord(data[8+i*wire.HopRecordSize:], &hops[i]); err != nil {
			return nil, fmt.Errorf("hop %d: %w", i, err)
		}
	}
	return hops, nil
}
