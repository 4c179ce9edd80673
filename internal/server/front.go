package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"pde/internal/oracle"
)

// This file is the request front every endpoint goes through: the
// method check, the two body readers (a capped JSON decode and a capped
// binary read), the shard lookup and the id range check, plus the three
// response writers. A step that refuses a request writes the protocol
// error itself and reports false, and the handler just returns, so
// every refusal of a kind reads the same on every endpoint. The
// coordinator (internal/cluster) answers through the same writers.

// ErrorEnvelope is the body of every error response: {"error": {"code",
// "message"}} with the codes listed in the package comment.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries the machine-readable code and the human-readable
// message of an error response.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteError sends the error envelope with the given status.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	// This is the envelope helper itself: the one WriteHeader every
	// error response in the package funnels through.
	w.WriteHeader(status) //pde:allow(errenvelope) the envelope helper's own status write
	// A failed write means the client left: there is no one to tell.
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// WriteJSON sends v as a 200 JSON reply.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client left: there is no one to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// writeBinary sends a codec frame with an explicit Content-Length, so
// large batch responses skip chunked encoding and clients can read them
// into an exact-sized buffer.
func writeBinary(w http.ResponseWriter, shard, fp string, frame []byte) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("X-Pde-Shard", shard)
	w.Header().Set("X-Pde-Fingerprint", fp)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// RequireMethod returns false, having written the 405
// method_not_allowed envelope, unless r uses method.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "%s requires %s, got %s", r.URL.Path, method, r.Method)
		return false
	}
	return true
}

// decodeJSON parses a JSON body capped at limit bytes. The binary path
// rejects oversized bodies before allocating; this is the JSON side of
// the same guarantee — a multi-gigabyte body hits the cap, not the heap.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "request body exceeds %d bytes", tooBig.Limit)
		} else {
			WriteError(w, http.StatusBadRequest, "bad_request", "parsing JSON body: %v", err)
		}
		return false
	}
	return true
}

// jsonBatchLimit bounds a JSON batch body: generous per-query slack on
// top of the MaxBatch record count.
func (s *Server) jsonBatchLimit() int64 { return 4096 + 64*int64(s.cfg.MaxBatch) }

// isBinary reports whether the request body is the binary batch codec.
func isBinary(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary)
}

// readBinary reads a binary body of at most limit bytes and returns the
// shard its ?shard= parameter names. A body announcing its length is
// read into an exact buffer (no growth reallocs), and one announcing
// more than limit is refused with tooLarge, formatted with MaxBatch. A
// chunked body is cut at limit, so the caller still checks the record
// counts it carries.
func (s *Server) readBinary(w http.ResponseWriter, r *http.Request, limit int64, tooLarge string) (string, []byte, bool) {
	shard := r.URL.Query().Get("shard")
	if shard == "" {
		WriteError(w, http.StatusBadRequest, "bad_request", "binary batches name the shard in the ?shard= query parameter")
		return "", nil, false
	}
	var body []byte
	var err error
	switch cl := r.ContentLength; {
	case cl > limit:
		WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", tooLarge, s.cfg.MaxBatch)
		return "", nil, false
	case cl >= 0:
		body = make([]byte, cl)
		_, err = io.ReadFull(r.Body, body)
	default:
		body, err = io.ReadAll(io.LimitReader(r.Body, limit))
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return "", nil, false
	}
	return shard, body, true
}

// slotFor resolves the shard a request names; an unknown name gets the
// 404 unknown_shard envelope.
func (s *Server) slotFor(w http.ResponseWriter, name string) (*slot, bool) {
	sl, ok := s.slots[name]
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown_shard", "no shard named %q (have %s)", name, strings.Join(s.names, ", "))
	}
	return sl, ok
}

// inRange checks every record's two node ids against [0, n) of the
// generation that answers. The first record outside gets the 400
// out_of_range envelope, with format applied to its index, its two ids
// and n; a record of one id returns it twice.
func inRange[T any](w http.ResponseWriter, recs []T, n int32, ids func(T) (int32, int32), format string) bool {
	for i, rec := range recs {
		if v, s := ids(rec); !(oracle.Query{V: v, S: s}).InRange(n) {
			WriteError(w, http.StatusBadRequest, "out_of_range", format, i, v, s, n)
			return false
		}
	}
	return true
}
