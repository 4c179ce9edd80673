package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pde/internal/server"
)

// readBody buffers a request or proxied-response body under the
// coordinator's cap.
func readBody(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBody+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > maxBody {
		return nil, fmt.Errorf("body exceeds the %d-byte cap", maxBody)
	}
	return data, nil
}

// shardFromRequest names the shard a query body targets: binary frames
// carry it in ?shard= (as the daemon protocol specifies), JSON bodies
// in their "shard" field. Only the field is decoded here — the body is
// proxied verbatim, not re-encoded.
func shardFromRequest(r *http.Request, body []byte) string {
	if s := r.URL.Query().Get("shard"); s != "" {
		return s
	}
	var probe struct {
		Shard string `json:"shard"`
	}
	if err := json.Unmarshal(body, &probe); err == nil {
		return probe.Shard
	}
	return ""
}

// proxyResult is one replica's complete answer, held for relay.
type proxyResult struct {
	status      int
	contentType string
	header      http.Header // the X-Pde-* stamps
	body        []byte
	backend     *backend
}

// handleQuery routes one query request by shard name and relays the
// first replica answer, failing over across replicas and passes.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !server.RequireMethod(w, r, http.MethodPost) {
		return
	}
	body, err := readBody(r.Body)
	if err != nil {
		server.WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large", "reading request: %v", err)
		return
	}
	shard := shardFromRequest(r, body)
	if shard == "" {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "request names no shard (binary bodies use ?shard=, JSON bodies a \"shard\" field)")
		return
	}
	reps := c.replicasFor(shard)
	if len(reps) == 0 {
		server.WriteError(w, http.StatusNotFound, "unknown_shard", "no daemon serves shard %q (have %s)", shard, strings.Join(c.Shards(), ", "))
		return
	}
	res, err := c.forward(r.Context(), reps, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "no_healthy_replica", "shard %q: every replica failed: %v", shard, err)
		return
	}
	c.proxied.Add(1)
	relay(w, res)
}

func relay(w http.ResponseWriter, res *proxyResult) {
	h := w.Header()
	if res.contentType != "" {
		h.Set("Content-Type", res.contentType)
	}
	for name, vals := range res.header {
		if strings.HasPrefix(name, "X-Pde-") {
			h[name] = vals
		}
	}
	h.Set("X-Pde-Backend", res.backend.url)
	h.Set("Content-Length", fmt.Sprint(len(res.body)))
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// errNoReplica is what a sweep over an empty replica set fails with.
var errNoReplica = errors.New("no daemon serves the shard")

// sweep is the coordinator's one failover policy; the HTTP proxy and the
// PDE2 relay both answer through it. It offers the replicas to try in
// placement order, healthy ones first, and passes over the whole set up
// to 1+retries times, sleeping a doubling backoff (capped at 1s) before
// each extra pass. try returns a nil error once the request is settled —
// answered, or refused in a way every replica would repeat — and the
// sweep stops. A try that failed because the caller's ctx is done ends
// the sweep with ctx.Err(): the caller left, the replica did nothing
// wrong. Any other outcome counts as a failover and moves on to the
// next replica: alive=false is a transport failure and also marks the
// daemon down (the prober revives it); alive=true leaves its health
// alone — the daemon answered, it just cannot serve this request.
func (c *Coordinator) sweep(ctx context.Context, reps []*backend, try func(*backend) (alive bool, err error)) error {
	// Replica sets are a handful of daemons: ordering them in stack
	// buffers keeps the relay's per-frame sweep off the heap.
	var upBuf, downBuf [8]*backend
	ordered, down := upBuf[:0], downBuf[:0]
	for _, b := range reps {
		if b.healthy.Load() {
			ordered = append(ordered, b)
		} else {
			down = append(down, b)
		}
	}
	ordered = append(ordered, down...)

	backoff := c.policy.retryBackoff
	lastErr := errNoReplica
	for pass := 0; pass <= c.policy.retries; pass++ {
		if pass > 0 {
			c.retryWaits.Add(1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, time.Second)
		}
		for _, b := range ordered {
			alive, err := try(b)
			if err == nil {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			c.failovers.Add(1)
			lastErr = fmt.Errorf("%s: %w", b.url, err)
			if !alive {
				b.markDown(err)
			}
		}
	}
	return lastErr
}

// forward relays one HTTP query through the sweep. Transport failures
// mark the replica down; 5xx answers fail over without touching health.
// 4xx and 2xx answers are relayed as-is: a bad request is bad on every
// replica.
func (c *Coordinator) forward(ctx context.Context, reps []*backend, path, rawQuery, contentType string, body []byte) (*proxyResult, error) {
	var res *proxyResult
	err := c.sweep(ctx, reps, func(b *backend) (bool, error) {
		r, err := c.attempt(ctx, b, c.policy.attemptTimeout, path, rawQuery, contentType, body)
		if err != nil {
			return false, err
		}
		if r.status >= 500 {
			return true, fmt.Errorf("HTTP %d: %s", r.status, truncateForError(r.body))
		}
		res = r
		return true, nil
	})
	return res, err
}

// attempt posts body to one daemon under timeout and buffers its whole
// answer. An error is a transport failure: the daemon was not reached or
// its answer did not arrive.
func (c *Coordinator) attempt(ctx context.Context, b *backend, timeout time.Duration, path, rawQuery, contentType string, body []byte) (*proxyResult, error) {
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	u := b.url + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxyResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		header:      resp.Header,
		body:        data,
		backend:     b,
	}, nil
}

func truncateForError(body []byte) string {
	const max = 256
	if len(body) > max {
		body = body[:max]
	}
	return string(body)
}
