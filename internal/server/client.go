package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"pde/internal/oracle"
)

// DefaultMaxResponseBytes caps how much of a response body the client
// will buffer (64 MiB). The largest legitimate payload — a full-batch
// binary answer frame at MaxBatch=65536 — is under 2 MiB, so the cap
// only triggers on a misbehaving or hostile daemon.
const DefaultMaxResponseBytes int64 = 64 << 20

// Transport timeouts for the default client. Connection establishment
// and response headers are bounded separately from the body read, so a
// daemon that is slow to *answer* fails fast while a daemon that is
// slow to *stream* a large rebuild response does not: rebuild and
// update calls can legitimately hold the connection for the length of a
// table build, which is why there is no whole-request timeout — callers
// bound that with a context instead.
const (
	defaultDialTimeout           = 5 * time.Second
	defaultTLSHandshakeTimeout   = 5 * time.Second
	defaultResponseHeaderTimeout = 120 * time.Second
	defaultIdleConnTimeout       = 90 * time.Second
)

// DefaultTransport returns a fresh transport with the package's dial
// and response-header timeouts applied. Each call returns a new value
// so callers that want per-worker connection pools (pde-query gives
// every fan-out worker its own transport for connection warmth) can
// use it directly.
func DefaultTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   defaultDialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   defaultTLSHandshakeTimeout,
		ResponseHeaderTimeout: defaultResponseHeaderTimeout,
		ExpectContinueTimeout: 1 * time.Second,
		IdleConnTimeout:       defaultIdleConnTimeout,
		MaxIdleConnsPerHost:   4,
	}
}

// ResolveWireAddr turns the wire_addr a daemon reports in /v1/stats into
// a dialable endpoint. A PDE2 listener bound to all interfaces reports
// an unspecified host (e.g. "[::]:7476" or "0.0.0.0:7476"); the daemon's
// HTTP hostname is substituted so remote clients reach the same machine
// the stats came from.
func ResolveWireAddr(baseURL, wireAddr string) string {
	host, port, err := net.SplitHostPort(wireAddr)
	if err != nil {
		return wireAddr
	}
	ip := net.ParseIP(host)
	if host == "" || (ip != nil && ip.IsUnspecified()) {
		if u, uerr := url.Parse(baseURL); uerr == nil && u.Hostname() != "" {
			return net.JoinHostPort(u.Hostname(), port)
		}
	}
	return wireAddr
}

// defaultHTTPClient backs every Client whose HTTP field is nil. Unlike
// http.DefaultClient it cannot hang forever on a dead daemon: dials and
// response headers time out, and every request path accepts a context
// for end-to-end deadlines.
var defaultHTTPClient = &http.Client{Transport: DefaultTransport()}

// Client speaks the daemon's wire protocol — the remote mirror of the
// oracle's batch API. pde-query, the cluster coordinator's forwarding
// plane and the benchmark of record (benchmark/) all drive daemons
// through it, so the protocol has exactly one client implementation to
// drift. Every call takes a context; cancel it to
// abandon a call mid-flight (the failover retry loop in
// internal/cluster depends on this).
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7475".
	BaseURL string
	// Shard names the shard every call targets.
	Shard string
	// HTTP is the underlying client. When nil a shared default with
	// dial and response-header timeouts is used — never
	// http.DefaultClient, which has none.
	HTTP *http.Client
	// MaxResponseBytes caps response-body buffering
	// (DefaultMaxResponseBytes when zero). Responses that announce or
	// deliver more than the cap fail instead of allocating.
	MaxResponseBytes int64
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

func (c *Client) maxResponse() int64 {
	if c.MaxResponseBytes > 0 {
		return c.MaxResponseBytes
	}
	return DefaultMaxResponseBytes
}

// decodeError turns a non-200 response into the envelope's message.
func decodeError(resp *http.Response, body []byte) error {
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return fmt.Errorf("server: %s (%s, HTTP %d)", env.Error.Message, env.Error.Code, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, body)
}

// readBody buffers a response body under the client's cap. The
// server-announced Content-Length is only trusted as a lower bound for
// preallocation after it has been checked against the cap — a daemon
// that lies about its length cannot force an arbitrary allocation.
func (c *Client) readBody(resp *http.Response) ([]byte, error) {
	limit := c.maxResponse()
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("server: response announces %d bytes, above the %d-byte cap", resp.ContentLength, limit)
	}
	if resp.ContentLength >= 0 {
		data := make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, fmt.Errorf("server: reading %d-byte response: %w", resp.ContentLength, err)
		}
		return data, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("server: response exceeds the %d-byte cap", limit)
	}
	return data, nil
}

func (c *Client) post(ctx context.Context, path, contentType string, body []byte) ([]byte, *http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := c.readBody(resp)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, decodeError(resp, data)
	}
	return data, resp, nil
}

func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := c.readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp, data)
	}
	return data, nil
}

// Estimate serves a point-estimate batch over the binary codec (or JSON
// when asJSON is set) and returns the answers with the fingerprint of
// the table generation that produced all of them.
func (c *Client) Estimate(ctx context.Context, qs []oracle.Query, asJSON bool) ([]oracle.Answer, string, error) {
	if asJSON {
		req := BatchRequest{Shard: c.Shard, Queries: make([]WireQuery, len(qs))}
		for i, q := range qs {
			req.Queries[i] = WireQuery{V: q.V, S: q.S}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, "", err
		}
		data, _, err := c.post(ctx, "/v1/estimate", "application/json", body)
		if err != nil {
			return nil, "", err
		}
		var resp EstimateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, "", fmt.Errorf("decoding estimate response: %w", err)
		}
		answers := make([]oracle.Answer, len(resp.Answers))
		for i, a := range resp.Answers {
			answers[i].OK = a.OK
			answers[i].Est.Dist = a.Dist
			answers[i].Est.Src = a.Src
			answers[i].Est.Via = a.Via
			answers[i].Est.Instance = a.Instance
			answers[i].Est.Flag = a.Flag
		}
		return answers, resp.Fingerprint, nil
	}
	data, resp, err := c.post(ctx, "/v1/estimate?shard="+url.QueryEscape(c.Shard), ContentTypeBinary, EncodeQueries(qs))
	if err != nil {
		return nil, "", err
	}
	answers, err := DecodeAnswers(data)
	if err != nil {
		return nil, "", err
	}
	return answers, resp.Header.Get("X-Pde-Fingerprint"), nil
}

// NextHop serves a next-hop batch over the binary codec (or JSON).
func (c *Client) NextHop(ctx context.Context, qs []oracle.Query, asJSON bool) ([]Hop, string, error) {
	if asJSON {
		req := BatchRequest{Shard: c.Shard, Queries: make([]WireQuery, len(qs))}
		for i, q := range qs {
			req.Queries[i] = WireQuery{V: q.V, S: q.S}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, "", err
		}
		data, _, err := c.post(ctx, "/v1/nexthop", "application/json", body)
		if err != nil {
			return nil, "", err
		}
		var resp NexthopResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, "", fmt.Errorf("decoding nexthop response: %w", err)
		}
		return resp.Hops, resp.Fingerprint, nil
	}
	data, resp, err := c.post(ctx, "/v1/nexthop?shard="+url.QueryEscape(c.Shard), ContentTypeBinary, EncodeQueries(qs))
	if err != nil {
		return nil, "", err
	}
	hops, err := DecodeHops(data)
	if err != nil {
		return nil, "", err
	}
	return hops, resp.Header.Get("X-Pde-Fingerprint"), nil
}

// SetDist evaluates aggregate set-to-set distances between a and b over
// the binary codec (or JSON when asJSON is set). Both encodings return
// the JSON wire shape; the binary PDSA frame's raw infinities are folded
// into the same finite-flag convention on decode, so the two paths are
// interchangeable to callers. naive requests the unpruned reference
// evaluation.
func (c *Client) SetDist(ctx context.Context, a, b []int32, naive, asJSON bool) (*SetDistResponse, error) {
	if asJSON {
		body, err := json.Marshal(&SetDistRequest{Shard: c.Shard, A: a, B: b, Naive: naive})
		if err != nil {
			return nil, err
		}
		data, _, err := c.post(ctx, "/v1/setdist", "application/json", body)
		if err != nil {
			return nil, err
		}
		var resp SetDistResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, fmt.Errorf("decoding setdist response: %w", err)
		}
		return &resp, nil
	}
	path := "/v1/setdist?shard=" + url.QueryEscape(c.Shard)
	if naive {
		path += "&naive=1"
	}
	data, resp, err := c.post(ctx, path, ContentTypeBinary, EncodeSetDistQuery(a, b))
	if err != nil {
		return nil, err
	}
	res, err := DecodeSetDistAnswer(data)
	if err != nil {
		return nil, err
	}
	return setDistResponse(resp.Header.Get("X-Pde-Shard"), resp.Header.Get("X-Pde-Fingerprint"), res), nil
}

// Route expands a batch of (from, to) pairs.
func (c *Client) Route(ctx context.Context, pairs []WirePair) (*RouteResponse, error) {
	body, err := json.Marshal(&RouteRequest{Shard: c.Shard, Pairs: pairs})
	if err != nil {
		return nil, err
	}
	data, _, err := c.post(ctx, "/v1/route", "application/json", body)
	if err != nil {
		return nil, err
	}
	var resp RouteResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding route response: %w", err)
	}
	return &resp, nil
}

// Rebuild hot-swaps the client's shard with the given spec overrides.
func (c *Client) Rebuild(ctx context.Context, req RebuildRequest) (*RebuildResponse, error) {
	req.Shard = c.Shard
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	data, _, err := c.post(ctx, "/v1/rebuild", "application/json", body)
	if err != nil {
		return nil, err
	}
	var resp RebuildResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding rebuild response: %w", err)
	}
	return &resp, nil
}

// Update applies one churn batch to the client's shard via /v1/update.
func (c *Client) Update(ctx context.Context, req UpdateRequest) (*UpdateResponse, error) {
	req.Shard = c.Shard
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	data, _, err := c.post(ctx, "/v1/update", "application/json", body)
	if err != nil {
		return nil, err
	}
	var resp UpdateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding update response: %w", err)
	}
	return &resp, nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	data, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decoding stats: %w", err)
	}
	return &st, nil
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	data, err := c.get(ctx, "/healthz")
	if err != nil {
		return nil, err
	}
	var h HealthResponse
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("decoding healthz: %w", err)
	}
	return &h, nil
}
