package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
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
// oracle's batch API, and the protocol's one client implementation.
// Every call takes a context; cancel it to abandon a call mid-flight.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7475".
	BaseURL string
	// Shard names the shard every call targets.
	Shard string
	// HTTP is the underlying client. When nil a shared default with
	// dial and response-header timeouts is used — never
	// http.DefaultClient, which has none.
	HTTP *http.Client

	// maxResponse replaces DefaultMaxResponseBytes when non-zero. Only
	// this package's tests set it, to reach the cap with small bodies.
	maxResponse int64
}

// roundTrip is the client's one HTTP exchange: it sends body to path (a
// POST of contentType, or a GET when body is nil) and buffers the reply
// under the response cap. Any status but 200 becomes the error
// envelope's message. The server-announced Content-Length is trusted
// for preallocation only after it has been checked against the cap, so
// a daemon that lies about its length cannot force an arbitrary
// allocation, and one that streams past the cap fails at the cap.
func (c *Client) roundTrip(ctx context.Context, path, contentType string, body []byte) ([]byte, http.Header, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	hc := c.HTTP
	if hc == nil {
		hc = defaultHTTPClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()

	limit := cmp.Or(c.maxResponse, DefaultMaxResponseBytes)
	var data []byte
	switch cl := resp.ContentLength; {
	case cl > limit:
		return nil, nil, fmt.Errorf("server: response announces %d bytes, above the %d-byte cap", cl, limit)
	case cl >= 0:
		data = make([]byte, cl)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, nil, fmt.Errorf("server: reading %d-byte response: %w", cl, err)
		}
	default:
		if data, err = io.ReadAll(io.LimitReader(resp.Body, limit+1)); err != nil {
			return nil, nil, err
		}
		if int64(len(data)) > limit {
			return nil, nil, fmt.Errorf("server: response exceeds the %d-byte cap", limit)
		}
	}
	if resp.StatusCode != http.StatusOK {
		var env ErrorEnvelope
		if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
			return nil, nil, fmt.Errorf("server: %s (%s, HTTP %d)", env.Error.Message, env.Error.Code, resp.StatusCode)
		}
		return nil, nil, fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, data)
	}
	return data, resp.Header, nil
}

// CallJSON is the client's one JSON call: it posts req as JSON to path
// (or GETs path when req is nil) through c and decodes the 200 reply.
func CallJSON[T any](ctx context.Context, c *Client, path string, req any) (*T, error) {
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	data, _, err := c.roundTrip(ctx, path, "application/json", body)
	if err != nil {
		return nil, err
	}
	var resp T
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return &resp, nil
}

// batch is the JSON body of a point-query batch for the client's shard.
func (c *Client) batch(qs []oracle.Query) *BatchRequest {
	req := &BatchRequest{Shard: c.Shard, Queries: make([]WireQuery, len(qs))}
	for i, q := range qs {
		req.Queries[i] = WireQuery{V: q.V, S: q.S}
	}
	return req
}

// binaryPath is path with the client's shard in the ?shard= parameter
// binary bodies name it by.
func (c *Client) binaryPath(path string) string { return path + "?shard=" + url.QueryEscape(c.Shard) }

// Estimate serves a point-estimate batch over the binary codec (or JSON
// when asJSON is set) and returns the answers with the fingerprint of
// the table generation that produced all of them.
func (c *Client) Estimate(ctx context.Context, qs []oracle.Query, asJSON bool) ([]oracle.Answer, string, error) {
	if asJSON {
		resp, err := CallJSON[EstimateResponse](ctx, c, "/v1/estimate", c.batch(qs))
		if err != nil {
			return nil, "", err
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
	data, h, err := c.roundTrip(ctx, c.binaryPath("/v1/estimate"), ContentTypeBinary, EncodeQueries(qs))
	if err != nil {
		return nil, "", err
	}
	answers, err := DecodeAnswers(data)
	if err != nil {
		return nil, "", err
	}
	return answers, h.Get("X-Pde-Fingerprint"), nil
}

// NextHop serves a next-hop batch over the binary codec (or JSON).
func (c *Client) NextHop(ctx context.Context, qs []oracle.Query, asJSON bool) ([]Hop, string, error) {
	if asJSON {
		resp, err := CallJSON[NexthopResponse](ctx, c, "/v1/nexthop", c.batch(qs))
		if err != nil {
			return nil, "", err
		}
		return resp.Hops, resp.Fingerprint, nil
	}
	data, h, err := c.roundTrip(ctx, c.binaryPath("/v1/nexthop"), ContentTypeBinary, EncodeQueries(qs))
	if err != nil {
		return nil, "", err
	}
	hops, err := decodeHops(data)
	if err != nil {
		return nil, "", err
	}
	return hops, h.Get("X-Pde-Fingerprint"), nil
}

// SetDist evaluates aggregate set-to-set distances between a and b over
// the binary codec (or JSON when asJSON is set). Both encodings return
// the JSON wire shape; the binary PDSA frame's raw infinities are folded
// into the same finite-flag convention on decode, so the two paths are
// interchangeable to callers. naive requests the unpruned reference
// evaluation.
func (c *Client) SetDist(ctx context.Context, a, b []int32, naive, asJSON bool) (*SetDistResponse, error) {
	if asJSON {
		return CallJSON[SetDistResponse](ctx, c, "/v1/setdist", &SetDistRequest{Shard: c.Shard, A: a, B: b, Naive: naive})
	}
	path := c.binaryPath("/v1/setdist")
	if naive {
		path += "&naive=1"
	}
	data, h, err := c.roundTrip(ctx, path, ContentTypeBinary, encodeSetDistQuery(a, b))
	if err != nil {
		return nil, err
	}
	res, err := decodeSetDistAnswer(data)
	if err != nil {
		return nil, err
	}
	return setDistResponse(h.Get("X-Pde-Shard"), h.Get("X-Pde-Fingerprint"), res), nil
}

// Route expands a batch of (from, to) pairs.
func (c *Client) Route(ctx context.Context, pairs []WirePair) (*RouteResponse, error) {
	return CallJSON[RouteResponse](ctx, c, "/v1/route", &RouteRequest{Shard: c.Shard, Pairs: pairs})
}

// Rebuild hot-swaps the client's shard. overrides maps Spec's JSON keys
// to new values (e.g. {"seed": 7}); keys it leaves out keep the shard's
// current value, so an empty map rebuilds the same spec.
func (c *Client) Rebuild(ctx context.Context, overrides map[string]any) (*RebuildResponse, error) {
	body := maps.Clone(overrides)
	if body == nil {
		body = map[string]any{}
	}
	body["shard"] = c.Shard
	return CallJSON[RebuildResponse](ctx, c, "/v1/rebuild", body)
}

// Update applies one churn batch to the client's shard via /v1/update.
func (c *Client) Update(ctx context.Context, req UpdateRequest) (*UpdateResponse, error) {
	req.Shard = c.Shard
	return CallJSON[UpdateResponse](ctx, c, "/v1/update", &req)
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	return CallJSON[StatsResponse](ctx, c, "/v1/stats", nil)
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	return CallJSON[HealthResponse](ctx, c, "/healthz", nil)
}
