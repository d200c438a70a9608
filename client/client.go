// Package client is a typed Go client for gkserved, the HTTP serving
// daemon of the gkmeans library. It speaks the /v1 JSON API: single and
// batched approximate nearest-neighbour search, graph-supported clustering,
// index listing/registration and serving stats. Sharded indexes
// (gkmeans.WithShards) serve transparently — search requests and results
// look exactly like a monolithic index's, IndexInfo.Shards reports the
// shard count, and only clustering is refused. An index built with routing
// centroids (gkmeans.WithRouting, IndexInfo.Routed) additionally accepts a
// per-query nprobe through SearchNProbe/SearchBatchNProbe, trading a little
// recall for scanning only the nprobe most promising shards.
//
// Stats returns the per-index serving counters (IndexStats): request-level
// counts — queries, coalesced batches, explicit batch and cluster requests
// — plus the index's own hot-path totals, distance_comps and
// expanded_candidates, whose per-query averages make the search work the
// early-termination rule bounds observable in production (summed across
// shards for a sharded index).
//
// Served indexes are mutable: Insert appends vectors (the server assigns
// consecutive ids and, when durable, fsyncs them to a write-ahead log
// before acknowledging) and Delete tombstones rows out of every future
// search. IndexInfo reports the mutation state — epoch, live/deleted
// counts and rows pending their shard build.
//
// Every call takes a context and honours its cancellation; a context
// deadline is additionally propagated to the server as the search's
// timeout_ms budget, so a request the client would abandon is answered 504
// and stops consuming server work. Transient failures are retried
// (configurable via WithRetries/WithRetryBackoff) on every call except
// Register and Insert, the two operations whose blind retry could
// double-apply (Insert) or misreport (Register) a first attempt that
// succeeded without a response. The retry policy distinguishes the
// status classes: 429 load sheds retry after the server's Retry-After
// pacing hint, 502/503/504 retry on the exponential backoff schedule,
// and every other 4xx is definitive and never retried. Prometheus
// metrics are available in typed form via Metrics.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to one gkserved instance. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default:
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a transient failure is retried after the
// first attempt (default 2; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithRetryBackoff sets the initial retry delay, doubled after every
// failed attempt (default 50ms).
func WithRetryBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New returns a client for the server at baseURL (e.g. "http://localhost:8080").
// The default transport is a private clone of http.DefaultTransport, so the
// client owns its connection pool and Close affects nothing else.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		retries: 2,
		backoff: 50 * time.Millisecond,
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		c.hc = &http.Client{Transport: t.Clone()}
	} else {
		c.hc = &http.Client{}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close releases idle connections held by the underlying HTTP client.
// Call it when done with the client: a draining server waits several
// seconds for half-open idle connections before giving up on them, so
// closing them client-side lets a graceful shutdown finish promptly.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// APIError is a non-2xx response from the server.
type APIError struct {
	Status     int           // HTTP status code
	Message    string        // server-provided error message
	RetryAfter time.Duration // parsed Retry-After header, 0 when absent
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gkserved: %s (HTTP %d)", e.Message, e.Status)
}

// retryable reports whether a status code signals a transient condition
// worth retrying. The three classes behave differently and the
// distinction matters:
//
//   - 429 (load shed): the server is healthy but at its concurrency
//     limit. Retried, honouring the server's Retry-After pacing hint —
//     immediate exponential backoff would re-shed and add load exactly
//     when the server asked for less.
//   - 502/503/504 (drain, gateway trouble, timeout): transient
//     infrastructure conditions, retried a bounded number of times with
//     exponential backoff.
//   - every other 4xx is a definitive verdict about the request itself —
//     retrying a 400/404/409 can only repeat the answer (or, for Insert,
//     double-apply), so those never retry.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// parseRetryAfter reads a Retry-After header: delta-seconds or an
// HTTP-date; 0 when absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// timeoutMS converts a context deadline into the wire's timeout_ms budget,
// rounding up so a 4.2ms budget is sent as 5 rather than truncated to 4.
// 0 (no deadline, or one already expired — the transport will fail the
// request itself) means the server applies only its own -timeout.
func timeoutMS(ctx context.Context) int {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if time.Until(d)%time.Millisecond != 0 {
		ms++
	}
	if ms <= 0 {
		return 0
	}
	return int(ms)
}

// do runs one API call with retries. in (when non-nil) is marshalled as the
// JSON request body; out (when non-nil) receives the decoded response.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetries(ctx, method, path, in, out, c.retries)
}

func (c *Client) doRetries(ctx context.Context, method, path string, in, out any, retries int) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			delay := c.backoff << (attempt - 1)
			// A shed (429) carries the server's own pacing hint; honour it
			// instead of the local backoff schedule.
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
				delay = apiErr.RetryAfter
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(delay):
			}
		}
		lastErr = c.once(ctx, method, path, body, out)
		if lastErr == nil {
			return nil
		}
		var apiErr *APIError
		if errors.As(lastErr, &apiErr) && !retryable(apiErr.Status) {
			return lastErr // a definitive server verdict: do not retry
		}
		if ctx.Err() != nil || attempt >= retries {
			return lastErr
		}
	}
}

// once runs a single HTTP attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &APIError{
			Status:     resp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// Health reports whether the server is up and accepting work; a draining
// (shutting down) server returns an *APIError with status 503.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Indexes lists the served indexes.
func (c *Client) Indexes(ctx context.Context) ([]IndexInfo, error) {
	var out ListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/indexes", nil, &out); err != nil {
		return nil, err
	}
	return out.Indexes, nil
}

// Register asks the server to load the persisted index at path (a .gkx file
// on the server's filesystem, written by gkmeans.SaveIndex) and serve it
// under name. Unlike the read-only calls, registration is not retried: a
// first attempt whose response was lost may have registered the index, and
// a blind retry would misreport that success as 409 Conflict.
func (c *Client) Register(ctx context.Context, name, path string) (IndexInfo, error) {
	var out IndexInfo
	err := c.doRetries(ctx, http.MethodPost, "/v1/indexes", RegisterRequest{Name: name, Path: path}, &out, 0)
	return out, err
}

// Stats fetches the serving counters of one index.
func (c *Client) Stats(ctx context.Context, name string) (IndexStats, error) {
	var out IndexStats
	err := c.do(ctx, http.MethodGet, "/v1/indexes/"+name+"/stats", nil, &out)
	return out, err
}

// Search returns the approximately closest topK samples to q, sorted by
// ascending squared distance. On the server, concurrent single-query
// searches are micro-batched through the index's SearchBatch. ef follows
// the library defaulting (<=0 selects max(4·topK, 32)).
func (c *Client) Search(ctx context.Context, name string, q []float32, topK, ef int) ([]Neighbor, error) {
	return c.SearchNProbe(ctx, name, q, topK, ef, 0)
}

// SearchNProbe is Search with a per-query shard-probe cap for routed
// indexes: only the nprobe shards whose routing centroids are closest to q
// are scanned. nprobe 0 probes every shard, and so do values at or above
// the shard count: both are equivalent to Search. A positive nprobe against
// an unrouted index is a 400 from the server.
func (c *Client) SearchNProbe(ctx context.Context, name string, q []float32, topK, ef, nprobe int) ([]Neighbor, error) {
	var out SearchResponse
	req := SearchRequest{Query: q, TopK: topK, Ef: ef, NProbe: nprobe, TimeoutMS: timeoutMS(ctx)}
	if err := c.do(ctx, http.MethodPost, "/v1/indexes/"+name+"/search", req, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != 1 {
		return nil, fmt.Errorf("client: server returned %d result lists for one query", len(out.Results))
	}
	return out.Results[0], nil
}

// SearchBatch answers every query and returns one sorted neighbour list per
// query, in order. An empty query set answers locally with no request.
func (c *Client) SearchBatch(ctx context.Context, name string, queries [][]float32, topK, ef int) ([][]Neighbor, error) {
	return c.SearchBatchNProbe(ctx, name, queries, topK, ef, 0)
}

// SearchBatchNProbe is SearchBatch with the per-query shard-probe cap
// described on SearchNProbe, applied to every query in the batch.
func (c *Client) SearchBatchNProbe(ctx context.Context, name string, queries [][]float32, topK, ef, nprobe int) ([][]Neighbor, error) {
	if len(queries) == 0 {
		// The wire format cannot distinguish an empty batch from an absent
		// one (omitempty), and there is nothing to ask anyway.
		return [][]Neighbor{}, nil
	}
	var out SearchResponse
	req := SearchRequest{Queries: queries, TopK: topK, Ef: ef, NProbe: nprobe, TimeoutMS: timeoutMS(ctx)}
	if err := c.do(ctx, http.MethodPost, "/v1/indexes/"+name+"/search", req, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(queries) {
		return nil, fmt.Errorf("client: server returned %d result lists for %d queries", len(out.Results), len(queries))
	}
	return out.Results, nil
}

// Insert appends vectors to the served index. The response reports the
// assigned ids (FirstID..FirstID+Count-1, in send order). Inserts are not
// retried: a lost response after a successful append would double-insert
// on retry, so callers see the transient error and decide themselves.
func (c *Client) Insert(ctx context.Context, name string, vectors [][]float32) (InsertResponse, error) {
	var out InsertResponse
	err := c.doRetries(ctx, http.MethodPost, "/v1/indexes/"+name+"/insert",
		InsertRequest{Vectors: vectors}, &out, 0)
	return out, err
}

// Delete tombstones the rows with the given ids; they disappear from every
// subsequent search. Any unknown id rejects the whole request and deletes
// nothing. Deleting is idempotent (a tombstoned row may be deleted again),
// so transient failures are retried like reads.
func (c *Client) Delete(ctx context.Context, name string, ids ...int32) (DeleteResponse, error) {
	var out DeleteResponse
	err := c.do(ctx, http.MethodPost, "/v1/indexes/"+name+"/delete", DeleteRequest{IDs: ids}, &out)
	return out, err
}

// Cluster partitions the served dataset into req.K clusters with
// graph-supported boost k-means on the server.
func (c *Client) Cluster(ctx context.Context, name string, req ClusterRequest) (ClusterResponse, error) {
	var out ClusterResponse
	err := c.do(ctx, http.MethodPost, "/v1/indexes/"+name+"/cluster", req, &out)
	return out, err
}
