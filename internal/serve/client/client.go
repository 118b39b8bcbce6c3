// Package client is the Go client for the mariod planning service
// (internal/serve): it submits PlanRequests over HTTP, optionally follows
// the NDJSON progress stream, and decodes the returned plan JSON back into
// a *mario.Plan with mario.LoadPlan.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"mario"
	"mario/internal/serve/api"
)

// Client talks to one mariod instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// Trace asks the plan endpoints for the run's canonical search trace
	// (?trace=1); when the request is answered by a tuner run, the
	// response's Trace field carries it.
	Trace bool
	// Retries is how many times a POST is re-sent after a transient
	// failure (a transport error, or a 429/502/503/504 status). 0 — the
	// default — disables retries entirely; requests are deterministic and
	// idempotent, so retrying is always safe, just not always wanted.
	Retries int
	// Backoff is the base delay of the exponential backoff between
	// retries (doubled per attempt up to maxBackoff, with ±50% jitter); 0
	// means 50ms when Retries is set.
	Backoff time.Duration
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// httpClient serves every Client. It has no overall timeout: plan requests
// are bounded server-side and by ctx.
var httpClient = &http.Client{}

// apiError decodes the service's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("client: server returned %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("client: server returned %s", resp.Status)
}

// retryableStatus reports whether a response status is worth re-sending
// the request for: admission pushback and gateway-style transient errors.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// maxBackoff is where the doubling of the backoff stops. The doubling
// saturates rather than shifting the base by the attempt number: a shift
// overflows int64 (at 50ms, past attempt 37) into a negative or zero delay,
// and the retries behind it would not pause at all.
const maxBackoff = time.Hour

// backoffDelay is the sleep before retry attempt n (0-based): the base
// doubled per attempt up to maxBackoff, with ±50% jitter so a fleet of
// clients does not retry in lockstep.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.Backoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	d = min(d, maxBackoff)
	for ; attempt > 0 && d < maxBackoff; attempt-- {
		d = min(2*d, maxBackoff)
	}
	jitter := 0.5 + rand.Float64() // [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// postJSON sends one JSON body to path, retrying transient failures up to
// c.Retries times. The caller owns the returned response body. hdr holds
// extra header key/value pairs.
func (c *Client) postJSON(ctx context.Context, url string, body []byte, hdr ...string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		for i := 0; i+1 < len(hdr); i += 2 {
			hreq.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := httpClient.Do(hreq)
		switch {
		case err != nil:
			lastErr = err
		case resp.StatusCode == http.StatusOK:
			return resp, nil
		default:
			apiErr := apiError(resp)
			resp.Body.Close()
			if !retryableStatus(resp.StatusCode) {
				return nil, apiErr
			}
			lastErr = apiErr
		}
		if attempt >= c.Retries {
			return nil, lastErr
		}
		select {
		case <-time.After(c.backoffDelay(attempt)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// post sends one plan request to path; trace asks for the run's search
// trace (?trace=1) on this call.
func (c *Client) post(ctx context.Context, path string, req api.PlanRequest, trace bool, hdr ...string) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	url := c.BaseURL + path
	if trace {
		url += "?trace=1"
	}
	return c.postJSON(ctx, url, body, hdr...)
}

// plan posts req to /v1/plan and reads the answer with the one envelope
// reader: the body into one buffer of the declared length, then one pass over
// it (api.ReadPlanResponse).
func (c *Client) plan(ctx context.Context, req api.PlanRequest, trace bool, hdr ...string) (*api.PlanResponse, error) {
	resp, err := c.post(ctx, "/v1/plan", req, trace, hdr...)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	pr, err := api.ReadPlanResponse(resp)
	if err != nil {
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	return pr, nil
}

// PlanRouted is Plan with the fleet routing guard set: the receiving
// member answers locally instead of consulting its hash ring again. Fleet
// members use it to forward a request to the workload's owner exactly
// once. trace forwards the caller's ?trace=1 with this one call — a fleet
// member's client serves every request it routes, so the client-wide Trace
// field cannot carry it. The response is what the owner sent, its JSON
// grammar checked end to end by the read (Plan and Trace are slices of the
// body that was read, not copies): the caller checks that it answers the
// request (fingerprint, a plan) before relaying it.
func (c *Client) PlanRouted(ctx context.Context, req api.PlanRequest, trace bool) (*api.PlanResponse, error) {
	return c.plan(ctx, req, trace, api.RoutedHeader, "1")
}

// Plan submits a blocking plan request and returns the raw response. Use
// Decode (or mario.LoadPlan) to turn the response's Plan bytes into a
// *mario.Plan. The answer must be one JSON value and nothing after it: a 200
// with anything but white space behind the envelope, or with fewer bytes than
// its Content-Length declares, is a decoding error.
func (c *Client) Plan(ctx context.Context, req api.PlanRequest) (*api.PlanResponse, error) {
	return c.plan(ctx, req, c.Trace)
}

// PlanStream submits a streaming plan request, invoking onProgress (when
// non-nil) for every progress record, and returns the terminal plan
// response, read from its line by the envelope reader
// (api.ParsePlanResponse).
func (c *Client) PlanStream(ctx context.Context, req api.PlanRequest, onProgress func(api.ProgressEvent)) (*api.PlanResponse, error) {
	resp, err := c.post(ctx, "/v1/plan/stream", req, c.Trace)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20) // a plan record is one line: the envelope, its plan and any trace
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec api.StreamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("client: decoding stream record: %w", err)
		}
		switch rec.Type {
		case "progress":
			if onProgress != nil {
				onProgress(api.ProgressEvent{Explored: rec.Explored, Best: rec.Best, BestThroughput: rec.BestThroughput})
			}
		case "plan":
			// The last line read: the scanner's buffer is the response's now.
			pr, err := api.ParsePlanResponse(line)
			if err != nil {
				return nil, fmt.Errorf("client: decoding stream record: %w", err)
			}
			return pr, nil
		case "error":
			return nil, fmt.Errorf("client: server error: %s", rec.Error)
		default:
			return nil, fmt.Errorf("client: unknown stream record type %q", rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading stream: %w", err)
	}
	return nil, fmt.Errorf("client: stream ended without a terminal record")
}

// Decode turns a plan response's raw bytes into a *mario.Plan.
func Decode(pr *api.PlanResponse) (*mario.Plan, error) {
	return mario.LoadPlan(pr.Plan)
}

// get sends a GET for path; the caller closes the response body.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	return httpClient.Do(req)
}

// Metrics fetches the raw Prometheus text exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.get(ctx, "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}
