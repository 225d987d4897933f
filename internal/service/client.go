package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/obs"
)

// Client is a typed caller of the HTTP API: the one place outside the
// handlers that knows the /v1/ paths, the long-poll and the error body, so
// `coreset load`, the examples and the tests drive a daemon the same way.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client of the service at base ("http://host:port").
// A nil hc means http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimSuffix(base, "/"), hc: hc}
}

// StatusError is a non-2xx reply: its status code and the message of the
// server's {"error": …} body (the body itself when it carries none).
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Message) }

// AddGraph registers a graph (POST /v1/graphs).
func (c *Client) AddGraph(ctx context.Context, req CreateGraphRequest) (info GraphInfo, err error) {
	return info, c.call(ctx, http.MethodPost, "/v1/graphs", req, &info)
}

// Submit submits a job (POST /v1/jobs) and returns it as the server took
// it: queued or running, or already done on a cache hit.
func (c *Client) Submit(ctx context.Context, req CreateJobRequest) (v JobView, err error) {
	return v, c.call(ctx, http.MethodPost, "/v1/jobs", req, &v)
}

// Wait long-polls job id until it is terminal. A job that ends failed or
// canceled returns its view and an error naming the state.
func (c *Client) Wait(ctx context.Context, id string) (JobView, error) {
	return c.wait(ctx, JobView{ID: id, State: string(JobQueued)})
}

// Run submits a job and waits for it to be terminal.
func (c *Client) Run(ctx context.Context, req CreateJobRequest) (JobView, error) {
	v, err := c.Submit(ctx, req)
	if err != nil {
		return v, err
	}
	return c.wait(ctx, v)
}

func (c *Client) wait(ctx context.Context, v JobView) (JobView, error) {
	for v.State == string(JobQueued) || v.State == string(JobRunning) {
		var next JobView
		if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(v.ID)+"?wait=2s", nil, &next); err != nil {
			return v, fmt.Errorf("service: job %s (%s): %w", v.ID, v.State, err)
		}
		v = next
	}
	if v.State != string(JobDone) {
		return v, fmt.Errorf("service: job %s %s: %s", v.ID, v.State, v.Error)
	}
	return v, nil
}

// Stats reads the registry, job and cache counters (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (st StatsView, err error) {
	return st, c.call(ctx, http.MethodGet, "/v1/stats", nil, &st)
}

// Metrics scrapes GET /metrics and parses the exposition into samples keyed
// by name and label set. It also reads a worker's -admin surface.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("GET /metrics: Content-Type %q is not a text exposition", ct)
	}
	return obs.ParseText(resp.Body)
}

// call sends body as JSON (none when nil) and decodes a 2xx reply into out.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding the reply: %w", method, path, err)
	}
	return nil
}

// do sends one request and returns a 2xx response for the caller to close;
// any other status comes back as a *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10)) // a truncated message is still a message
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) != nil || e.Error == "" {
		e.Error = string(bytes.TrimSpace(data))
	}
	return nil, fmt.Errorf("%s %s: %w", method, path, &StatusError{Code: resp.StatusCode, Message: e.Error})
}
