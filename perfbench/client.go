package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The wire types below mirror trustnetd's JSON API. They are declared
// here, not imported, so the benchmark pins the HTTP contract rather
// than the daemon's Go types.

// genRequest is the body of POST /v1/graphs/{name}/generate.
type genRequest struct {
	Model         string `json:"model"`
	Nodes         int    `json:"nodes,omitempty"`
	Attach        int    `json:"attach,omitempty"`
	Communities   int    `json:"communities,omitempty"`
	CommunitySize int    `json:"community_size,omitempty"`
	Bridges       int    `json:"bridges,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
}

// graphInfo is the generate response.
type graphInfo struct {
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int64  `json:"edges"`
}

// measureConfig is a job's config; zero fields take daemon defaults.
type measureConfig struct {
	Seed             int64 `json:"seed,omitempty"`
	Sources          int   `json:"sources,omitempty"`
	ExpansionSources int   `json:"expansion_sources,omitempty"`
}

// jobRequest is the body of POST /v1/jobs.
type jobRequest struct {
	Graph  string        `json:"graph"`
	Job    string        `json:"job"`
	Config measureConfig `json:"config"`
}

// jobStatus is a job's lifecycle snapshot.
type jobStatus struct {
	ID                string  `json:"id"`
	ConfigFingerprint string  `json:"config_fingerprint"`
	State             string  `json:"state"`
	Cached            bool    `json:"cached"`
	WallSeconds       float64 `json:"wall_seconds"`
	Error             string  `json:"error"`
}

// envelope is the part of a stored artifact the checks read.
type envelope struct {
	Job     string `json:"job"`
	Summary string `json:"summary"`
	Files   []struct {
		Path string `json:"path"`
		Data []byte `json:"data"`
	} `json:"files"`
}

// client talks to one daemon over keep-alive connections.
type client struct {
	base string
	http *http.Client
	rec  *recorder
}

func newClient(base string, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	return &client{base: base, http: &http.Client{Transport: tr}, rec: rec}
}

// close releases the idle keep-alive connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// call performs one HTTP exchange under a span named name, decoding a
// JSON answer into out (when non-nil) and returning the raw body.
func (c *client) call(ctx context.Context, parent *span, name, method, path string, body any, want int, out any) ([]byte, error) {
	sp := c.rec.Start(name, parent)
	defer sp.End()
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
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return data, nil
}

// healthz probes liveness.
func (c *client) healthz(ctx context.Context) error {
	_, err := c.call(ctx, nil, "trustnetd.healthz", "GET", "/healthz", nil, http.StatusOK, nil)
	return err
}

// generate synthesizes the named graph.
func (c *client) generate(ctx context.Context, name string, g genRequest) (graphInfo, error) {
	var info graphInfo
	_, err := c.call(ctx, nil, "trustnetd.generate", "POST", "/v1/graphs/"+name+"/generate", g, http.StatusCreated, &info)
	return info, err
}

// result is one finished measurement request as the client saw it.
type result struct {
	status  jobStatus
	body    []byte        // the artifact envelope, verbatim
	elapsed time.Duration // enqueue → done (long-poll return)
	total   time.Duration // enqueue → artifact body read
}

// run enqueues one job, long-polls it to completion and fetches its
// artifact: the three calls a trustnetd caller makes per measurement.
func (c *client) run(ctx context.Context, parent *span, req jobRequest) (result, error) {
	var r result
	start := time.Now()
	var st jobStatus
	if _, err := c.call(ctx, parent, "trustnetd.enqueue", "POST", "/v1/jobs", req, http.StatusAccepted, &st); err != nil {
		return r, err
	}
	if _, err := c.call(ctx, parent, "trustnetd.wait", "GET", "/v1/jobs/"+st.ID+"?wait=10m", nil, http.StatusOK, &r.status); err != nil {
		return r, err
	}
	r.elapsed = time.Since(start)
	if r.status.State != "done" {
		return r, fmt.Errorf("job %s (%s) ended %s: %s", st.ID, req.Job, r.status.State, r.status.Error)
	}
	body, err := c.call(ctx, parent, "trustnetd.artifact", "GET", "/v1/jobs/"+st.ID+"/artifact", nil, http.StatusOK, nil)
	if err != nil {
		return r, err
	}
	r.body = body
	r.total = time.Since(start)
	return r, nil
}

// counters reads the daemon's obs counters from /metrics.
func (c *client) counters(ctx context.Context) (map[string]int64, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	_, err := c.call(ctx, nil, "trustnetd.metrics", "GET", "/metrics", nil, http.StatusOK, &snap)
	return snap.Counters, err
}
