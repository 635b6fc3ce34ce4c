package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mgpucompress/internal/sweep"
)

// Client talks to a running sweepd daemon. It is what cmd/reproduce's
// -server flag wraps: submit the whole plan as one batch, poll it to
// completion and download its results journal. RunJob also executes single
// jobs remotely.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// PollInterval paces WaitBatch status polls (default 100ms).
	PollInterval time.Duration
}

func (c *Client) http_() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// decode reads one JSON response body, translating non-2xx statuses into
// errors carrying the server's message.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var ae apiError
		if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("serve: %s: %s", resp.Status, ae.Error)
		}
		return fmt.Errorf("serve: %s", resp.Status)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// Submit posts a batch and returns its initial status.
func (c *Client) Submit(req BatchRequest) (BatchStatus, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return BatchStatus{}, err
	}
	resp, err := c.http_().Post(c.url("/v1/batches"), "application/json", bytes.NewReader(b))
	if err != nil {
		return BatchStatus{}, err
	}
	var st BatchStatus
	return st, decode(resp, &st)
}

// Status fetches one batch's status.
func (c *Client) Status(id string) (BatchStatus, error) {
	resp, err := c.http_().Get(c.url("/v1/batches/" + id))
	if err != nil {
		return BatchStatus{}, err
	}
	var st BatchStatus
	return st, decode(resp, &st)
}

// Wait polls the batch until it leaves StateRunning. OnProgress, when
// non-nil, observes every polled status (progress lines).
func (c *Client) Wait(id string, onProgress func(BatchStatus)) (BatchStatus, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	for {
		st, err := c.Status(id)
		if err != nil {
			return st, err
		}
		if onProgress != nil {
			onProgress(st)
		}
		if st.State != StateRunning {
			return st, nil
		}
		//lint:ignore wallclock client-side poll pacing against a remote daemon; result bytes come from the server's journal
		time.Sleep(interval)
	}
}

// Results streams the settled batch's results journal (JSONL). The bytes
// are the daemon's deterministic artifact: feed them to
// sweep.Engine.Resume (or runner.Sweep.Resume) to serve every successful
// job from the local cache.
func (c *Client) Results(id string) (io.ReadCloser, error) {
	resp, err := c.http_().Get(c.url("/v1/batches/" + id + "/results"))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var ae apiError
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ae) == nil && ae.Error != "" {
			return nil, fmt.Errorf("serve: %s: %s", resp.Status, ae.Error)
		}
		return nil, fmt.Errorf("serve: %s", resp.Status)
	}
	return resp.Body, nil
}

// Events streams a batch's SSE events, calling fn per event until the
// stream ends (terminal batch event), fn returns false, or the connection
// drops. after and epoch form the resume watermark — the Epoch and Seq of
// the last event previously observed; pass (0, 0) to read from the start.
//
// On reconnect the daemon compares the watermark against its current
// history: if it still names a point in the stream (same daemon life), fn
// sees only events after it. If not — the daemon restarted and rebuilt its
// history under a new epoch, or the watermark is beyond anything recorded —
// the first event fn sees is an EventGap frame (Since = the stale
// watermark) followed by the full renumbered history, so a consumer can
// reset its state instead of mistaking the replay for new progress.
func (c *Client) Events(id string, epoch int64, after int, fn func(Event) bool) error {
	req, err := http.NewRequest(http.MethodGet, c.url("/v1/batches/"+id+"/events"), nil)
	if err != nil {
		return err
	}
	if epoch != 0 || after != 0 {
		req.Header.Set("Last-Event-ID", Watermark(epoch, after))
	}
	resp, err := c.http_().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ae apiError
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ae) == nil && ae.Error != "" {
			return fmt.Errorf("serve: %s: %s", resp.Status, ae.Error)
		}
		return fmt.Errorf("serve: %s", resp.Status)
	}
	return ParseSSE(resp.Body, fn)
}

// Job fetches one settled job's record by fingerprint.
func (c *Client) Job(fingerprint string) (JobRecord, error) {
	resp, err := c.http_().Get(c.url("/v1/jobs/" + fingerprint))
	if err != nil {
		return JobRecord{}, err
	}
	var rec JobRecord
	return rec, decode(resp, &rec)
}

// Health fetches the daemon health surface.
func (c *Client) Health() (Health, error) {
	resp, err := c.http_().Get(c.url("/v1/healthz"))
	if err != nil {
		return Health{}, err
	}
	var h Health
	return h, decode(resp, &h)
}

// RunJob executes one job on the daemon: a single-key batch, polled to
// completion, with the settled record's payload returned. It has the shape
// a sweep engine run function needs, so a local engine can transparently
// execute against a remote daemon — the daemon's memo cache makes repeats
// free. A failed job surfaces as an error carrying the daemon's
// deterministic message.
func (c *Client) RunJob(key sweep.JobKey) (json.RawMessage, error) {
	st, err := c.Submit(BatchRequest{Keys: []sweep.JobKey{key}})
	if err != nil {
		return nil, err
	}
	if st, err = c.Wait(st.ID, nil); err != nil {
		return nil, err
	}
	if st.State == StateError {
		return nil, fmt.Errorf("serve: batch %s: %s", st.ID, st.Error)
	}
	rec, err := c.Job(key.Fingerprint())
	if err != nil {
		return nil, err
	}
	if rec.Status != JobOK {
		return nil, fmt.Errorf("serve: job %s: %s", rec.Fingerprint, rec.Error)
	}
	return rec.Result, nil
}
