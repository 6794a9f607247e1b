package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"nextdvfs/internal/core"
	"nextdvfs/internal/rollout"
)

// Client is the device-side API of the fleet policy service: what a
// handset (or the fleetsim load generator) uses to check in, upload its
// locally trained Q-tables, trigger merge rounds and pull merged
// policies.
type Client struct {
	base string
	http *http.Client

	// UseBinary switches table traffic to the compact binary wire
	// encoding: uploads go out as application/x-nextdvfs-table and
	// policy downloads send the matching Accept header. Replies are
	// sniffed, so a binary client still interoperates with a JSON-only
	// server. Set before first use; the default (false) keeps every
	// request byte-identical to the legacy JSON wire.
	UseBinary bool
}

// newClientTransport builds the shared HTTP transport. The default
// transport caps idle connections per host at 2, so a fleet harness
// driving hundreds of concurrent devices through one *Client churns a
// fresh TCP connection per check-in; raising the idle pool to the
// fleet-concurrency scale keeps connections alive across the whole
// check-in cycle (measured in BENCH_fleet.json).
func newClientTransport() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 256}
	}
	t = t.Clone()
	t.MaxIdleConns = 512
	t.MaxIdleConnsPerHost = 256
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// NewClient targets a server base URL (e.g. "http://127.0.0.1:8077").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 30 * time.Second, Transport: newClientTransport()},
	}
}

// RetryAfterError is the typed backpressure signal of the aggregator
// tier: an edge whose upward queue is full answers 429 with a
// Retry-After header, and the client surfaces both so devices can
// delay and re-upload instead of treating the rejection as fatal.
// Detect it with errors.As.
type RetryAfterError struct {
	// Seconds is the server's suggested delay before retrying.
	Seconds float64
	Err     error
}

func (e *RetryAfterError) Error() string { return e.Err.Error() }
func (e *RetryAfterError) Unwrap() error { return e.Err }

// apiErrorOf turns a non-2xx response into a descriptive error.
func apiErrorOf(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e apiError
	err := fmt.Errorf("fleetd: server said %s", resp.Status)
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		err = fmt.Errorf("fleetd: server said %s: %s", resp.Status, e.Error)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		secs, _ := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
		return &RetryAfterError{Seconds: secs, Err: err}
	}
	return err
}

func (c *Client) decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiErrorOf(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Checkin announces the device and returns which merged policies exist
// for its platform.
func (c *Client) Checkin(device, platform string) (CheckinReply, error) {
	body, err := json.Marshal(CheckinRequest{Device: device, Platform: platform})
	if err != nil {
		return CheckinReply{}, err
	}
	resp, err := c.http.Post(c.base+"/v1/checkin", "application/json", bytes.NewReader(body))
	if err != nil {
		return CheckinReply{}, err
	}
	var reply CheckinReply
	err = c.decode(resp, &reply)
	return reply, err
}

// UploadTableSet sends a device's learner table set for one app (the
// app name travels inside the body: compact JSON, or NXTB in binary
// mode). baseGen 0 sends a full upload. baseGen > 0 sends a delta —
// only the states trained since the accepted upload whose reply
// carried that generation. The server answers 409 when the base is
// gone (restart, eviction, competing session), surfaced as an error
// matching errors.Is(err, ErrDeltaBase); the caller then re-sends the
// full set. DeltaUploader wraps this loop. Single-table learners wrap
// their table with learner.SingleTableSet.
func (c *Client) UploadTableSet(device, platform, app string, set *core.TableSet, baseGen int64) (UploadReply, error) {
	var data []byte
	var err error
	contentType := "application/json"
	if c.UseBinary {
		data, err = core.MarshalTableSetBinary(app, set, false)
		contentType = core.TableSetMediaType
	} else {
		data, err = core.MarshalTableSetCompact(app, set, false)
	}
	if err != nil {
		return UploadReply{}, err
	}
	u := fmt.Sprintf("%s/v1/table?device=%s&platform=%s",
		c.base, url.QueryEscape(device), url.QueryEscape(platform))
	req, err := http.NewRequest(http.MethodPut, u, bytes.NewReader(data))
	if err != nil {
		return UploadReply{}, err
	}
	req.Header.Set("Content-Type", contentType)
	if baseGen > 0 {
		req.Header.Set(baseGenHeader, strconv.FormatInt(baseGen, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return UploadReply{}, err
	}
	if resp.StatusCode == http.StatusConflict {
		err := apiErrorOf(resp)
		resp.Body.Close()
		return UploadReply{}, fmt.Errorf("%w: %s", ErrDeltaBase, err)
	}
	var reply UploadReply
	err = c.decode(resp, &reply)
	return reply, err
}

// Merge asks the server to run a federated merge round for app×platform.
func (c *Client) Merge(app, platform string) (MergeInfo, error) {
	u := fmt.Sprintf("%s/v1/merge?app=%s&platform=%s",
		c.base, url.QueryEscape(app), url.QueryEscape(platform))
	resp, err := c.http.Post(u, "application/json", nil)
	if err != nil {
		return MergeInfo{}, err
	}
	var info MergeInfo
	err = c.decode(resp, &info)
	return info, err
}

// PolicySet downloads the complete merged learner table set for
// app×platform along with its merge-round number.
func (c *Client) PolicySet(app, platform string) (*core.TableSet, int64, error) {
	u := fmt.Sprintf("%s/v1/policy?app=%s&platform=%s",
		c.base, url.QueryEscape(app), url.QueryEscape(platform))
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	if c.UseBinary {
		req.Header.Set("Accept", core.TableSetMediaType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, apiErrorOf(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	// Sniffed, not assumed: a binary-mode client downgrades cleanly
	// when talking to a JSON-only server.
	_, set, _, err := core.UnmarshalTableSetAny(data)
	if err != nil {
		return nil, 0, err
	}
	round, _ := strconv.ParseInt(resp.Header.Get(roundHeader), 10, 64)
	return set, round, nil
}

// PolicyMeta is the lifecycle metadata a version-aware policy download
// carries: which artifact version the device got, which cohort it is
// in, the merge round, and the ETag to echo back next time.
type PolicyMeta struct {
	Version int64
	Cohort  string
	Round   int64
	ETag    string
}

// PolicyForDevice is the version-aware policy download: the server
// resolves the device's cohort (canary devices get the candidate
// artifact during a staged rollout) and honors If-None-Match — when
// etag matches the current artifact the server answers 304 and
// PolicyForDevice returns (nil, meta, false, nil), skipping the
// redundant table download. Pass the ETag from the previous call ("" on
// the first).
func (c *Client) PolicyForDevice(device, app, platform, etag string) (*core.TableSet, PolicyMeta, bool, error) {
	u := fmt.Sprintf("%s/v1/policy?app=%s&platform=%s&device=%s",
		c.base, url.QueryEscape(app), url.QueryEscape(platform), url.QueryEscape(device))
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, PolicyMeta{}, false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if c.UseBinary {
		req.Header.Set("Accept", core.TableSetMediaType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, PolicyMeta{}, false, err
	}
	defer resp.Body.Close()
	meta := PolicyMeta{ETag: resp.Header.Get("ETag")}
	meta.Version, _ = strconv.ParseInt(resp.Header.Get(versionHeader), 10, 64)
	meta.Round, _ = strconv.ParseInt(resp.Header.Get(roundHeader), 10, 64)
	meta.Cohort = resp.Header.Get(cohortHeader)
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, meta, false, nil
	case http.StatusOK:
	default:
		return nil, PolicyMeta{}, false, apiErrorOf(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, PolicyMeta{}, false, err
	}
	_, set, _, err := core.UnmarshalTableSetAny(data)
	if err != nil {
		return nil, PolicyMeta{}, false, err
	}
	return set, meta, true, nil
}

// ReportEval submits a device's measured evaluation of the policy
// version it ran; the reply names the cohort the report counted toward.
func (c *Client) ReportEval(app, platform string, rep rollout.EvalReport) (ReportReply, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return ReportReply{}, err
	}
	u := fmt.Sprintf("%s/v1/report?app=%s&platform=%s",
		c.base, url.QueryEscape(app), url.QueryEscape(platform))
	resp, err := c.http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return ReportReply{}, err
	}
	var reply ReportReply
	err = c.decode(resp, &reply)
	return reply, err
}

// RolloutStatus fetches one policy's rollout state.
func (c *Client) RolloutStatus(app, platform string) (rollout.Status, error) {
	u := fmt.Sprintf("%s/v1/rollout?app=%s&platform=%s",
		c.base, url.QueryEscape(app), url.QueryEscape(platform))
	resp, err := c.http.Get(u)
	if err != nil {
		return rollout.Status{}, err
	}
	var st rollout.Status
	err = c.decode(resp, &st)
	return st, err
}

// RolloutAdvance asks the server to judge the active stage: promote,
// advance, or automatically roll back on a QoS/energy regression.
func (c *Client) RolloutAdvance(app, platform string) (rollout.Decision, error) {
	return c.rolloutAction("advance", app, platform)
}

func (c *Client) rolloutAction(action, app, platform string) (rollout.Decision, error) {
	u := fmt.Sprintf("%s/v1/rollout/%s?app=%s&platform=%s",
		c.base, action, url.QueryEscape(app), url.QueryEscape(platform))
	resp, err := c.http.Post(u, "application/json", nil)
	if err != nil {
		return rollout.Decision{}, err
	}
	var d rollout.Decision
	err = c.decode(resp, &d)
	return d, err
}

// Apps lists the server's known policies, optionally filtered to one
// platform ("" = all).
func (c *Client) Apps(platform string) ([]KeyInfo, error) {
	u := c.base + "/v1/apps"
	if platform != "" {
		u += "?platform=" + url.QueryEscape(platform)
	}
	resp, err := c.http.Get(u)
	if err != nil {
		return nil, err
	}
	var infos []KeyInfo
	err = c.decode(resp, &infos)
	return infos, err
}

// Healthz probes liveness and returns the server's health summary.
func (c *Client) Healthz() (HealthReply, error) {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return HealthReply{}, err
	}
	var reply HealthReply
	err = c.decode(resp, &reply)
	return reply, err
}
