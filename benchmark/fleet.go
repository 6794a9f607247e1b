package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// The fleet workloads drive an in-process flat fleetd (httptest
// loopback) from this process over fleetConns keep-alive connections,
// replaying fleetsim's check-in protocol round by round (traffic.go).
// Device d always uses connection d mod fleetConns, so each device's
// requests arrive in a deterministic order. The benchmark keeps, for
// every device, the list of its uploads the server acked; after the run
// the served policy must equal cloud.JoinDevices over those tables.
const (
	fleetApp      = "spotify"
	fleetPlatform = "note9"
	fleetConns    = 2

	// Header names of fleetd's wire protocol.
	baseGenHeader = "X-Fleet-Base-Gen"
	versionHeader = "X-Fleet-Version"
	roundHeader   = "X-Fleet-Round"
	traceHeader   = "X-Bench-Trace"
)

// Request kinds.
const (
	kUpload = iota
	kMerge
	kPull    // fleet-ingest: fleetsim's deviceless binary pull
	kPolicy  // fleet-serve: version-aware pull (device ID, binary Accept, If-None-Match)
	kCheckin // set-up only
	numKinds
)

var kindNames = [numKinds]string{"upload", "merge", "pull", "policy", "checkin"}

// fleetEnv is one server plus the benchmark's side of the fleet.
type fleetEnv struct {
	p       Params
	traffic *fleetTraffic
	serve   bool // rollout lifecycle on, version-aware pulls
	srv     *fleetd.Server
	ts      *httptest.Server
	key     fleetd.Key
	conns   [fleetConns]*http.Client

	round     int       // rounds started so far
	gens      []int64   // each device's last acked upload generation
	acked     [][]int32 // each device's acked uploads, as the rounds they were sent in
	etags     []string  // each device's last policy ETag (fleet-serve)
	mergeRnd  int64     // the round number fleet-ingest's last merge returned
	intercept atomic.Pointer[interceptFunc]

	tr  atomic.Pointer[tracer] // non-nil during the traced phase
	rec *fleetRecording        // non-nil during the traced phase
}

func newFleetEnv(p Params, traffic *fleetTraffic, serve bool) (*fleetEnv, error) {
	cfg := fleetd.Config{}
	if serve {
		cfg.Rollout = &rollout.Config{}
	}
	srv, err := fleetd.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	n := len(traffic.devices)
	f := &fleetEnv{
		p: p, traffic: traffic, serve: serve, srv: srv, key: fleetd.Key{App: fleetApp, Platform: fleetPlatform},
		gens: make([]int64, n), acked: make([][]int32, n), etags: make([]string, n),
	}
	f.ts = httptest.NewServer(f.handler())
	for c := range f.conns {
		f.conns[c] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return f, nil
}

func (f *fleetEnv) close() {
	f.ts.Close()
	for _, c := range f.conns {
		c.CloseIdleConnections()
	}
}

// setup runs the protocol's first two rounds: every device checks in
// and uploads its first table, the first merge (which mints stable v1
// under rollout), every device pulls; then every device uploads its
// first retrained table as a delta, a merge, and the pulls. The fleet
// is then in the steady state the timed rounds repeat.
func (f *fleetEnv) setup() error {
	var st [fleetConns]connStats
	f.closedRound(&st, true)
	f.closedRound(&st, false)
	for c := range st {
		if err := st[c].err(); err != nil {
			return err
		}
	}
	return nil
}

// setupFleet builds SetupReps environments and keeps the last.
func setupFleet(p Params, traffic *fleetTraffic, serve bool) (*fleetEnv, *setupTimer, error) {
	var f *fleetEnv
	timer := newSetupTimer(p)
	for i := 0; i < p.SetupReps; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		err := timer.time(func() error {
			var err error
			if f, err = newFleetEnv(p, traffic, serve); err != nil {
				return err
			}
			return f.setup()
		})
		if err != nil {
			if f != nil {
				f.close()
			}
			return nil, nil, fmt.Errorf("fleet set-up: %w", err)
		}
	}
	return f, timer, nil
}

// connStats is one connection's view of a phase.
type connStats struct {
	kinds       [numKinds]kindStats
	failed      int64
	errs        []string // failed requests, first few
	wrong       []string // wrong answers, first few
	deltas      int64    // delta uploads sent
	fallbacks   int64    // delta uploads answered 409 and re-sent full
	notModified int64    // version-aware pulls answered 304
	served      []served // fleet-serve: requests in the order sent, with their due times
	bodies      map[string][]byte
}

// served is one fleet-serve request as the queue model sees it.
type served struct {
	at, service time.Duration // due, from the start of its round; send to response
	round       int32
}

// kindStats aggregates one request kind.
type kindStats struct {
	lat   []float64 // ms, send to response (a 409 fallback included)
	round []int32   // the round of each latency
	rttNS int64     // send to response, summed per HTTP request
	bytes int64     // upload request bodies / policy response bodies
	ok    int64
}

// add records one op's latency, in the round in progress.
func (k *kindStats) add(f *fleetEnv, start time.Time) {
	k.lat = append(k.lat, msSince(start))
	k.round = append(k.round, int32(f.round-1))
}

// failf counts a failed request: a transport error, an unexpected
// status, or a request never sent.
func (s *connStats) failf(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// wrongf counts a request whose answer is wrong; it makes the whole
// run incorrect.
func (s *connStats) wrongf(format string, args ...any) {
	s.failed++
	if len(s.wrong) < 5 {
		s.wrong = append(s.wrong, fmt.Sprintf(format, args...))
	}
}

func (s *connStats) err() error {
	if s.failed > 0 {
		return fmt.Errorf("%d requests failed: %s", s.failed, strings.Join(append(s.wrong, s.errs...), "; "))
	}
	return nil
}

// do sends one request on connection c and reads the whole response.
func (f *fleetEnv) do(c, kind int, req *http.Request) (*http.Response, []byte, error) {
	tr := f.tr.Load()
	var trace, start int64
	if tr != nil {
		trace = tr.newTrace()
		req.Header.Set(traceHeader, strconv.FormatInt(trace, 10))
		start = nowNS()
	}
	resp, err := f.conns[c].Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		l := tr.layers["http."+kindNames[kind]]
		l.calls.Add(1)
		tr.observe(l, start, nowNS(), span{ID: trace, Trace: trace, Lane: c + 1})
	}
	return resp, body, err
}

// handler is the server's handler behind a middleware that, during the
// traced phase, times each request server-side and links the span to
// the client's through the trace header. During timed phases it first
// offers each request to Params.Intercept, the self-test's hook for
// injected failures and slowdowns.
func (f *fleetEnv) handler() http.Handler {
	h := f.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fn := f.intercept.Load(); fn != nil && (*fn)(w, r) {
			return
		}
		tr := f.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		trace, _ := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		start := nowNS()
		h.ServeHTTP(w, r)
		l := tr.layers["handler."+endpoint(r)]
		l.calls.Add(1)
		tr.observe(l, start, nowNS(), child(trace))
	})
}

// endpoint names the request kind a server-side request belongs to.
func endpoint(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/table":
		return kindNames[kUpload]
	case "/v1/merge":
		return kindNames[kMerge]
	case "/v1/checkin":
		return kindNames[kCheckin]
	}
	if r.URL.Query().Get("device") != "" {
		return kindNames[kPolicy]
	}
	return kindNames[kPull]
}

func (f *fleetEnv) url(path string, query ...string) string {
	q := "?app=" + fleetApp + "&platform=" + fleetPlatform
	for i := 0; i+1 < len(query); i += 2 {
		q += "&" + query[i] + "=" + query[i+1]
	}
	return f.ts.URL + path + q
}

// upload sends device d's body for round r: the full table in round 0,
// afterwards a delta against the device's last acked generation,
// falling back to the full table on 409 as fleetd.DeltaUploader does.
// The device's model takes the upload only once the server acks it.
func (f *fleetEnv) upload(c, d, r int, st *connStats) {
	body := f.traffic.body(r, d)
	start := time.Now()
	var status int
	var gen int64
	if r > 0 {
		st.deltas++
		status, gen = f.put(c, d, r, body, f.gens[d], st)
		if status == http.StatusConflict {
			st.fallbacks++
			full, err := f.fullBody(d, body)
			if err != nil {
				st.wrongf("upload %s: %v", f.traffic.devices[d], err)
				return
			}
			status, gen = f.put(c, d, r, full, 0, st)
		}
	} else {
		status, gen = f.put(c, d, r, body, 0, st)
	}
	k := &st.kinds[kUpload]
	k.add(f, start)
	if status != http.StatusOK {
		if status != 0 {
			st.failf("upload %s: status %d", f.traffic.devices[d], status)
		}
		return
	}
	k.ok++
	f.gens[d] = gen
	f.acked[d] = append(f.acked[d], int32(r))
}

// fullBody is the whole table device d holds once delta is applied: the
// fallback a 409 asks for.
func (f *fleetEnv) fullBody(d int, delta []byte) ([]byte, error) {
	set, err := decodeBody(delta)
	if err != nil {
		return nil, err
	}
	base, err := f.deviceTable(d, len(f.acked[d]))
	if err != nil {
		return nil, err
	}
	return core.MarshalTableSetBinary(fleetApp, overlay(base, set), false)
}

// put sends one table upload; baseGen > 0 makes it a delta. It returns
// the status (0 after a failure it has already counted) and the
// device's new generation.
func (f *fleetEnv) put(c, d, r int, body []byte, baseGen int64, st *connStats) (int, int64) {
	dev := f.traffic.devices[d]
	req, err := http.NewRequest(http.MethodPut, f.ts.URL+"/v1/table?device="+dev+"&platform="+fleetPlatform, bytes.NewReader(body))
	if err != nil {
		st.failf("%v", err)
		return 0, 0
	}
	req.Header.Set("Content-Type", core.TableSetMediaType)
	if baseGen > 0 {
		req.Header.Set(baseGenHeader, strconv.FormatInt(baseGen, 10))
	}
	if f.rec != nil {
		f.rec.add(recordedOp{kind: kUpload, device: d, round: r, body: body, delta: baseGen > 0})
	}
	st.kinds[kUpload].bytes += int64(len(body))
	sent := time.Now()
	resp, reply, err := f.do(c, kUpload, req)
	st.kinds[kUpload].rttNS += int64(time.Since(sent))
	if err != nil {
		st.failf("upload %s: %v", dev, err)
		return 0, 0
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0
	}
	var ur fleetd.UploadReply
	if err := json.Unmarshal(reply, &ur); err != nil || ur.Gen <= 0 || ur.Devices < 1 || ur.Devices > len(f.gens) {
		st.wrongf("upload %s: bad reply %q", dev, reply)
		return 0, 0
	}
	return http.StatusOK, ur.Gen
}

// merge runs one federated merge round.
func (f *fleetEnv) merge(c int, st *connStats) (fleetd.MergeInfo, bool) {
	req, _ := http.NewRequest(http.MethodPost, f.url("/v1/merge"), nil)
	if f.rec != nil {
		f.rec.add(recordedOp{kind: kMerge})
	}
	start := time.Now()
	resp, body, err := f.do(c, kMerge, req)
	k := &st.kinds[kMerge]
	k.rttNS += int64(time.Since(start))
	k.add(f, start)
	var info fleetd.MergeInfo
	switch {
	case err != nil:
		st.failf("merge: %v", err)
	case resp.StatusCode != http.StatusOK:
		st.failf("merge: status %d: %s", resp.StatusCode, body)
	case json.Unmarshal(body, &info) != nil || info.Devices != len(f.gens):
		st.wrongf("merge: bad reply %s", body)
	default:
		k.ok++
		return info, true
	}
	return info, false
}

// checkin announces device d and expects it echoed.
func (f *fleetEnv) checkin(c, d int, st *connStats) {
	dev := f.traffic.devices[d]
	body, _ := json.Marshal(fleetd.CheckinRequest{Device: dev, Platform: fleetPlatform})
	req, _ := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/checkin", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, reply, err := f.do(c, kCheckin, req)
	k := &st.kinds[kCheckin]
	k.rttNS += int64(time.Since(start))
	k.add(f, start)
	if err != nil || resp.StatusCode != http.StatusOK {
		st.failf("checkin %s: %v %v", dev, err, statusOf(resp))
		return
	}
	var cr fleetd.CheckinReply
	if err := json.Unmarshal(reply, &cr); err != nil || cr.Device != dev {
		st.wrongf("checkin %s: bad reply %q", dev, reply)
		return
	}
	k.ok++
}

// pull fetches the policy over the binary wire: fleetsim's deviceless
// pull in fleet-ingest, whose body must carry the round of the merge
// just run; a version-aware pull with the device's last ETag in
// fleet-serve. Every 200 body must decode, and equal any earlier body
// served under the same ETag or round.
func (f *fleetEnv) pull(c, d int, st *connStats) {
	kind, u := kPull, f.url("/v1/policy")
	if f.serve {
		kind, u = kPolicy, f.url("/v1/policy", "device", f.traffic.devices[d])
	}
	req, _ := http.NewRequest(http.MethodGet, u, nil)
	req.Header.Set("Accept", core.TableSetMediaType)
	if kind == kPolicy && f.etags[d] != "" {
		req.Header.Set("If-None-Match", f.etags[d])
	}
	if f.rec != nil {
		f.rec.addResolve(f.traffic.devices[d])
	}
	start := time.Now()
	resp, body, err := f.do(c, kind, req)
	k := &st.kinds[kind]
	k.rttNS += int64(time.Since(start))
	k.add(f, start)
	if err != nil {
		st.failf("%s: %v", kindNames[kind], err)
		return
	}
	switch {
	case resp.StatusCode == http.StatusNotModified && kind == kPolicy && f.etags[d] != "":
		st.notModified++
	case resp.StatusCode == http.StatusOK:
		wantRound := int64(0)
		if kind == kPull {
			wantRound = f.mergeRnd
		}
		if !st.verifyPolicy(kind, resp.Header, body, wantRound) {
			return
		}
		k.bytes += int64(len(body))
		if kind == kPolicy {
			f.etags[d] = resp.Header.Get("ETag")
		}
	default:
		st.failf("%s: status %d", kindNames[kind], resp.StatusCode)
		return
	}
	k.ok++
}

// verifyPolicy checks a 200 policy body. A version-aware body's content
// hash must match its ETag; a deviceless one in the closed loop must
// come from the round merged just before (wantRound, 0 = any). The
// first body seen under an ETag or round must decode, and later ones
// must equal it.
func (s *connStats) verifyPolicy(kind int, h http.Header, body []byte, wantRound int64) bool {
	if s.bodies == nil {
		s.bodies = map[string][]byte{}
	}
	cacheKey := "round " + h.Get(roundHeader)
	if kind == kPolicy {
		cacheKey = "etag " + h.Get("ETag")
	} else if round, _ := strconv.ParseInt(h.Get(roundHeader), 10, 64); wantRound > 0 && round != wantRound {
		s.wrongf("%s: policy of round %d served after merge round %d", kindNames[kind], round, wantRound)
		return false
	}
	if seen, ok := s.bodies[cacheKey]; ok {
		if !bytes.Equal(seen, body) {
			s.wrongf("%s: body differs from an earlier body with %s", kindNames[kind], cacheKey)
			return false
		}
		return true
	}
	_, set, _, err := core.UnmarshalTableSetAny(body)
	if err != nil {
		s.wrongf("%s: body does not decode: %v", kindNames[kind], err)
		return false
	}
	if kind == kPolicy {
		hash, err := core.HashTableSet(set)
		if err != nil {
			s.wrongf("%s: %v", kindNames[kind], err)
			return false
		}
		want := fmt.Sprintf("%q", "v"+h.Get(versionHeader)+"-"+strings.TrimPrefix(hash, "sha256:")[:12])
		if etag := h.Get("ETag"); etag != want {
			s.wrongf("%s: ETag %s, want %s for the body served", kindNames[kind], etag, want)
			return false
		}
	}
	s.bodies[cacheKey] = body
	return true
}

func statusOf(resp *http.Response) int {
	if resp == nil {
		return 0
	}
	return resp.StatusCode
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// eachConn runs fn once per connection concurrently and joins them.
func eachConn(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < fleetConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// closedRound runs one round of the protocol as fleetsim does, each
// step a barrier: every device uploads (after checking in, in the first
// round), one merge, every device pulls.
func (f *fleetEnv) closedRound(st *[fleetConns]connStats, checkin bool) {
	r := f.round
	f.round++
	n := len(f.gens)
	eachConn(func(c int) {
		for d := c; d < n; d += fleetConns {
			if checkin {
				f.checkin(c, d, &st[c])
			}
			f.upload(c, d, r, &st[c])
		}
	})
	if info, ok := f.merge(0, &st[0]); ok {
		f.mergeRnd = info.Round
	}
	eachConn(func(c int) {
		for d := c; d < n; d += fleetConns {
			f.pull(c, d, &st[c])
		}
	})
}

// phaseResult is what one timed phase produced.
type phaseResult struct {
	stats   [fleetConns]connStats
	first   int             // the number of the phase's first round
	elapsed []time.Duration // each round's own time, without the reference chunks
	speed   []float64       // each round's host speed
	ref     []float64       // reference chunk times, ns
}

// roundSpeed is the host speed of round r.
func (res *phaseResult) roundSpeed(r int32) float64 { return res.speed[int(r)-res.first] }

// seconds is the rounds' total time, as measured and scaled to the
// defining host.
func (res *phaseResult) seconds() (measured, scaled float64) {
	for i, e := range res.elapsed {
		measured += e.Seconds()
		scaled += e.Seconds() * res.speed[i]
	}
	return measured, scaled
}

// scaled multiplies each latency by its round's host speed.
func (res *phaseResult) scaled(lat []float64, rounds []int32) []float64 {
	out := make([]float64, len(lat))
	for i, v := range lat {
		out[i] = v * res.roundSpeed(rounds[i])
	}
	return out
}

// cycleDone reports whether the last round sent replayed the recorded
// round set-up ended on. Phases stop only there: the server's tables
// share rows with the decoded bodies they came from, so how much memory
// they hold depends on which recorded round came last.
func (f *fleetEnv) cycleDone() bool {
	return f.traffic.bodyIndex(f.round-1) == f.traffic.bodyIndex(1)
}

// timedPhase runs whole rounds back to back until d has passed and the
// recorded cycle is done. After each round, with nothing in flight, it
// runs the reference chunks. A round's host speed comes from the chunks
// at the barriers before and after it, so the scaling follows the host's
// drift within a run. In fleet-serve each round is also given its
// schedule (serveRound).
func (f *fleetEnv) timedPhase(d time.Duration) phaseResult {
	res := phaseResult{first: f.round}
	ref := newHostRef(f.p.Seed, f.p.Elasticity)
	rng := rand.New(rand.NewSource(f.p.Seed*1_000_003 + int64(f.round)))
	var ran time.Duration
	for ran < d || !f.cycleDone() {
		var mark [fleetConns][numKinds]int
		for c := range mark {
			for k := range mark[c] {
				mark[c][k] = len(res.stats[c].kinds[k].lat)
			}
		}
		start := time.Now()
		f.closedRound(&res.stats, false)
		elapsed := time.Since(start)
		ran += elapsed
		res.elapsed = append(res.elapsed, elapsed)
		if f.serve {
			f.serveRound(&res.stats, mark, rng)
		}
		ref.runN(refsPerBarrier)
		n := len(ref.samples)
		res.speed = append(res.speed, ref.speed(max(n-2*refsPerBarrier, 0), n))
	}
	res.ref = ref.samples
	return res
}

// serveSchedule draws one round's due times, from the start of the
// round: the round's requests in closedRound's order (uploads, the
// merge, pulls), arriving as a Poisson process at the offered rate, each
// on its device's connection.
func (f *fleetEnv) serveSchedule(rng *rand.Rand) [fleetConns][]time.Duration {
	var out [fleetConns][]time.Duration
	var at time.Duration
	next := func(conn int) {
		at += time.Duration(rng.ExpFloat64() / f.p.Rate * float64(time.Second))
		out[conn] = append(out[conn], at)
	}
	n := len(f.gens)
	for d := 0; d < n; d++ {
		next(d % fleetConns)
	}
	next(0) // the merge
	for d := 0; d < n; d++ {
		next(d % fleetConns)
	}
	return out
}

// serveRound pairs the round just run, whose requests start at mark in
// each connection's stats, with a Poisson schedule at the offered rate.
//
// fleet-serve measures latency at a fixed load below capacity. The
// requests are sent back to back, as in fleet-ingest, and each one's
// service time (send to response) is measured. Latency then counts from
// the scheduled due time through a one-connection FIFO queue per
// connection (queuedLatencies): a request starts at its due time or when
// the previous one finished, whichever is later, and takes its measured
// service time. So a long merge delays the requests scheduled behind it,
// as it would for real clients arriving at that rate. The requests are
// not sent at their due times because, on the hosts this benchmark runs
// on, service times measured in a mostly idle process (woken for each
// request at millisecond timer granularity) varied between runs several
// times as much as back-to-back ones.
func (f *fleetEnv) serveRound(stats *[fleetConns]connStats, mark [fleetConns][numKinds]int, rng *rand.Rand) {
	sched := f.serveSchedule(rng)
	r := int32(f.round - 1)
	for c := range sched {
		st := &stats[c]
		// Each connection sent its uploads, then its merge, then its
		// pulls: the order of its schedule.
		var service []float64
		for _, k := range []int{kUpload, kMerge, kPolicy} {
			service = append(service, st.kinds[k].lat[mark[c][k]:]...)
		}
		if len(service) != len(sched[c]) {
			st.wrongf("round %d: connection %d sent %d requests, its schedule has %d", r, c, len(service), len(sched[c]))
			continue
		}
		for i, at := range sched[c] {
			st.served = append(st.served, served{at: at, service: time.Duration(service[i] * 1e6), round: r})
		}
	}
}

// queuedLatencies runs fleet-serve's queue model with each service
// time multiplied by speed(its round). It returns the latencies in ms
// with the round of each, and the busiest connection's utilization: its
// service time over its schedules' spans (each round starts with an
// empty queue). Queueing delay is not proportional to service time, so
// host-speed scaling scales the service times and queues again, rather
// than scaling the latencies.
func queuedLatencies(stats [fleetConns]connStats, speed func(round int32) float64) (lat []float64, rounds []int32, util float64) {
	for _, s := range stats {
		var free, busy, span, last time.Duration
		for i, q := range s.served {
			if i == 0 || q.round != s.served[i-1].round {
				free, span = 0, span+last
			}
			service := time.Duration(float64(q.service) * speed(q.round))
			free = max(q.at, free) + service
			busy += service
			last = q.at
			lat = append(lat, float64(free-q.at)/1e6)
			rounds = append(rounds, q.round)
		}
		if span += last; span > 0 {
			util = max(util, float64(busy)/float64(span))
		}
	}
	return lat, rounds, util
}

// blockP99 is the fleet workloads' tail latency: the median, over blocks
// of consecutive rounds, of each block's p99. A block is the fewest
// whole rounds whose p99 has ten samples beyond it (two rounds at the
// default fleet size); a last block short of that is left out. A stall
// of the shared host lengthens every request queued behind it in its
// round, and over a whole run a few such rounds set the pooled p99: over
// ten runs on the defining host, fleet-serve's pooled p99 spread 32%
// where this one spread 16%. It also returns the number of blocks; with
// none, it falls back to the pooled p99.
func blockP99(lat []float64, rounds []int32) (float64, int) {
	byRound := map[int32][]float64{}
	for i, v := range lat {
		byRound[rounds[i]] = append(byRound[rounds[i]], v)
	}
	order := make([]int32, 0, len(byRound))
	for r := range byRound {
		order = append(order, r)
	}
	slices.Sort(order)
	var p99s, block []float64
	for _, r := range order {
		block = append(block, byRound[r]...)
		if supported(0.99, len(block)) {
			p99s = append(p99s, percentile(sortedCopy(block), 0.99))
			block = block[:0]
		}
	}
	if len(p99s) == 0 {
		return percentile(sortedCopy(lat), 0.99), 0
	}
	return percentile(sortedCopy(p99s), 0.5), len(p99s)
}

// phaseTotals folds the connections' stats together.
type phaseTotals struct {
	kinds                                 [numKinds]kindStats
	all                                   []float64
	rounds                                []int32 // the round of each latency in all
	failed, ops, deltas, fallbacks, pulls int64
	notModified, uploadsAcked             int64
	errs, wrong                           []string
}

// addTo counts the phase's ops and failures into the record. A wrong
// answer makes the run incorrect; a failed request only counts.
func (t phaseTotals) addTo(r *Record) {
	r.Attempted += t.ops
	r.Failed += t.failed
	for _, e := range t.wrong {
		r.fail("%s", e)
	}
	for _, e := range t.errs {
		r.note("%s", e)
	}
}

func totals(stats [fleetConns]connStats) phaseTotals {
	var t phaseTotals
	for _, s := range stats {
		for k := range s.kinds {
			src, dst := &s.kinds[k], &t.kinds[k]
			dst.lat = append(dst.lat, src.lat...)
			dst.round = append(dst.round, src.round...)
			t.rounds = append(t.rounds, src.round...)
			dst.rttNS += src.rttNS
			dst.bytes += src.bytes
			dst.ok += src.ok
			t.all = append(t.all, src.lat...)
		}
		t.failed += s.failed
		t.deltas += s.deltas
		t.fallbacks += s.fallbacks
		t.notModified += s.notModified
		t.errs = append(t.errs, s.errs...)
		t.wrong = append(t.wrong, s.wrong...)
	}
	t.ops = int64(len(t.all))
	t.pulls = int64(len(t.kinds[kPull].lat) + len(t.kinds[kPolicy].lat))
	t.uploadsAcked = t.kinds[kUpload].ok
	return t
}

// meanRTT is the mean send-to-response time per request, in ns.
func (t phaseTotals) meanRTT() float64 {
	var ns int64
	for _, k := range t.kinds {
		ns += k.rttNS
	}
	return float64(ns) / float64(max(len(t.all), 1))
}

// report sets the end-to-end metrics from an untraced phase.
func (f *fleetEnv) report(r *Record, t phaseTotals, res phaseResult, setup *setupTimer) {
	elapsed, scaledS := res.seconds()
	speed := scaledS / elapsed // the rounds' mean host speed, weighted by time
	setup.report(r)
	// A check-in cycle is one device's upload and pull, and its share of
	// the round's merge.
	r.setScaled("throughput_per_s", float64(t.uploadsAcked)/elapsed, speed, "1/s", true)
	r.info("requests_per_s", float64(len(t.all))/elapsed, "1/s")
	measured, scaled, rounds := t.all, res.scaled(t.all, t.rounds), t.rounds
	if f.serve {
		measured, _, _ = queuedLatencies(res.stats, func(int32) float64 { return 1 })
		var util float64
		scaled, rounds, util = queuedLatencies(res.stats, res.roundSpeed)
		r.info("queue.offered_per_s", f.p.Rate, "1/s")
		r.info("queue.utilization", util, "frac")
	}
	measuredP99, _ := blockP99(measured, rounds)
	p99, blocks := blockP99(scaled, rounds)
	r.info("measured.op_p99_ms", measuredP99, "ms")
	r.set("op_p99_ms", p99, "ms")
	measured, scaled = sortedCopy(measured), sortedCopy(scaled)
	r.info("measured.op_p50_ms", percentile(measured, 0.5), "ms")
	r.set("op_p50_ms", percentile(scaled, 0.5), "ms")
	r.info("op_p99_pooled_ms", percentile(scaled, 0.99), "ms")
	r.info("host_speed", speed, "x")
	r.set("live_heap_mb", liveHeapMiB(), "MiB")
	r.info("rounds", float64(len(res.elapsed)), "count")
	r.info("op_samples", float64(len(scaled)), "count")
	r.info("op_p99_blocks", float64(blocks), "count")
	r.info("op_p99_supported", boolFloat(blocks > 0), "bool")
	for k, ks := range t.kinds {
		if len(ks.lat) == 0 {
			continue
		}
		lat := sortedCopy(ks.lat)
		name := kindNames[k]
		r.info(name+"_p50_ms", percentile(lat, 0.5), "ms")
		r.info(name+"_"+pctName(tailQuantile(len(lat)))+"_ms", percentile(lat, tailQuantile(len(lat))), "ms")
		r.info(name+"_count", float64(len(lat)), "count")
		r.info(name+"_rtt_mean_ms", float64(ks.rttNS)/1e6/float64(len(lat)), "ms")
	}
	if n := t.kinds[kUpload].ok; n > 0 {
		r.info("wire_kb_per_upload", float64(t.kinds[kUpload].bytes)/1024/float64(n), "KiB")
	}
	if t.pulls > 0 {
		r.info("wire_kb_per_policy", float64(t.kinds[kPull].bytes+t.kinds[kPolicy].bytes)/1024/float64(t.pulls), "KiB")
	}
}

func pctName(q float64) string {
	return "p" + strings.TrimSuffix(strings.TrimRight(strconv.FormatFloat(q*100, 'f', 1, 64), "0"), ".")
}

// ratios are the useful-outcome counts of a phase.
func ratios(t phaseTotals) map[string]float64 {
	m := map[string]float64{}
	if t.deltas > 0 {
		m["delta.fallback_frac"] = float64(t.fallbacks) / float64(t.deltas)
	}
	if n := len(t.kinds[kPolicy].lat); n > 0 {
		m["policy.not_modified_frac"] = float64(t.notModified) / float64(n)
	}
	return m
}

// deviceTable is device d's table after its first n acked uploads:
// each state's row from the last of them that carries it, metadata from
// the last one.
func (f *fleetEnv) deviceTable(d, n int) (*learner.TableSet, error) {
	var out *core.QTable
	seen := map[int]bool{} // recorded bodies already folded in
	for i := n - 1; i >= 0; i-- {
		r := int(f.acked[d][i])
		b := f.traffic.bodyIndex(r)
		if seen[b] {
			continue
		}
		seen[b] = true
		set, err := decodeBody(f.traffic.body(r, d))
		if err != nil {
			return nil, err
		}
		t := set.Primary()
		if out == nil {
			out = t
			continue
		}
		for s, row := range t.Q {
			if _, ok := out.Q[s]; !ok {
				out.Q[s] = row
			}
		}
		for s, v := range t.Visits {
			if _, ok := out.Visits[s]; !ok {
				out.Visits[s] = v
			}
		}
	}
	if out == nil {
		return nil, fmt.Errorf("device %s has no acked upload", f.traffic.devices[d])
	}
	return learner.SingleTableSet(out), nil
}

// model returns the benchmark's view of every device's acked table
// after each device's first upto[d] acks (nil: all of them).
func (f *fleetEnv) model(upto []int) (map[string]*learner.TableSet, error) {
	m := make(map[string]*learner.TableSet, len(f.gens))
	for d, dev := range f.traffic.devices {
		n := len(f.acked[d])
		if upto != nil {
			n = upto[d]
		}
		set, err := f.deviceTable(d, n)
		if err != nil {
			return nil, err
		}
		m[dev] = set
	}
	return m, nil
}

// canaryDevice is the device with the lowest rollout bucket: under a
// staged rollout it is always in the canary cohort, so it is served the
// newest merge.
func (f *fleetEnv) canaryDevice() string {
	best := f.traffic.devices[0]
	for _, dev := range f.traffic.devices {
		if rollout.Bucket(dev) < rollout.Bucket(best) {
			best = dev
		}
	}
	return best
}

// servedPolicy is the JSON policy body the server returns right now: to
// the canary device under rollout, to a deviceless pull otherwise.
func (f *fleetEnv) servedPolicy() ([]byte, error) {
	u := f.url("/v1/policy")
	if f.serve {
		u = f.url("/v1/policy", "device", f.canaryDevice())
	}
	req, _ := http.NewRequest(http.MethodGet, u, nil)
	resp, body, err := f.do(0, kPolicy, req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("policy: status %d", resp.StatusCode)
	}
	return body, nil
}

// verify runs the final merge and checks the served policy against a
// full cloud.JoinDevices over the model of every acked table.
func (f *fleetEnv) verify(r *Record) error {
	var st connStats
	if _, ok := f.merge(0, &st); !ok {
		r.fail("final merge: %v", st.err())
		return nil
	}
	got, err := f.servedPolicy()
	if err != nil {
		return err
	}
	model, err := f.model(nil)
	if err != nil {
		return err
	}
	joined, _, err := cloud.JoinDevices(model)
	if err != nil {
		return err
	}
	want, _, err := fleetd.EncodePolicy(fleetApp, joined, false)
	if err != nil {
		return err
	}
	r.Digests["final-policy"] = digestBytes(got)
	if !bytes.Equal(got, want) {
		r.fail("served policy differs from cloud.JoinDevices over the acked tables")
	}
	return nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func runFleetIngest(p Params) (*Record, error) { return runFleet("fleet-ingest", p, false) }
func runFleetServe(p Params) (*Record, error)  { return runFleet("fleet-serve", p, true) }

func runFleet(name string, p Params, serve bool) (*Record, error) {
	r := newRecord(name, p)
	traffic, err := recordTraffic(p)
	if err != nil {
		return nil, err
	}
	full, delta, err := traffic.stateCounts()
	if err != nil {
		return nil, err
	}
	r.info("inputs_s", traffic.elapsed.Seconds(), "s")
	r.info("states_per_full_upload", full, "count")
	r.info("states_per_delta", delta, "count")
	f, setup, err := setupFleet(p, traffic, serve)
	if err != nil {
		return nil, err
	}
	defer f.close()
	// The policy right after set-up is a pure function of the seed and
	// sizes: the pinned digest covers the recorded traffic, decode and
	// the first two merges.
	setupPolicy, err := f.servedPolicy()
	if err != nil {
		return nil, err
	}
	r.checkPin(p.Pins, "setup-policy", digestBytes(setupPolicy))

	d := p.Duration
	if p.Trace {
		d /= 2
	}
	phase := func() phaseResult {
		if p.Intercept != nil {
			f.intercept.Store(&p.Intercept)
			defer f.intercept.Store(nil)
		}
		return f.timedPhase(d)
	}
	runtime.GC()
	before := readProcessStats()
	res := phase()
	done := readProcessStats()
	t := totals(res.stats)
	t.addTo(r)
	if !p.Trace {
		f.report(r, t, res, setup)
	} else if err := f.traced(r, phase, t, before, done); err != nil {
		return nil, err
	}
	if err := f.verify(r); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}
