package aggregator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// devTable builds a distinct, merge-compatible device table.
func devTable(seed int) *core.QTable {
	t := core.NewQTable(9)
	for i := 0; i < 6; i++ {
		row := make([]float64, 9)
		for a := range row {
			row[a] = float64(seed) + float64(i*9+a)*0.25
		}
		t.Q[core.StateKey(seed*10+i)] = row
		t.Visits[core.StateKey(seed*10+i)] = seed + i + 1
	}
	t.Steps = int64(seed * 100)
	return t
}

func newRoot(t *testing.T, cfg fleetd.Config) (*fleetd.Server, *httptest.Server) {
	t.Helper()
	srv, err := fleetd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func newEdge(t *testing.T, cfg Config) (*Server, *fleetd.Client) {
	t.Helper()
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = -1 // tests flush explicitly unless they opt in
	}
	agg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agg.Handler())
	t.Cleanup(ts.Close)
	return agg, fleetd.NewClient(ts.URL)
}

// flakyRoot fronts a root handler with an availability switch, so
// tests can take the root down and bring it back.
type flakyRoot struct {
	up atomic.Bool
	h  http.Handler
}

func (f *flakyRoot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !f.up.Load() {
		http.Error(w, `{"error":"root down"}`, http.StatusServiceUnavailable)
		return
	}
	f.h.ServeHTTP(w, r)
}

// marshalPolicy renders a merged policy set for byte comparison.
func marshalPolicy(t *testing.T, store *fleetd.Store, k fleetd.Key) []byte {
	t.Helper()
	set, _, ok := store.PolicySetRef(k)
	if !ok {
		t.Fatalf("no merged policy for %s", k)
	}
	data, err := core.MarshalTableSet(k.App, set, true)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestAggregatorEndToEnd(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	agg, client := newEdge(t, Config{ID: "agg-a", Root: rootTS.URL})

	if _, err := client.Checkin("dev-000", "note9"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadTableSet("dev-000", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadTableSet("dev-001", "note9", "spotify", learner.SingleTableSet(devTable(2)), 0); err != nil {
		t.Fatal(err)
	}
	if got := agg.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}

	// Local merge serves a regional policy before anything reaches the
	// root (the root has no policy yet → edge fallback).
	if _, err := client.Merge("spotify", "note9"); err != nil {
		t.Fatal(err)
	}
	if _, round, err := client.PolicySet("spotify", "note9"); err != nil || round != 1 {
		t.Fatalf("edge fallback policy: round=%d err=%v", round, err)
	}
	if agg.Metrics().proxyFallbacks.Load() != 1 {
		t.Fatalf("fallbacks = %d, want 1", agg.Metrics().proxyFallbacks.Load())
	}

	// Flush federates the raw device tables; the root merge then sees
	// both devices.
	n, err := agg.Flush()
	if err != nil || n != 2 {
		t.Fatalf("flush = %d, %v; want 2 tables", n, err)
	}
	if agg.Pending() != 0 {
		t.Fatalf("pending after flush = %d", agg.Pending())
	}
	rootClient := fleetd.NewClient(rootTS.URL)
	info, err := rootClient.Merge("spotify", "note9")
	if err != nil || info.Devices != 2 {
		t.Fatalf("root merge = %+v, %v", info, err)
	}

	// The device's policy pull now proxies to the root.
	if _, round, err := client.PolicySet("spotify", "note9"); err != nil || round != 1 {
		t.Fatalf("proxied policy: round=%d err=%v", round, err)
	}
	if agg.Metrics().proxied.Load() == 0 {
		t.Fatal("policy pull did not proxy to the root")
	}

	// Check-in registration rode the flush: the root's device set
	// includes the edge device.
	h, err := rootClient.Healthz()
	if err != nil || h.Devices != 1 {
		t.Fatalf("root health = %+v, %v (want 1 registered device)", h, err)
	}

	// Two-tier result == flat merge of the same uploads.
	flat := fleetd.NewStoreMaxDevices(0)
	k := fleetd.Key{App: "spotify", Platform: "note9"}
	for i, seed := range []int{1, 2} {
		if _, _, err := flat.UploadSetGen(k, fmt.Sprintf("dev-%03d", i), learner.SingleTableSet(devTable(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := flat.MergeSet(k); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalPolicy(t, rootSrv.Store(), k), marshalPolicy(t, flat, k)) {
		t.Fatal("two-tier root merge is not byte-identical to the flat merge")
	}
}

// TestTwoTierByteIdenticalToFlat is the tentpole pin at width: 4
// aggregators × 16 devices each, federated to one root over two keys
// in one epoch, must run one root merge per key, each byte-identical
// to the table a flat single-tier store of the same uploads produces.
func TestTwoTierByteIdenticalToFlat(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	// Two keys in one epoch: every device uploads "game", every other
	// device also uploads "video", so the keys join different device
	// sets and each must still land on its own flat merge.
	keys := []fleetd.Key{{App: "game", Platform: "sd855"}, {App: "video", Platform: "sd855"}}
	flat := fleetd.NewStoreMaxDevices(0)

	var aggs []*Server
	for a := 0; a < 4; a++ {
		agg, client := newEdge(t, Config{ID: fmt.Sprintf("agg-%d", a), Root: rootTS.URL})
		aggs = append(aggs, agg)
		for d := 0; d < 16; d++ {
			// Device numbering interleaves across aggregators so sorted
			// device order differs from upload order — the identity must
			// come from the canonical join, not delivery order.
			dev := fmt.Sprintf("dev-%08d", d*4+a)
			for ki, k := range keys {
				if ki == 1 && d%2 == 1 {
					continue
				}
				seed := d*4 + a + 1 + ki*100
				if _, err := client.UploadTableSet(dev, k.Platform, k.App, learner.SingleTableSet(devTable(seed)), 0); err != nil {
					t.Fatal(err)
				}
				if _, _, err := flat.UploadSetGen(k, dev, learner.SingleTableSet(devTable(seed))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	coord := &Coordinator{Root: fleetd.NewClient(rootTS.URL), Aggs: aggs}
	rep, err := coord.RunEpoch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Late) != 0 || rep.Flushed != 64+32 {
		t.Fatalf("epoch report = %+v", rep)
	}
	if len(rep.Merges) != len(keys) {
		t.Fatalf("root merges = %+v, want one per key", rep.Merges)
	}
	for ki, k := range keys {
		info := rep.Merges[ki]
		if want := 64 - 32*ki; info.App != k.App || info.Platform != k.Platform || info.Devices != want {
			t.Fatalf("root merge %d = %+v, want %s with %d devices", ki, info, k, want)
		}
		if _, _, err := flat.MergeSet(k); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalPolicy(t, rootSrv.Store(), k), marshalPolicy(t, flat, k)) {
			t.Fatalf("%s: 4-aggregator federated merge is not byte-identical to the flat merge", k)
		}
	}
}

func TestQueueOverflowRetryAfterAndDedup(t *testing.T) {
	// Root exists but is down, so the queue only drains on overflow
	// tests' terms.
	down := &flakyRoot{h: http.NotFoundHandler()}
	rootTS := httptest.NewServer(down)
	defer rootTS.Close()

	agg, client := newEdge(t, Config{ID: "agg-x", Root: rootTS.URL, QueueLimit: 2})

	if _, err := client.UploadTableSet("dev-000", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadTableSet("dev-001", "note9", "spotify", learner.SingleTableSet(devTable(2)), 0); err != nil {
		t.Fatal(err)
	}
	// Third distinct device overflows: 429, typed retry-after error.
	_, err := client.UploadTableSet("dev-002", "note9", "spotify", learner.SingleTableSet(devTable(3)), 0)
	var ra *fleetd.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("overflow error = %v, want RetryAfterError", err)
	}
	if ra.Seconds != retryAfterS {
		t.Fatalf("retry-after = %v, want %d", ra.Seconds, retryAfterS)
	}
	if agg.Metrics().Rejected() != 1 {
		t.Fatalf("rejected = %d", agg.Metrics().Rejected())
	}
	// The rejected upload reached neither the queue nor the local store.
	if _, _, uploads := agg.Store().Stats(); uploads != 2 {
		t.Fatalf("local tables = %d, want 2", uploads)
	}

	// Re-upload from a queued device replaces its pending entry — a
	// full queue never locks out the devices already in it.
	if _, err := client.UploadTableSet("dev-001", "note9", "spotify", learner.SingleTableSet(devTable(9)), 0); err != nil {
		t.Fatalf("dedup re-upload rejected: %v", err)
	}
	if got := agg.Pending(); got != 2 {
		t.Fatalf("pending after dedup = %d, want 2", got)
	}

	// Drain order is oldest-device-first, and the deduped body is the
	// newer one.
	batch := agg.queue.take(10)
	if len(batch) != 2 || batch[0].pk.device != "dev-000" || batch[1].pk.device != "dev-001" {
		t.Fatalf("drain order = %+v", batch)
	}
	app, set, _, err := core.UnmarshalTableSet(batch[1].body)
	if err != nil || app != "spotify" {
		t.Fatalf("queued body: app=%q err=%v", app, err)
	}
	if set.Primary().Steps != devTable(9).Steps {
		t.Fatalf("queued body Steps = %d, want the re-uploaded table's %d", set.Primary().Steps, devTable(9).Steps)
	}
}

func TestRootUnreachableQueuedUploadsDrainOnReconnect(t *testing.T) {
	rootSrv, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyRoot{h: rootSrv.Handler()}
	rootTS := httptest.NewServer(flaky)
	defer rootTS.Close()

	agg, client := newEdge(t, Config{ID: "agg-y", Root: rootTS.URL})
	for i := 1; i <= 3; i++ {
		if _, err := client.UploadTableSet(fmt.Sprintf("dev-%03d", i), "note9", "maps", learner.SingleTableSet(devTable(i)), 0); err != nil {
			t.Fatal(err)
		}
	}

	// Root down: the flush fails, the queue keeps everything.
	if _, err := agg.Flush(); err == nil {
		t.Fatal("flush against a dead root should fail")
	}
	if agg.Pending() != 3 {
		t.Fatalf("pending after failed flush = %d, want 3", agg.Pending())
	}
	if agg.Metrics().flushFailures.Load() != 1 {
		t.Fatalf("flush failures = %d", agg.Metrics().flushFailures.Load())
	}

	// Reconnect: the same queued tables drain and the root can merge.
	flaky.up.Store(true)
	n, err := agg.Flush()
	if err != nil || n != 3 {
		t.Fatalf("drain on reconnect = %d, %v; want 3", n, err)
	}
	info, _, err := rootSrv.Store().MergeSet(fleetd.Key{App: "maps", Platform: "note9"})
	if err != nil || info.Devices != 3 {
		t.Fatalf("root merge after drain = %+v, %v", info, err)
	}
}

func TestEpochPartialRoundAndCatchUp(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	rootClient := fleetd.NewClient(rootTS.URL)
	k := fleetd.Key{App: "video", Platform: "note9"}

	aggA, clientA := newEdge(t, Config{ID: "agg-a", Root: rootTS.URL})
	// agg-b reaches the root through its own flaky path, initially down.
	flaky := &flakyRoot{h: rootSrv.Handler()}
	flakyTS := httptest.NewServer(flaky)
	defer flakyTS.Close()
	aggB, clientB := newEdge(t, Config{ID: "agg-b", Root: flakyTS.URL})

	if _, err := clientA.UploadTableSet("dev-00000001", "note9", "video", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := clientB.UploadTableSet("dev-00000002", "note9", "video", learner.SingleTableSet(devTable(2)), 0); err != nil {
		t.Fatal(err)
	}

	coord := &Coordinator{Root: rootClient, Aggs: []*Server{aggA, aggB}}

	// Epoch 1: agg-b is late; the epoch completes on agg-a's region.
	rep, err := coord.RunEpoch([]fleetd.Key{k})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Late) != 1 || rep.Late[0] != "agg-b" {
		t.Fatalf("late = %v, want [agg-b]", rep.Late)
	}
	if rep.Flushed != 1 || len(rep.Merges) != 1 || rep.Merges[0].Devices != 1 {
		t.Fatalf("partial epoch = %+v", rep)
	}

	// Epoch 2: agg-b recovered; its queued table catches up and the
	// root join covers both regions — byte-identical to a flat merge.
	flaky.up.Store(true)
	rep, err = coord.RunEpoch([]fleetd.Key{k})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Late) != 0 || rep.Flushed != 1 || rep.Merges[0].Devices != 2 {
		t.Fatalf("catch-up epoch = %+v", rep)
	}
	flat := fleetd.NewStoreMaxDevices(0)
	for i, seed := range []int{1, 2} {
		if _, _, err := flat.UploadSetGen(k, fmt.Sprintf("dev-%08d", i+1), learner.SingleTableSet(devTable(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := flat.MergeSet(k); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalPolicy(t, rootSrv.Store(), k), marshalPolicy(t, flat, k)) {
		t.Fatal("catch-up merge is not byte-identical to the flat merge")
	}
}

// TestPolicyProxyPreservesRolloutNegotiation pins that the rollout
// lifecycle survives the aggregator tier: version headers, cohorts and
// ETag/304 negotiation pass through the proxy unchanged.
func TestPolicyProxyPreservesRolloutNegotiation(t *testing.T) {
	_, rootTS := newRoot(t, fleetd.Config{Rollout: &rollout.Config{NowUS: func() int64 { return 1 }}})
	rootClient := fleetd.NewClient(rootTS.URL)
	agg, client := newEdge(t, Config{ID: "agg-r", Root: rootTS.URL})

	if _, err := client.Checkin("dev-000", "note9"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadTableSet("dev-000", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := rootClient.Merge("spotify", "note9"); err != nil {
		t.Fatal(err)
	}

	// Version-aware pull through the edge: lifecycle metadata intact.
	set, meta, fetched, err := client.PolicyForDevice("dev-000", "spotify", "note9", "")
	if err != nil || !fetched || set == nil {
		t.Fatalf("pull through edge: fetched=%v err=%v", fetched, err)
	}
	if meta.Version != 1 || meta.ETag == "" || meta.Cohort == "" {
		t.Fatalf("lifecycle meta through proxy = %+v", meta)
	}
	// Echoing the ETag yields a proxied 304 — no redundant download.
	set2, meta2, fetched2, err := client.PolicyForDevice("dev-000", "spotify", "note9", meta.ETag)
	if err != nil || fetched2 || set2 != nil {
		t.Fatalf("304 through edge: fetched=%v set=%v err=%v", fetched2, set2, err)
	}
	if meta2.ETag != meta.ETag {
		t.Fatalf("etag drifted through proxy: %q vs %q", meta2.ETag, meta.ETag)
	}
}

func TestBackgroundFlusherDrains(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	agg, client := newEdge(t, Config{ID: "agg-bg", Root: rootTS.URL, FlushEvery: 5 * time.Millisecond})
	agg.Start()
	defer agg.Close()

	if _, err := client.UploadTableSet("dev-000", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err != nil {
		t.Fatal(err)
	}
	// Wait for the table to land at the root, not for Pending() to hit
	// zero: Flush takes the batch off the queue before the federation
	// push completes, so the queue reads empty while the push is still
	// in flight and the root hasn't absorbed the upload yet.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, uploads := rootSrv.Store().Stats(); uploads == 1 {
			break
		}
		if time.Now().After(deadline) {
			_, _, uploads := rootSrv.Store().Stats()
			t.Fatalf("background flusher never delivered (root tables=%d, pending=%d)", uploads, agg.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if agg.Pending() != 0 {
		t.Fatalf("queue not empty after delivery (pending=%d)", agg.Pending())
	}
}

func TestAggregatorRejectsHostileInput(t *testing.T) {
	_, client := newEdge(t, Config{ID: "agg-h"})
	if _, err := client.UploadTableSet("../../pwn", "note9", "spotify", learner.SingleTableSet(devTable(1)), 0); err == nil {
		t.Fatal("path-traversal device ID accepted")
	}
	if _, err := client.UploadTableSet("dev-0", "note9", "../pwn", learner.SingleTableSet(devTable(1)), 0); err == nil {
		t.Fatal("path-traversal app accepted")
	}
	if _, err := New(Config{ID: "no/slash"}); err == nil {
		t.Fatal("bad aggregator ID accepted")
	}
}

func TestUploadReplyCarriesBackpressureHint(t *testing.T) {
	down := &flakyRoot{h: http.NotFoundHandler()}
	rootTS := httptest.NewServer(down)
	defer rootTS.Close()
	agg, _ := newEdge(t, Config{ID: "agg-soft", Root: rootTS.URL, QueueLimit: 4})

	put := func(dev string) UploadReply {
		t.Helper()
		data, err := core.MarshalTableSetCompact("spotify", learner.SingleTableSet(devTable(1)), false)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPut, "/v1/table?device="+dev+"&platform=note9", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		agg.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("upload %s: %d %s", dev, rec.Code, rec.Body)
		}
		var reply UploadReply
		if err := jsonDecode(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	// The soft watermark is softLimitPct (75%) of the 4-deep queue: the
	// third pending table reaches it.
	for i, dev := range []string{"dev-000", "dev-001"} {
		if r := put(dev); r.BackoffS != 0 || r.Pending != i+1 {
			t.Fatalf("below watermark reply = %+v", r)
		}
	}
	if r := put("dev-002"); r.BackoffS != retryAfterS || r.Pending != 3 {
		t.Fatalf("at watermark reply = %+v (want backoff_s=%d)", r, retryAfterS)
	}
}

func jsonDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	return dec.Decode(v)
}

// TestFederateRejectsPoisonedItemsIndividually pins the root's
// partial-success contract: one bad item in a batch is rejected and
// sampled, the rest land.
func TestFederateRejectsPoisonedItemsIndividually(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	rootClient := fleetd.NewClient(rootTS.URL)

	good, err := core.MarshalTableSetCompact("spotify", learner.SingleTableSet(devTable(1)), false)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := rootClient.Federate(fleetd.FederateRequest{
		Agg:     "agg-p",
		Devices: []string{"dev-000", "../../etc"},
		Uploads: []fleetd.FederatedUpload{
			{Device: "dev-000", Platform: "note9", Body: good},
			{Device: "dev-001", Platform: "note9", Body: []byte(`{"garbage":true}`)},
			{Device: "../pwn", Platform: "note9", Body: good},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Registered != 1 || reply.Accepted != 1 || reply.Rejected != 2 || len(reply.Errors) != 2 {
		t.Fatalf("federate reply = %+v", reply)
	}
	if _, _, uploads := rootSrv.Store().Stats(); uploads != 1 {
		t.Fatalf("root tables = %d, want 1", uploads)
	}
	if _, err := rootClient.Federate(fleetd.FederateRequest{Agg: "bad/agg"}); err == nil ||
		!strings.Contains(err.Error(), "aggregator ID") {
		t.Fatalf("bad agg ID error = %v", err)
	}
}

// TestRejectedReuploadKeepsQueuedBody pins the upload unwind: a
// re-upload the edge store refuses must leave the device's earlier,
// accepted body queued for the root, because the edge store still
// holds that table. Dropping it would fork the edge from the root.
func TestRejectedReuploadKeepsQueuedBody(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	agg, _ := newEdge(t, Config{ID: "agg-u", Root: rootTS.URL})
	h := agg.Handler()
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=d0&platform=note9",
		"application/json", tableBody(t, 1)), http.StatusOK, "d0 upload")
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=d1&platform=note9",
		"application/json", tableBody(t, 2)), http.StatusOK, "d1 upload")
	wide := core.NewQTable(12)
	wide.Q[1] = make([]float64, 12)
	wide.Visits[1] = 1
	body, err := core.MarshalTableSetCompact("spotify", learner.SingleTableSet(wide), false)
	if err != nil {
		t.Fatal(err)
	}
	expectStatus(t, serve(t, h, http.MethodPut, "/v1/table?device=d1&platform=note9",
		"application/json", body), http.StatusBadRequest, "d1 12-action re-upload")
	if _, err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	k := fleetd.Key{App: "spotify", Platform: "note9"}
	edge, err := agg.MergeLocal(k)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := rootSrv.Store().MergeSet(k)
	if err != nil {
		t.Fatal(err)
	}
	if edge.Devices != 2 || root.Devices != 2 {
		t.Fatalf("edge merged %d devices, root %d; want 2 and 2", edge.Devices, root.Devices)
	}
	if !bytes.Equal(marshalPolicy(t, agg.Store(), k), marshalPolicy(t, rootSrv.Store(), k)) {
		t.Fatal("edge and root policies differ")
	}
}

// TestQueuedBodyOutlivesLaterUploads pins that the edge queues each
// upload's body as it arrived and owns it: no later upload — to the
// edge, or to a root in the same process, whose upload handler reads
// and decodes in reused memory — changes a queued body's bytes.
func TestQueuedBodyOutlivesLaterUploads(t *testing.T) {
	rootSrv, rootTS := newRoot(t, fleetd.Config{})
	agg, _ := newEdge(t, Config{ID: "agg-q", Root: rootTS.URL})
	edge, root := agg.Handler(), rootSrv.Handler()
	body := func(app string, seed int) []byte {
		t.Helper()
		data, err := core.MarshalTableSetBinary(app, learner.SingleTableSet(devTable(seed)), false)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	k := fleetd.Key{App: "spotify", Platform: "note9"}
	queued := make(map[string][]byte)
	for i := range 4 {
		dev := fmt.Sprintf("d%d", i)
		data := body(k.App, i)
		queued[dev] = bytes.Clone(data)
		expectStatus(t, serve(t, edge, http.MethodPut, "/v1/table?device="+dev+"&platform=note9",
			core.TableSetMediaType, data), http.StatusOK, dev+" upload")
	}
	for i := 4; i < 40; i++ {
		dev := fmt.Sprintf("d%d", i)
		expectStatus(t, serve(t, edge, http.MethodPut, "/v1/table?device="+dev+"&platform=note9",
			core.TableSetMediaType, body(k.App, i)), http.StatusOK, dev+" upload")
		// Straight at the root, under another app, so the two tiers'
		// spotify policies still compare.
		expectStatus(t, serve(t, root, http.MethodPut, "/v1/table?device="+dev+"&platform=note9",
			core.TableSetMediaType, body("youtube", i)), http.StatusOK, dev+" root upload")
	}
	for dev, want := range queued {
		agg.queue.mu.Lock()
		got := agg.queue.entries[pendKey{key: k, device: dev}]
		agg.queue.mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: queued body changed after later uploads", dev)
		}
	}
	if _, err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.MergeLocal(k); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rootSrv.Store().MergeSet(k); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalPolicy(t, agg.Store(), k), marshalPolicy(t, rootSrv.Store(), k)) {
		t.Fatal("edge and root policies differ")
	}
}
