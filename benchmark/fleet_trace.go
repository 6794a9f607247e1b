package main

import (
	"fmt"
	"runtime"
	"sync"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// maxRecorded bounds the traced-phase requests kept for the replays.
// The bodies themselves are the recorded traffic's, shared, not copied.
const maxRecorded = 2048

// fleetRecording keeps the traced phase's inputs to the concrete
// layers: upload bodies and merges in arrival order, and the device IDs
// policy pulls resolved.
type fleetRecording struct {
	mu      sync.Mutex
	ops     []recordedOp
	resolve []string
	// start is each device's acked-upload count when the traced phase
	// began: the replays start from the model as it stood then.
	start []int
}

type recordedOp struct {
	kind   int
	device int
	round  int
	body   []byte
	delta  bool
}

func (r *fleetRecording) add(op recordedOp) {
	r.mu.Lock()
	if len(r.ops) < maxRecorded {
		r.ops = append(r.ops, op)
	}
	r.mu.Unlock()
}

func (r *fleetRecording) addResolve(device string) {
	r.mu.Lock()
	if len(r.resolve) < maxRecorded {
		r.resolve = append(r.resolve, device)
	}
	r.mu.Unlock()
}

// traced runs the traced phase — the same traffic with a span at each
// end of every request — then replays the recorded inputs through the
// concrete layers and reports the budget per request.
func (f *fleetEnv) traced(r *Record, phase func() phaseResult, untraced phaseTotals, before, done processStats) error {
	counts := processCounts(before, done, untraced.ops)
	for k, v := range ratios(untraced) {
		counts[k] = v
	}
	tr := newTracer()
	tr.byTrace = true
	for _, k := range kindNames {
		tr.layer("http."+k, 1)
		tr.layer("handler."+k, 1)
	}
	f.rec = &fleetRecording{start: make([]int, len(f.acked))}
	for d := range f.acked {
		f.rec.start[d] = len(f.acked[d])
	}
	f.tr.Store(tr)
	res := phase()
	f.tr.Store(nil)
	rec := f.rec
	f.rec = nil
	t := totals(res.stats)
	t.addTo(r)

	rp, err := f.replay(rec)
	if err != nil {
		return err
	}
	counts["merge.dirty_states"] = rp.dirtyStates
	ops := float64(max(t.ops, 1))
	perOp := func(layer string) float64 { return float64(tr.calls(layer)) / ops }
	var rttNS, handlerNS float64
	requests := 0.0
	for _, k := range kindNames {
		n := float64(tr.calls("http." + k))
		requests += n
		rttNS += tr.nsPerCall("http."+k) * n
		handlerNS += tr.nsPerCall("handler."+k) * n
	}
	uploads := perOp("http.upload")
	deltas := float64(t.deltas) / ops
	merges := perOp("http.merge")
	served := float64(t.kinds[kPull].ok+t.kinds[kPolicy].ok-t.notModified) / ops
	rows := []BudgetRow{
		{Layer: "http.transport", Source: "live", NsPerCall: (rttNS - handlerNS) / max(requests, 1), CallsPerOp: requests / ops},
		{Layer: "decode.upload", Source: "replay", NsPerCall: rp.decode, CallsPerOp: uploads},
		{Layer: "store.upload", Source: "replay", NsPerCall: rp.storeUploadSelf(deltas, uploads), CallsPerOp: uploads},
		{Layer: "merger.upload", Source: "replay", NsPerCall: rp.mergerUpload, CallsPerOp: uploads},
		{Layer: "store.merge", Source: "replay", NsPerCall: max(rp.storeMerge-rp.mergerMerge, 0), CallsPerOp: merges},
		{Layer: "merger.merge", Source: "replay", NsPerCall: rp.mergerMerge, CallsPerOp: merges},
		{Layer: "encode.policy_binary", Source: "replay", NsPerCall: rp.encode, CallsPerOp: served},
	}
	if f.serve {
		rows = append(rows,
			BudgetRow{Layer: "rollout.resolve", Source: "replay", NsPerCall: rp.resolve, CallsPerOp: perOp("http.policy")},
			BudgetRow{Layer: "rollout.submit", Source: "replay", NsPerCall: rp.submit, CallsPerOp: merges})
	}
	e2e := untraced.meanRTT()
	r.Budget = budget(rows, e2e)
	counts["trace.overhead_frac"] = t.meanRTT()/e2e - 1
	setLayerMetrics(r, r.Budget, counts)
	for _, k := range kindNames {
		if n := tr.calls("http." + k); n > 0 {
			r.info("http."+k+".rtt_mean_ms", tr.nsPerCall("http."+k)/1e6, "ms")
			r.info("http."+k+".handler_mean_ms", tr.nsPerCall("handler."+k)/1e6, "ms")
		}
	}
	return tr.writeChrome(f.p.SpanFile)
}

// fleetReplay holds the replayed layers' cost per call, in ns, and the
// recorded traffic's mean dirty-state count per merge.
type fleetReplay struct {
	decode, storeDelta, storeFull, storeMerge float64
	mergerUpload, mergerMerge                 float64
	encode, resolve, submit                   float64
	dirtyStates                               float64
}

// storeUploadSelf is the store's own cost per upload: its delta and
// full paths weighted by the traced mix, minus the Merger.Upload each
// one runs inside it.
func (rp fleetReplay) storeUploadSelf(deltasPerOp, uploadsPerOp float64) float64 {
	if uploadsPerOp == 0 {
		return 0
	}
	total := rp.storeDelta*deltasPerOp + rp.storeFull*(uploadsPerOp-deltasPerOp)
	return max(total/uploadsPerOp-rp.mergerUpload, 0)
}

// replay times the concrete check-in layers on the traced phase's
// inputs. Store and merger replays run on private copies of the fleet as
// it stood when the traced phase began, so the recorded uploads change
// exactly what they changed live, and the live server is untouched.
func (f *fleetEnv) replay(rec *fleetRecording) (fleetReplay, error) {
	var rp fleetReplay
	rmin := replayMin(f.p.Duration)
	var bodies [][]byte
	for _, op := range rec.ops {
		if op.kind == kUpload {
			bodies = append(bodies, op.body)
		}
	}
	if len(bodies) > 0 {
		rp.decode = blockNS(rmin, len(bodies), func() {
			for _, b := range bodies {
				decodeBody(b)
			}
		})
	}
	merged, err := f.replayStore(rec, &rp)
	if err != nil {
		return rp, err
	}
	// Each private copy is a fleet's worth of tables: free the store's
	// before the merger's is built.
	runtime.GC()
	if err := f.replayMerger(rec, &rp); err != nil {
		return rp, err
	}

	model, err := f.model(nil)
	if err != nil {
		return rp, err
	}
	joined, _, err := cloud.JoinDevices(model)
	if err != nil {
		return rp, err
	}
	rp.encode = blockNS(rmin, 1, func() { fleetd.EncodePolicy(fleetApp, joined, true) })
	if !f.serve {
		return rp, nil
	}
	key := f.key.String()
	if devs := rec.resolve; len(devs) > 0 {
		mgr := f.srv.Rollout()
		rp.resolve = blockNS(rmin, len(devs), func() {
			for _, d := range devs {
				mgr.Resolve(key, d)
			}
		})
	}
	// Submit: the first artifact bootstraps stable, later ones become
	// candidates — the path every merge takes after set-up.
	mgr := rollout.New(rollout.Config{})
	submits := append([]*learner.TableSet{joined}, merged...)
	var ns int64
	for i, set := range submits {
		start := nowNS()
		art, err := cloud.NewArtifact(set, int64(i+1), len(f.gens))
		if err == nil {
			_, err = mgr.Submit(key, art)
		}
		if err != nil {
			return rp, fmt.Errorf("replay submit: %w", err)
		}
		if i > 0 || len(submits) == 1 {
			ns += nowNS() - start
		}
	}
	rp.submit = float64(ns) / float64(max(len(submits)-1, 1))
	return rp, nil
}

// replayStore preloads a private store with the fleet as the traced
// phase found it, runs its first full merge, then times the recorded
// uploads and merges. It also counts each merge's dirty states: the
// union of the states uploaded since the merge before.
func (f *fleetEnv) replayStore(rec *fleetRecording, rp *fleetReplay) ([]*learner.TableSet, error) {
	start, err := f.model(rec.start)
	if err != nil {
		return nil, err
	}
	store := fleetd.NewStoreMaxDevices(len(f.gens))
	gens := make([]int64, len(f.gens))
	for d, dev := range f.traffic.devices {
		_, gen, err := store.UploadSetGen(f.key, dev, start[dev])
		if err != nil {
			return nil, err
		}
		gens[d] = gen
	}
	start = nil
	if _, _, err := store.MergeSet(f.key); err != nil {
		return nil, err
	}
	var merged []*learner.TableSet
	var deltaNS, fullNS, mergeNS, deltas, fulls int64
	dirty := map[core.StateKey]struct{}{}
	var dirtySum float64
	for _, op := range rec.ops {
		dev := f.traffic.devices[op.device]
		switch op.kind {
		case kUpload:
			set, err := decodeBody(op.body)
			if err != nil {
				return nil, fmt.Errorf("replay decode: %w", err)
			}
			for s := range set.Primary().Q {
				dirty[s] = struct{}{}
			}
			begin := nowNS()
			var gen int64
			if op.delta {
				_, gen, err = store.UploadDelta(f.key, dev, set, gens[op.device])
				deltaNS += nowNS() - begin
				deltas++
			} else {
				_, gen, err = store.UploadSetGen(f.key, dev, set)
				fullNS += nowNS() - begin
				fulls++
			}
			if err != nil {
				return nil, fmt.Errorf("replay store upload: %w", err)
			}
			gens[op.device] = gen
		case kMerge:
			begin := nowNS()
			_, set, err := store.MergeSet(f.key)
			mergeNS += nowNS() - begin
			if err != nil {
				return nil, fmt.Errorf("replay store merge: %w", err)
			}
			merged = append(merged, set)
			dirtySum += float64(len(dirty))
			clear(dirty)
		}
	}
	rp.storeDelta = ratio(deltaNS, deltas)
	rp.storeFull = ratio(fullNS, fulls)
	rp.storeMerge = ratio(mergeNS, int64(len(merged)))
	rp.dirtyStates = dirtySum / float64(max(len(merged), 1))
	return merged, nil
}

// replayMerger builds a private merge arena over the fleet as the traced
// phase found it and times the recorded uploads (as the full sets the
// store would hand it) and merges.
func (f *fleetEnv) replayMerger(rec *fleetRecording, rp *fleetReplay) error {
	cur, err := f.model(rec.start)
	if err != nil {
		return err
	}
	m := cloud.NewMerger()
	if _, _, err := m.Rebuild(cur); err != nil {
		return err
	}
	var uploadNS, mergeNS, uploads, merges int64
	for _, op := range rec.ops {
		switch op.kind {
		case kUpload:
			dev := f.traffic.devices[op.device]
			set, err := decodeBody(op.body)
			if err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			if op.delta {
				set = overlay(cur[dev], set)
			}
			begin := nowNS()
			ok := m.Upload(dev, set)
			uploadNS += nowNS() - begin
			uploads++
			if !ok {
				return fmt.Errorf("replay merger: upload from %s invalidated the arena", dev)
			}
			cur[dev] = set
		case kMerge:
			begin := nowNS()
			m.Merge()
			mergeNS += nowNS() - begin
			merges++
		}
	}
	rp.mergerUpload = ratio(uploadNS, uploads)
	rp.mergerMerge = ratio(mergeNS, merges)
	return nil
}

// overlay applies a delta set to its base the way the store does:
// states in the delta replace the base's, metadata comes from the delta.
func overlay(base, delta *learner.TableSet) *learner.TableSet {
	bt, dt := base.Primary(), delta.Primary()
	nt := core.NewQTable(bt.Actions)
	for s, row := range bt.Q {
		nt.Q[s] = row
	}
	for s, v := range bt.Visits {
		nt.Visits[s] = v
	}
	for s, row := range dt.Q {
		nt.Q[s] = row
	}
	for s, v := range dt.Visits {
		nt.Visits[s] = v
	}
	nt.Steps, nt.TrainedUS, nt.ConvergedAtUS = dt.Steps, dt.TrainedUS, dt.ConvergedAtUS
	return learner.SingleTableSet(nt)
}

func ratio(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}
