package fleetsim

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"nextdvfs/internal/aggregator"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
)

// FederationReport describes the two-tier topology of an aggregator
// run: what the final federation epoch moved and merged.
type FederationReport struct {
	// Aggregators is the edge-tier width.
	Aggregators int
	// Flushed counts device tables the root accepted during the final
	// epoch; LocalMerges the aggregator-local rounds its split phase
	// ran.
	Flushed     int
	LocalMerges int
	// Late names aggregators that failed to flush in the final epoch
	// (empty for in-process tiers unless the root died mid-run).
	Late []string
	// Retries429 counts uploads that were rejected with Retry-After
	// backpressure and retried by the simulated devices.
	Retries429 int64
}

// aggTier is the in-process edge tier a two-tier run spins up over the
// root server: one aggregator.Server per region, each listening on its
// own loopback port so devices reach their region over real HTTP.
type aggTier struct {
	aggs    []*aggregator.Server
	clients []*fleetd.Client
	srvs    []*http.Server
}

// startAggTier builds opts.Aggregators edge aggregators over the root.
// Background flushing stays off — the federation epoch after traffic
// drains the queues, which keeps the run's output a deterministic
// function of the uploads rather than of flush timing.
func startAggTier(rootURL string, opts Options) (*aggTier, error) {
	t := &aggTier{}
	for a := 0; a < opts.Aggregators; a++ {
		agg, err := aggregator.New(aggregator.Config{
			ID:         fmt.Sprintf("agg-%03d", a),
			Root:       rootURL,
			FlushEvery: -1,
			// Sized so a well-behaved run never trips backpressure: the
			// queue bounds distinct (policy, device) pairs and every
			// device uploads one table.
			QueueLimit:       opts.Devices + 64,
			MaxDevicesPerKey: opts.Devices + 1,
		})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("fleetsim: building aggregator tier: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("fleetsim: aggregator listener: %w", err)
		}
		srv := &http.Server{Handler: agg.Handler()}
		go srv.Serve(ln)
		t.aggs = append(t.aggs, agg)
		t.srvs = append(t.srvs, srv)
		c := fleetd.NewClient("http://" + ln.Addr().String())
		c.UseBinary = opts.Binary
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *aggTier) close() {
	for _, s := range t.srvs {
		s.Close()
	}
}

// Device-side backpressure handling: a 429 with Retry-After is a
// delay-and-retry signal, not a failure. The sim honors the server's
// delay but clamps it so a test-sized queue can't stall the run.
const (
	maxUploadRetries = 8
	maxRetryDelay    = 200 * time.Millisecond
)

func uploadWithBackpressure(client *fleetd.Client, device, platform, app string,
	set *core.TableSet, retries *atomic.Int64) (fleetd.UploadReply, error) {
	for attempt := 0; ; attempt++ {
		reply, err := client.UploadTableSet(device, platform, app, set, 0)
		var ra *fleetd.RetryAfterError
		if err == nil || !errors.As(err, &ra) || attempt >= maxUploadRetries {
			return reply, err
		}
		retries.Add(1)
		delay := time.Duration(ra.Seconds * float64(time.Second))
		if delay <= 0 || delay > maxRetryDelay {
			delay = maxRetryDelay
		}
		time.Sleep(delay)
	}
}

// runEpochPhase is phase 3 of a two-tier run: one federation epoch
// (aggregator-local merges → flush upward → root joins) over the
// options app, returning the root merge that produced the final policy
// — the table every device would get on its next check-in, pinned
// byte-identical to a flat merge.
func runEpochPhase(rootClient *fleetd.Client, tier *aggTier, report *Report, requests, retries *atomic.Int64) (fleetd.MergeInfo, error) {
	coord := &aggregator.Coordinator{Root: rootClient, Aggs: tier.aggs}
	key := fleetd.Key{App: report.Options.App, Platform: report.Options.Platform}
	rep, err := coord.RunEpoch([]fleetd.Key{key})
	if err != nil {
		return fleetd.MergeInfo{}, fmt.Errorf("fleetsim: federation epoch: %w", err)
	}
	requests.Add(int64(len(rep.Merges)))
	report.Federation = &FederationReport{
		Aggregators: report.Options.Aggregators,
		Flushed:     rep.Flushed,
		LocalMerges: rep.LocalMerges,
		Late:        rep.Late,
		Retries429:  retries.Load(),
	}
	for _, info := range rep.Merges {
		if info.App == key.App {
			return info, nil
		}
	}
	return fleetd.MergeInfo{}, fmt.Errorf("fleetsim: federation epoch produced no root merge for %s", key.App)
}
