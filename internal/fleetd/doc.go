// Package fleetd is the fleet policy server: the network-facing half of
// the paper's Section IV-C, where Q-table training is offloaded to a
// server and shared across a fleet of devices.
//
// The server exposes an HTTP/JSON API:
//
//	POST /v1/checkin   device check-in: announces {device, platform} and
//	                   learns which merged policies exist for it
//	PUT  /v1/table     upload one device-trained table set (compact JSON
//	                   or the NXTB binary codec), whole or as a delta
//	POST /v1/merge     run a federated merge round for one app×platform
//	                   (visit-weighted averaging, byte-identical to
//	                   cloud.JoinDevices)
//	POST /v1/federate  batch ingest from edge aggregators (NXTF envelope)
//	GET  /v1/policy    download the current merged policy for app×platform
//	GET  /v1/apps      list known policies (optionally per platform)
//	GET  /healthz      liveness + table/device counts
//	GET  /metrics      Prometheus-style request counts and merge latencies
//
// Behind the handlers sits Store, a sharded, mutex-striped in-memory
// table store keyed by app×platform. A merge round always recomputes
// from every device's latest upload in sorted-device order, so the
// served policy is a deterministic function of the upload set — a fleet
// driven concurrently converges to the byte-identical table a serial
// cloud.Fleet.MergeApp of the same uploads produces (pinned by the
// end-to-end test in internal/fleetsim). Each key's merge arena
// (cloud.Merger) is the store's only copy of its devices' tables. Every
// upload enters it in sorted form through one walker: a full upload
// replaces the device's column, a new device joins the arena with its
// first one, and a delta upload updates it in O(states in the delta).
// A merge round recomputes only the states uploads dirtied.
//
// Published policies are immutable, so the store installs each merged
// set together with a memo of its wire bodies: a policy is encoded at
// most once per encoding (compact JSON, NXTB), on the first pull that
// asks for it, and every later GET /v1/policy writes the cached bytes.
// Rollout artifacts carry the same memo, and fleetd_policy_encodes_total
// on /metrics counts the encodes.
//
// When configured with a snapshot directory the server persists each
// merged table through core.Store (atomic temp-file + rename writes)
// after every merge round, and a restarted server warms itself from the
// same directory, serving the last merged policies before any device
// re-uploads.
package fleetd
