package fleetd

import (
	"bytes"
	"fmt"
	"net/http"

	"nextdvfs/internal/core"
)

// This file is the root side of the hierarchical fleet: edge
// aggregators (internal/aggregator) batch device uploads and push them
// here over POST /v1/federate. The root stores the raw per-device
// tables exactly as if each device had uploaded directly — never a
// regional pre-average, which would reassociate the merge's float sums
// — so a root merge round stays byte-identical to a flat single-tier
// fleet (see cloud.JoinDevices).

// FederatedUpload is one device's table relayed by an aggregator: the
// device and platform that produced it plus the wire body the device
// originally uploaded, unmodified, in either table codec. The root
// re-validates and re-sanitizes it as if the device had uploaded
// directly.
type FederatedUpload struct {
	Device   string
	Platform string
	Body     []byte
}

// FederateRequest is one batched upward push from an edge aggregator,
// carried as an NXTF envelope (see MarshalFederateRequest).
type FederateRequest struct {
	// Agg names the pushing aggregator (a single [a-zA-Z0-9._-]
	// segment), for logs and partial-success attribution.
	Agg string
	// Devices lists device IDs that checked in at the edge since the
	// last push, so root-side device tracking and rollout cohort floors
	// count the whole fleet, not the handful of aggregators.
	Devices []string
	// Uploads carries the queued device tables, oldest first.
	Uploads []FederatedUpload
}

// FederateReply summarizes a federation push. Acceptance is per item:
// a poisoned upload is rejected (and sampled into Errors) while the
// rest of the batch lands, so an aggregator drops it instead of
// retrying the whole batch forever.
type FederateReply struct {
	Agg        string   `json:"agg"`
	Registered int      `json:"registered"`
	Accepted   int      `json:"accepted"`
	Rejected   int      `json:"rejected"`
	Errors     []string `json:"errors,omitempty"`
}

// maxFederateErrors caps the rejection-reason sample in a reply.
const maxFederateErrors = 8

func (s *Server) handleFederate(w http.ResponseWriter, r *http.Request) int {
	// Both ends of the push are ours, so it has one envelope: NXTF.
	if ct := mediaType(r.Header.Get("Content-Type")); ct != FederateMediaType {
		return WriteErr(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("fleetd: federation push must be %s, got %q", FederateMediaType, ct))
	}
	data, status := s.door.readBody(w, r, maxFederateBytes, "federation push", nil)
	if status != http.StatusOK {
		return status
	}
	req, err := UnmarshalFederateRequest(data)
	if err != nil {
		return WriteErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad federation body: %w", err))
	}
	if !safeName(req.Agg) {
		return WriteErr(w, http.StatusBadRequest,
			fmt.Errorf("fleetd: federation push needs an aggregator ID as a single [a-zA-Z0-9._-] segment"))
	}
	reply := FederateReply{Agg: req.Agg}
	var scratch core.SortedSet // the store copies each upload's rows out
	for _, d := range req.Devices {
		if safeName(d) {
			s.door.note(d)
			reply.Registered++
		}
	}
	for _, up := range req.Uploads {
		if err := s.acceptFederated(up, &scratch); err != nil {
			reply.Rejected++
			if len(reply.Errors) < maxFederateErrors {
				reply.Errors = append(reply.Errors, err.Error())
			}
			continue
		}
		reply.Accepted++
	}
	return WriteJSON(w, http.StatusOK, reply)
}

// acceptFederated lands one relayed device table through the decoder
// and store path a direct upload takes, decoding a binary body into
// scratch. Bodies are sniffed per upload because one envelope may relay
// a mixed fleet of binary and legacy-JSON devices.
func (s *Server) acceptFederated(up FederatedUpload, scratch *core.SortedSet) error {
	if len(up.Body) > maxUploadBytes {
		return fmt.Errorf("fleetd: federated upload from %q exceeds %d bytes", up.Device, maxUploadBytes)
	}
	contentType := ""
	if core.IsBinaryTableSet(up.Body) {
		contentType = core.TableSetMediaType
	}
	app, set, err := DecodeSorted(contentType, up.Body, scratch)
	if err != nil {
		return fmt.Errorf("fleetd: federated upload from %q: %w", up.Device, err)
	}
	_, _, err = s.store.Upload(Key{App: app, Platform: up.Platform}, up.Device, set)
	return err
}

// Federate pushes a batch of device tables (and newly checked-in
// device IDs) upward to the root as one NXTF envelope. Aggregators call
// it from their flush pipeline; devices never do.
func (c *Client) Federate(req FederateRequest) (FederateReply, error) {
	resp, err := c.http.Post(c.base+"/v1/federate", FederateMediaType, bytes.NewReader(MarshalFederateRequest(req)))
	if err != nil {
		return FederateReply{}, err
	}
	var reply FederateReply
	err = c.decode(resp, &reply)
	return reply, err
}
