package fleetd

import (
	"errors"
	"slices"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// DeltaUploader wraps a Client with the delta-upload state machine for
// one device×app×platform stream: it remembers the last accepted
// upload and its generation, diffs each new snapshot against it, and
// sends only the changed states with the generation echoed in
// X-Fleet-Base-Gen. Any base mismatch (server restart, store eviction,
// a competing uploader) comes back as 409 and the uploader transparently
// re-sends the full table, re-arming delta mode from the new
// generation. Servers that don't track generations — aggregator edges,
// whose replies carry no gen — permanently disable delta mode for this
// stream and every later upload goes out full, exactly as before.
//
// Not safe for concurrent use; each simulated device owns its own
// DeltaUploader (matching the one-session-per-device fleet model).
type DeltaUploader struct {
	c                     *Client
	device, platform, app string

	gen      int64
	prev     *core.TableSet
	disabled bool
}

// NewDeltaUploader starts a delta-upload stream. The first Upload is
// always full.
func (c *Client) NewDeltaUploader(device, platform, app string) *DeltaUploader {
	return &DeltaUploader{c: c, device: device, platform: platform, app: app}
}

// Upload sends the device's current table set, as a delta when
// possible. The set is read, never retained or mutated; callers may
// keep training on it afterwards.
func (d *DeltaUploader) Upload(set *core.TableSet) (UploadReply, error) {
	if !d.disabled && d.gen > 0 && d.prev != nil {
		if delta, ok := diffTableSet(d.prev, set); ok {
			reply, err := d.c.UploadTableSet(d.device, d.platform, d.app, delta, d.gen)
			switch {
			case err == nil:
				d.accept(set, reply)
				return reply, nil
			case errors.Is(err, ErrDeltaBase):
				// Base gone — fall through to a full upload.
			default:
				return reply, err
			}
		}
		// Deltas can only add or replace states (the merge treats an
		// absent state as "unchanged", not "deleted"), so a snapshot
		// that dropped states also falls back to a full upload.
	}
	reply, err := d.c.UploadTableSet(d.device, d.platform, d.app, set, 0)
	if err != nil {
		return reply, err
	}
	d.accept(set, reply)
	return reply, nil
}

func (d *DeltaUploader) accept(set *core.TableSet, reply UploadReply) {
	if reply.Gen <= 0 {
		// This tier doesn't track generations; stop diffing for good.
		d.disabled, d.gen, d.prev = true, 0, nil
		return
	}
	d.gen = reply.Gen
	d.prev = set.Clone()
}

// diffTableSet returns a set carrying only the states of next whose
// row or visit count differs from prev, with each role's metadata
// (Steps, TrainedUS, ConvergedAtUS) absolute — matching the overlay
// semantics of Store.UploadDelta. ok is false when the diff cannot be
// expressed as an overlay: layout changed, or next dropped a state
// prev had.
func diffTableSet(prev, next *core.TableSet) (*core.TableSet, bool) {
	if prev == nil || next == nil || len(prev.Roles) != len(next.Roles) ||
		learner.Normalize(prev.Learner) != learner.Normalize(next.Learner) {
		return nil, false
	}
	delta := &core.TableSet{Learner: next.Learner, Roles: make([]learner.RoleTable, len(next.Roles))}
	for i, r := range next.Roles {
		p := prev.Roles[i]
		if p.Role != r.Role || p.Table == nil || r.Table == nil || p.Table.Actions != r.Table.Actions {
			return nil, false
		}
		// Overlays can't delete: every state and visit entry the base
		// had must still exist in next, else only a full upload can
		// express the change.
		for s := range p.Table.Q {
			if _, still := r.Table.Q[s]; !still {
				return nil, false
			}
		}
		for s := range p.Table.Visits {
			if _, still := r.Table.Visits[s]; !still {
				return nil, false
			}
		}
		dt := core.NewQTable(r.Table.Actions)
		dt.Steps = r.Table.Steps
		dt.TrainedUS = r.Table.TrainedUS
		dt.ConvergedAtUS = r.Table.ConvergedAtUS
		for s, row := range r.Table.Q {
			old, had := p.Table.Q[s]
			if !had {
				dt.Q[s] = row
				if v, ok := r.Table.Visits[s]; ok {
					dt.Visits[s] = v
				}
				continue
			}
			if p.Table.Visits[s] != r.Table.Visits[s] || !slices.Equal(old, row) {
				dt.Q[s] = row
				if v, ok := r.Table.Visits[s]; ok {
					dt.Visits[s] = v
				}
			}
		}
		// Visit counts without rows (legal, merge-inert) still need to
		// travel when they change.
		for s, v := range r.Table.Visits {
			if _, hasRow := r.Table.Q[s]; hasRow {
				continue
			}
			if _, sent := dt.Visits[s]; sent {
				continue
			}
			if pv, had := p.Table.Visits[s]; !had || pv != v {
				dt.Visits[s] = v
			}
		}
		delta.Roles[i] = learner.RoleTable{Role: r.Role, Table: dt}
	}
	return delta, true
}
