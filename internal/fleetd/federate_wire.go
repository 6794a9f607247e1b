package fleetd

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FederateMediaType is the Content-Type of the federation envelope
// (NXTF v1), the only encoding POST /v1/federate accepts.
const FederateMediaType = "application/x-nextdvfs-federate"

// NXTF v1 layout, little-endian throughout:
//
//	magic "NXTF" | version u8 | agg str |
//	uvarint device-count | device str ... |
//	uvarint upload-count | (device str, platform str, body blob) ...
//
// where str and blob are uvarint length-prefixed byte strings. Counts
// and lengths are bounds-checked against the remaining input before
// allocation, and trailing bytes are rejected, mirroring the NXTB
// table codec's hostile-input posture.
const (
	fedMagic   = "NXTF"
	fedVersion = 1
)

// MarshalFederateRequest encodes a federation push as an NXTF v1
// envelope. Bodies travel verbatim, whichever table encoding they use.
func MarshalFederateRequest(req FederateRequest) []byte {
	size := len(fedMagic) + 1 + strSize(req.Agg) + binary.MaxVarintLen64
	for _, d := range req.Devices {
		size += strSize(d)
	}
	size += binary.MaxVarintLen64
	for _, up := range req.Uploads {
		size += strSize(up.Device) + strSize(up.Platform) + binary.MaxVarintLen64 + len(up.Body)
	}
	out := make([]byte, 0, size)
	out = append(out, fedMagic...)
	out = append(out, fedVersion)
	out = appendStr(out, req.Agg)
	out = binary.AppendUvarint(out, uint64(len(req.Devices)))
	for _, d := range req.Devices {
		out = appendStr(out, d)
	}
	out = binary.AppendUvarint(out, uint64(len(req.Uploads)))
	for _, up := range req.Uploads {
		out = appendStr(out, up.Device)
		out = appendStr(out, up.Platform)
		out = binary.AppendUvarint(out, uint64(len(up.Body)))
		out = append(out, up.Body...)
	}
	return out
}

func strSize(s string) int { return binary.MaxVarintLen64 + len(s) }

func appendStr(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

// fedReader is a bounds-checked cursor over an NXTF envelope.
type fedReader struct {
	data []byte
	off  int
}

func (r *fedReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("fleetd: truncated varint at offset %d", r.off)
	}
	// Reject non-minimal encodings (e.g. 0x80 0x00 for 0): the wire
	// format is canonical, so every accepted envelope re-marshals to
	// the exact bytes it arrived as.
	if n > 1 && r.data[r.off+n-1] == 0 {
		return 0, fmt.Errorf("fleetd: non-minimal varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *fedReader) bytes(what string) ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("fleetd: %s length %d exceeds remaining input", what, n)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *fedReader) str(what string) (string, error) {
	b, err := r.bytes(what)
	return string(b), err
}

// UnmarshalFederateRequest decodes an NXTF v1 envelope. Upload bodies
// alias the input buffer (the caller owns it until the request is
// fully absorbed).
func UnmarshalFederateRequest(data []byte) (FederateRequest, error) {
	var req FederateRequest
	if len(data) < len(fedMagic) || string(data[:len(fedMagic)]) != fedMagic {
		return req, fmt.Errorf("fleetd: not a federation envelope")
	}
	if len(data) < len(fedMagic)+1 {
		return req, fmt.Errorf("fleetd: truncated federation envelope")
	}
	if v := data[len(fedMagic)]; v != fedVersion {
		return req, fmt.Errorf("fleetd: unsupported federation envelope version %d", v)
	}
	r := &fedReader{data: data, off: len(fedMagic) + 1}
	var err error
	if req.Agg, err = r.str("agg"); err != nil {
		return req, err
	}
	nDev, err := r.uvarint()
	if err != nil {
		return req, err
	}
	// Every device entry needs at least its length byte.
	if nDev > uint64(len(r.data)-r.off) || nDev > math.MaxInt32 {
		return req, fmt.Errorf("fleetd: device count %d exceeds remaining input", nDev)
	}
	if nDev > 0 {
		req.Devices = make([]string, 0, nDev)
		for i := uint64(0); i < nDev; i++ {
			d, err := r.str("device")
			if err != nil {
				return req, err
			}
			req.Devices = append(req.Devices, d)
		}
	}
	nUp, err := r.uvarint()
	if err != nil {
		return req, err
	}
	// Each upload needs at least 3 length bytes (device, platform, body).
	if nUp > uint64(len(r.data)-r.off)/3 {
		return req, fmt.Errorf("fleetd: upload count %d exceeds remaining input", nUp)
	}
	if nUp > 0 {
		req.Uploads = make([]FederatedUpload, 0, nUp)
		for i := uint64(0); i < nUp; i++ {
			var up FederatedUpload
			if up.Device, err = r.str("upload device"); err != nil {
				return req, err
			}
			if up.Platform, err = r.str("upload platform"); err != nil {
				return req, err
			}
			if up.Body, err = r.bytes("upload body"); err != nil {
				return req, err
			}
			req.Uploads = append(req.Uploads, up)
		}
	}
	if r.off != len(r.data) {
		return req, fmt.Errorf("fleetd: %d trailing bytes after federation envelope", len(r.data)-r.off)
	}
	return req, nil
}
