package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"nextdvfs/internal/learner"
)

// Binary table-set codec ("NXTB", version 1).
//
// JSON remains the default wire format everywhere — legacy clients
// must keep seeing byte-identical payloads — but a table is mostly
// float64 rows, and JSON pays ~4x the bytes plus marshal CPU for
// them. The binary form is a strict transfer encoding of the same
// logical tableDTO: decoding a binary payload and decoding the
// equivalent JSON payload yield identical TableSets, so everything
// downstream (merge, hash, artifact ETags) is encoding-independent.
//
// Layout (all integers little-endian; uvarint/varint are the
// encoding/binary varint forms):
//
//	magic   4 bytes  "NXTB"
//	version 1 byte   (1)
//	flags   1 byte   bit0 = trained
//	app     uvarint length + bytes
//	learner uvarint length + bytes (normalized registry name)
//	actions uvarint
//	roles   uvarint count, then per role:
//	  name          uvarint length + bytes
//	  (primary role only)
//	  steps         varint
//	  trained_us    varint
//	  converged_us  varint
//	  q entries     uvarint count, then per entry, state keys sorted
//	                ascending and delta-encoded (first key absolute,
//	                later keys as key-prev, so deltas are >= 1):
//	                key uvarint, actions x float64 bits (8 bytes LE)
//	  visit entries uvarint count, same sorted delta key encoding,
//	                each key followed by varint visit count
//
// Q and Visits are encoded as separate key sets because the wire
// contract allows them to differ (a visit count without a row, and
// vice versa). Sorted keys make the encoding canonical: equal sets
// encode to equal bytes. The decoder enforces the sort (a non-
// increasing key sequence is a hard error), bounds every count
// against the bytes remaining, rejects trailing garbage, and runs
// learner.ValidateSet like the JSON path, so hostile inputs fail
// loudly instead of allocating unboundedly.

// TableSetMediaType is the HTTP media type for the binary codec,
// negotiated via Content-Type (uploads, federation) and Accept
// (policy downloads). Requests without it default to JSON.
const TableSetMediaType = "application/x-nextdvfs-table"

const (
	binMagic   = "NXTB"
	binVersion = 1

	flagTrained = 1 << 0

	// maxBinActions bounds the per-row allocation a hostile header can
	// request before any row bytes are checked. Real action spaces are
	// single digits; 1<<16 leaves room without allowing multi-GB rows.
	maxBinActions = 1 << 16
)

// MarshalTableSetBinary encodes a learner table set in the binary wire
// format. It enforces the same structural rules as the JSON marshaler
// (non-nil primary, uniform action counts, unique non-empty role
// names) and produces canonical bytes: equal sets encode identically.
func MarshalTableSetBinary(app string, set *TableSet, trained bool) ([]byte, error) {
	if set == nil || set.Primary() == nil {
		return nil, fmt.Errorf("core: nil table set for %q", app)
	}
	primary := set.Primary()
	seen := make(map[string]bool, len(set.Roles))
	for _, r := range set.Roles {
		if r.Table == nil || r.Role == "" || seen[r.Role] {
			return nil, fmt.Errorf("core: bad role %q in table set for %q", r.Role, app)
		}
		seen[r.Role] = true
		if r.Table.Actions != primary.Actions {
			return nil, fmt.Errorf("core: role %q of %q has %d actions, primary has %d",
				r.Role, app, r.Table.Actions, primary.Actions)
		}
	}

	buf := make([]byte, 0, binSetSize(app, set))
	buf = append(buf, binMagic...)
	buf = append(buf, binVersion)
	var flags byte
	if trained {
		flags |= flagTrained
	}
	buf = append(buf, flags)
	buf = appendBinString(buf, app)
	buf = appendBinString(buf, learner.Normalize(set.Learner))
	buf = binary.AppendUvarint(buf, uint64(primary.Actions))
	buf = binary.AppendUvarint(buf, uint64(len(set.Roles)))
	for i, r := range set.Roles {
		buf = appendBinString(buf, r.Role)
		if i == 0 {
			buf = binary.AppendVarint(buf, r.Table.Steps)
			buf = binary.AppendVarint(buf, r.Table.TrainedUS)
			buf = binary.AppendVarint(buf, r.Table.ConvergedAtUS)
		}
		keys := sortedStateKeys(r.Table.Q)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		prev := uint64(0)
		for j, k := range keys {
			buf = appendBinKey(buf, uint64(k), prev, j == 0)
			prev = uint64(k)
			for _, v := range r.Table.Q[k] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		vkeys := sortedVisitKeys(r.Table.Visits)
		buf = binary.AppendUvarint(buf, uint64(len(vkeys)))
		prev = 0
		for j, k := range vkeys {
			buf = appendBinKey(buf, uint64(k), prev, j == 0)
			prev = uint64(k)
			buf = binary.AppendVarint(buf, int64(r.Table.Visits[k]))
		}
	}
	return buf, nil
}

// binSetSize estimates the encoded size so the encoder allocates once.
func binSetSize(app string, set *TableSet) int {
	n := 6 + len(app) + len(set.Learner) + 24
	actions := set.Primary().Actions
	for _, r := range set.Roles {
		n += len(r.Role) + 40
		n += len(r.Table.Q) * (10 + 8*actions)
		n += len(r.Table.Visits) * 20
	}
	return n
}

func appendBinString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendBinKey writes a sorted state key: the first key absolute, the
// rest as the (always >= 1) delta from the previous key.
func appendBinKey(buf []byte, key, prev uint64, first bool) []byte {
	if first {
		return binary.AppendUvarint(buf, key)
	}
	return binary.AppendUvarint(buf, key-prev)
}

func sortedStateKeys(m map[StateKey][]float64) []StateKey {
	keys := make([]StateKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedVisitKeys(m map[StateKey]int) []StateKey {
	keys := make([]StateKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// IsBinaryTableSet reports whether data begins with the binary codec
// magic — the sniff used where a payload arrives without (or inside a
// carrier that predates) content-type metadata.
func IsBinaryTableSet(data []byte) bool {
	return len(data) >= len(binMagic) && string(data[:len(binMagic)]) == binMagic
}

// binReader is a bounds-checked cursor over an untrusted payload.
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("core: binary table: bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("core: binary table: bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *binReader) str(what string) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("core: binary table: %s length %d exceeds %d remaining bytes", what, n, r.remaining())
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *binReader) float64() (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("core: binary table: truncated float64 at offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, nil
}

// key reads one sorted delta-encoded state key. Deltas after the first
// key must be >= 1 (strictly ascending keys without uint64 wraparound),
// which both rejects duplicates and makes the encoding canonical.
func (r *binReader) key(prev uint64, first bool) (uint64, error) {
	d, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if first {
		return d, nil
	}
	if d == 0 {
		return 0, fmt.Errorf("core: binary table: state keys not strictly ascending at offset %d", r.off)
	}
	k := prev + d
	if k < prev {
		return 0, fmt.Errorf("core: binary table: state key overflow at offset %d", r.off)
	}
	return k, nil
}

// UnmarshalTableSetBinary parses a binary-encoded learner table set,
// applying the same validation as the JSON path (action count, role
// layout, learner registry).
func UnmarshalTableSetBinary(data []byte) (app string, set *TableSet, trained bool, err error) {
	if !IsBinaryTableSet(data) {
		return "", nil, false, fmt.Errorf("core: binary table: missing %q magic", binMagic)
	}
	if len(data) < len(binMagic)+2 {
		return "", nil, false, fmt.Errorf("core: binary table: truncated header")
	}
	if data[len(binMagic)] != binVersion {
		return "", nil, false, fmt.Errorf("core: binary table: unsupported version %d (want %d)", data[len(binMagic)], binVersion)
	}
	flags := data[len(binMagic)+1]
	if flags&^flagTrained != 0 {
		return "", nil, false, fmt.Errorf("core: binary table: unknown flags %#x", flags)
	}
	trained = flags&flagTrained != 0

	r := &binReader{data: data, off: len(binMagic) + 2}
	if app, err = r.str("app"); err != nil {
		return "", nil, false, err
	}
	name, err := r.str("learner")
	if err != nil {
		return "", nil, false, err
	}
	actions64, err := r.uvarint()
	if err != nil {
		return "", nil, false, err
	}
	if actions64 == 0 || actions64 > maxBinActions {
		return "", nil, false, fmt.Errorf("core: table for %q has invalid action count %d", app, actions64)
	}
	actions := int(actions64)
	roleCount, err := r.uvarint()
	if err != nil {
		return "", nil, false, err
	}
	// Each role needs at least a name length byte and two count bytes.
	if roleCount == 0 || roleCount > uint64(r.remaining()/3)+1 {
		return "", nil, false, fmt.Errorf("core: binary table for %q has implausible role count %d", app, roleCount)
	}

	set = &TableSet{Learner: learner.Normalize(name)}
	set.Roles = make([]RoleTable, 0, roleCount)
	for i := 0; i < int(roleCount); i++ {
		role, err := r.str("role name")
		if err != nil {
			return "", nil, false, err
		}
		t := NewQTable(actions)
		if i == 0 {
			if t.Steps, err = r.varint(); err != nil {
				return "", nil, false, err
			}
			if t.TrainedUS, err = r.varint(); err != nil {
				return "", nil, false, err
			}
			if t.ConvergedAtUS, err = r.varint(); err != nil {
				return "", nil, false, err
			}
		}
		if err := r.readRows(t, actions); err != nil {
			return "", nil, false, fmt.Errorf("core: role %q of %q: %w", role, app, err)
		}
		if err := r.readVisits(t); err != nil {
			return "", nil, false, fmt.Errorf("core: role %q of %q: %w", role, app, err)
		}
		set.Roles = append(set.Roles, RoleTable{Role: role, Table: t})
	}
	if r.remaining() != 0 {
		return "", nil, false, fmt.Errorf("core: binary table for %q has %d trailing bytes", app, r.remaining())
	}
	if err := learner.ValidateSet(set); err != nil {
		return "", nil, false, fmt.Errorf("core: table set for %q: %w", app, err)
	}
	return app, set, trained, nil
}

func (r *binReader) readRows(t *QTable, actions int) error {
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	// Every entry consumes >= 1 key byte + 8*actions row bytes, so a
	// count beyond remaining/entrySize is hostile — reject before
	// sizing the map by it.
	entrySize := uint64(1 + 8*actions)
	if count > uint64(r.remaining())/entrySize {
		return fmt.Errorf("q entry count %d exceeds %d remaining bytes", count, r.remaining())
	}
	if count == 0 {
		return nil
	}
	t.Q = make(map[StateKey][]float64, count)
	// One backing array for all rows keeps the per-row overhead at a
	// slice header instead of a separate allocation each.
	backing := make([]float64, int(count)*actions)
	prev := uint64(0)
	for i := 0; i < int(count); i++ {
		k, err := r.key(prev, i == 0)
		if err != nil {
			return err
		}
		prev = k
		row := backing[i*actions : (i+1)*actions : (i+1)*actions]
		for j := range row {
			if row[j], err = r.float64(); err != nil {
				return err
			}
		}
		t.Q[StateKey(k)] = row
	}
	return nil
}

func (r *binReader) readVisits(t *QTable) error {
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(r.remaining())/2 {
		return fmt.Errorf("visit entry count %d exceeds %d remaining bytes", count, r.remaining())
	}
	if count == 0 {
		return nil
	}
	t.Visits = make(map[StateKey]int, count)
	prev := uint64(0)
	for i := 0; i < int(count); i++ {
		k, err := r.key(prev, i == 0)
		if err != nil {
			return err
		}
		prev = k
		v, err := r.varint()
		if err != nil {
			return err
		}
		if int64(int(v)) != v {
			return fmt.Errorf("visit count %d overflows int", v)
		}
		t.Visits[StateKey(k)] = int(v)
	}
	return nil
}

// UnmarshalTableSetAny decodes either wire encoding, sniffing the
// binary magic — for ingress points that accept both (federation
// bodies carry no per-item content type).
func UnmarshalTableSetAny(data []byte) (app string, set *TableSet, trained bool, err error) {
	if IsBinaryTableSet(data) {
		return UnmarshalTableSetBinary(data)
	}
	return UnmarshalTableSet(data)
}
