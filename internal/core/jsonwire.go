package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"nextdvfs/internal/learner"
)

// jsonEncoder writes a table set's compact JSON, byte for byte what
// json.Marshal makes of the set's DTO:
//
//   - the DTO's fields in order: app, actions, steps, trained_us,
//     converged_at_us, trained, q, visits, then learner and aux, which
//     are left out when empty;
//   - state keys as decimal strings in string order (json.Marshal
//     sorts map keys as strings, so "10" precedes "9"), separately for
//     q and visits;
//   - floats as encoding/json formats float64: strconv's shortest 'f'
//     form, or 'e' below 1e-6 or from 1e21 up with e-0X written e-X;
//     NaN and ±Inf are an error;
//   - strings escaped by encoding/json itself;
//   - aux roles in name order.
//
// Encoders are pooled; each holds the scratch one encoding needs.
type jsonEncoder struct {
	// b collects the encoding.
	b []byte
	// keys orders a table's rows, then its visit counts.
	keys keyOrder
	// parts holds the rows that goroutines 1.. format, by goroutine.
	parts [][]byte
	errs  []error
}

var jsonEncoders = sync.Pool{New: func() any { return new(jsonEncoder) }}

// MarshalTableSet serializes a learner's complete table state,
// indented. It is json.Indent over MarshalTableSetCompact's bytes,
// which is what json.MarshalIndent does to json.Marshal's.
func MarshalTableSet(app string, set *TableSet, trained bool) ([]byte, error) {
	return withJSONEncoder(app, set, trained, func(compact []byte) ([]byte, error) {
		var buf bytes.Buffer
		if err := json.Indent(&buf, compact, "", " "); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// MarshalTableSetCompact serializes a learner's complete table state
// in compact JSON, the table-set wire form.
func MarshalTableSetCompact(app string, set *TableSet, trained bool) ([]byte, error) {
	return withJSONEncoder(app, set, trained, func(compact []byte) ([]byte, error) {
		return append([]byte(nil), compact...), nil
	})
}

// withJSONEncoder encodes the set with a pooled encoder and returns
// what finish makes of the encoding. The bytes finish gets are the
// encoder's and must not outlive the call.
func withJSONEncoder(app string, set *TableSet, trained bool, finish func([]byte) ([]byte, error)) ([]byte, error) {
	e := jsonEncoders.Get().(*jsonEncoder)
	defer jsonEncoders.Put(e)
	e.b = e.b[:0]
	if err := e.tableSet(app, set, trained); err != nil {
		return nil, err
	}
	return finish(e.b)
}

// tableSet encodes the set; see jsonEncoder for the form.
func (e *jsonEncoder) tableSet(app string, set *TableSet, trained bool) error {
	if set == nil || set.Primary() == nil {
		return fmt.Errorf("core: nil table set for %q", app)
	}
	t := set.Primary()
	aux := make([]RoleTable, 0, len(set.Roles)-1)
	for _, r := range set.Roles[1:] {
		if r.Table.Actions != t.Actions {
			return fmt.Errorf("core: role %q of %q has %d actions, primary has %d",
				r.Role, app, r.Table.Actions, t.Actions)
		}
		if r.Role == "" || slices.ContainsFunc(aux, func(x RoleTable) bool { return x.Role == r.Role }) {
			return fmt.Errorf("core: bad role %q in table set for %q", r.Role, app)
		}
		aux = append(aux, r)
	}
	slices.SortFunc(aux, func(x, y RoleTable) int { return cmp.Compare(x.Role, y.Role) })

	e.b = append(e.b, `{"app":`...)
	e.b = appendJSONString(e.b, app)
	e.b = append(e.b, `,"actions":`...)
	e.b = strconv.AppendInt(e.b, int64(t.Actions), 10)
	e.b = append(e.b, `,"steps":`...)
	e.b = strconv.AppendInt(e.b, t.Steps, 10)
	e.b = append(e.b, `,"trained_us":`...)
	e.b = strconv.AppendInt(e.b, t.TrainedUS, 10)
	e.b = append(e.b, `,"converged_at_us":`...)
	e.b = strconv.AppendInt(e.b, t.ConvergedAtUS, 10)
	e.b = append(e.b, `,"trained":`...)
	e.b = strconv.AppendBool(e.b, trained)
	e.b = append(e.b, ',')
	if err := e.table(t); err != nil {
		return err
	}
	// The default learner stays implicit so watkins snapshots remain
	// byte-identical to the historical single-table format.
	if name := learner.Normalize(set.Learner); name != learner.DefaultLearner {
		e.b = append(e.b, `,"learner":`...)
		e.b = appendJSONString(e.b, name)
	}
	for i, r := range aux {
		if i == 0 {
			e.b = append(e.b, `,"aux":{`...)
		} else {
			e.b = append(e.b, ',')
		}
		e.b = appendJSONString(e.b, r.Role)
		e.b = append(e.b, ":{"...)
		if err := e.table(r.Table); err != nil {
			return err
		}
		e.b = append(e.b, '}')
	}
	if len(aux) > 0 {
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
	return nil
}

// table encodes one table's "q" and "visits" members.
func (e *jsonEncoder) table(t *QTable) error {
	e.b = append(e.b, `"q":{`...)
	if err := e.rows(t.Q, sortKeys(&e.keys, t.Q)); err != nil {
		return err
	}
	e.b = append(e.b, `},"visits":{`...)
	e.b = e.appendVisits(e.b, t.Visits)
	e.b = append(e.b, '}')
	return nil
}

// appendVisits appends the visit counts, comma-separated.
func (e *jsonEncoder) appendVisits(b []byte, visits map[StateKey]int) []byte {
	for i, k := range sortKeys(&e.keys, visits) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONKey(b, k)
		b = strconv.AppendInt(b, int64(visits[k]), 10)
	}
	return b
}

// rows encodes the rows of keys. The keys split into up to GOMAXPROCS
// contiguous ranges, one per goroutine: this one formats the first
// range into e.b and the others into parts, which follow it in order.
func (e *jsonEncoder) rows(q map[StateKey][]float64, keys []StateKey) error {
	n := min(runtime.GOMAXPROCS(0), len(keys))
	if n < 2 {
		var err error
		e.b, err = appendJSONRows(e.b, q, keys, false)
		return err
	}
	for len(e.parts) < n {
		e.parts = append(e.parts, nil)
		e.errs = append(e.errs, nil)
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.parts[i], e.errs[i] = appendJSONRows(e.parts[i][:0], q, keys[i*len(keys)/n:(i+1)*len(keys)/n], true)
		}()
	}
	var err error
	e.b, err = appendJSONRows(e.b, q, keys[:len(keys)/n], false)
	wg.Wait()
	if err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		if e.errs[i] != nil {
			return e.errs[i]
		}
		e.b = append(e.b, e.parts[i]...)
	}
	return nil
}

// appendJSONRows appends the rows of keys, comma-separated, with a
// leading comma if more is true.
func appendJSONRows(b []byte, q map[StateKey][]float64, keys []StateKey, more bool) ([]byte, error) {
	for i, k := range keys {
		if more || i > 0 {
			b = append(b, ',')
		}
		b = appendJSONKey(b, k)
		row := q[k]
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendJSONFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return b, nil
}

// appendJSONKey appends state k as a quoted decimal object key and
// its colon.
func appendJSONKey(b []byte, k StateKey) []byte {
	b = append(b, '"')
	b = strconv.AppendUint(b, uint64(k), 10)
	return append(b, '"', ':')
}

// appendJSONFloat appends f as encoding/json formats a float64.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, nil
}

// appendJSONString appends s as encoding/json escapes a string.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// pow10 holds 10^0 … 10^19.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// keyOrder is a table's keys in decimal-string order, the order
// json.Marshal writes map keys in, and the scratch that sorts them.
type keyOrder struct {
	keys   []StateKey
	packed []uint64
}

// sortKeys sets o to m's keys in decimal-string order and returns them.
// A key of at most 16 digits packs into one uint64 that sorts as its
// string: its digits padded with zeros to 16, then its digit count,
// which puts "1" before "10". Longer keys, which no state space here
// produces, sort by their strings.
func sortKeys[V any](o *keyOrder, m map[StateKey]V) []StateKey {
	o.keys, o.packed = o.keys[:0], o.packed[:0]
	for k := range m {
		o.keys = append(o.keys, k)
	}
	for _, k := range o.keys {
		if uint64(k) >= pow10[16] {
			slices.SortFunc(o.keys, func(x, y StateKey) int {
				var bx, by [20]byte
				return bytes.Compare(strconv.AppendUint(bx[:0], uint64(x), 10), strconv.AppendUint(by[:0], uint64(y), 10))
			})
			return o.keys
		}
		digits := uint64(1)
		for uint64(k) >= pow10[digits] {
			digits++
		}
		o.packed = append(o.packed, uint64(k)*pow10[16-digits]<<5|digits)
	}
	slices.Sort(o.packed)
	for i, p := range o.packed {
		o.keys[i] = StateKey(p >> 5 / pow10[16-p&31])
	}
	return o.keys
}
