// Package store is the durable storage engine: a paged heap-file
// database format (.lbspack) that an open reads once into the
// in-memory index, a write-ahead log for live-overlay mutations, and
// durable job and cache state — everything lbsserve needs for crash-consistent warm
// restarts. The split follows the write/read separation Polynesia
// argues for: mutations land in a write-optimized append-only log,
// queries scan a read-optimized immutable pack, and checkpointing
// moves state from one to the other.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// Tuple records use one deterministic binary encoding everywhere — in
// pack pages and in WAL frames — so a database written twice from the
// same contents is byte-identical (the bit-identity pins depend on
// it): varint ID, true and effective locations as little-endian IEEE
// bits, length-prefixed strings, and Attrs/Tags in sorted key order
// (Go map iteration order must not leak into the file).

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// minRecordSize is the shortest encoded tuple: a one-byte varint ID,
// four f64 coordinates, two empty strings and zero Attrs and Tags.
const minRecordSize = 1 + 4*8 + 1 + 1 + 1 + 1

// appendTuple encodes t with its effective (ranking) location.
func appendTuple(b []byte, t lbs.Tuple, eff geom.Point) []byte {
	b = binary.AppendVarint(b, t.ID)
	b = appendF64(b, t.Loc.X)
	b = appendF64(b, t.Loc.Y)
	b = appendF64(b, eff.X)
	b = appendF64(b, eff.Y)
	b = appendString(b, t.Name)
	b = appendString(b, t.Category)
	b = appendUvarint(b, uint64(len(t.Attrs)))
	for _, k := range sortedKeys(t.Attrs) {
		b = appendString(b, k)
		b = appendF64(b, t.Attrs[k])
	}
	b = appendUvarint(b, uint64(len(t.Tags)))
	for _, k := range sortedKeys(t.Tags) {
		b = appendString(b, k)
		b = appendString(b, t.Tags[k])
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reader is a bounds-checked cursor over an encoded record; every
// read reports malformed input instead of panicking, so corrupt pages
// and WAL frames surface as errors. With intern set, low-cardinality
// strings (categories, attribute and tag keys, tag values) decode to
// shared instances instead of one heap copy per tuple — names stay
// per-tuple, everything else in a city repeats across millions of
// rows.
type reader struct {
	b      []byte
	i      int
	intern map[string]string
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint at offset %d", r.i)
	}
	r.i += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", r.i)
	}
	r.i += n
	return v, nil
}

func (r *reader) f64() (float64, error) {
	if r.i+8 > len(r.b) {
		return 0, fmt.Errorf("truncated float at offset %d", r.i)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:]))
	r.i += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.b)-r.i) < n {
		return "", fmt.Errorf("truncated string (%d bytes) at offset %d", n, r.i)
	}
	s := string(r.b[r.i : r.i+int(n)])
	r.i += int(n)
	return s, nil
}

// strShared decodes a string through the intern table (falling back to
// str without one). The map lookup on the raw bytes is allocation-free
// on a hit, so repeated values cost no heap copies.
func (r *reader) strShared() (string, error) {
	if r.intern == nil {
		return r.str()
	}
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.b)-r.i) < n {
		return "", fmt.Errorf("truncated string (%d bytes) at offset %d", n, r.i)
	}
	b := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	if s, ok := r.intern[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	r.intern[s] = s
	return s, nil
}

func (r *reader) point() (geom.Point, error) {
	x, err := r.f64()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := r.f64()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(x, y), nil
}

// capHint bounds a decoded element count used as a map size hint: a
// corrupt count must not drive a giant allocation before the
// inevitable truncation error surfaces on the first entry read (every
// entry costs at least one input byte).
func capHint(n uint64, remaining int) int {
	if n > uint64(remaining) {
		return remaining
	}
	return int(n)
}

// tuple decodes one record written by appendTuple.
func (r *reader) tuple() (lbs.Tuple, geom.Point, error) {
	var t lbs.Tuple
	var eff geom.Point
	var err error
	if t.ID, err = r.varint(); err != nil {
		return t, eff, err
	}
	if t.Loc, err = r.point(); err != nil {
		return t, eff, err
	}
	if eff, err = r.point(); err != nil {
		return t, eff, err
	}
	if t.Name, err = r.str(); err != nil {
		return t, eff, err
	}
	if t.Category, err = r.strShared(); err != nil {
		return t, eff, err
	}
	nattrs, err := r.uvarint()
	if err != nil {
		return t, eff, err
	}
	if nattrs > 0 {
		t.Attrs = make(map[string]float64, capHint(nattrs, len(r.b)-r.i))
		for j := uint64(0); j < nattrs; j++ {
			k, err := r.strShared()
			if err != nil {
				return t, eff, err
			}
			if t.Attrs[k], err = r.f64(); err != nil {
				return t, eff, err
			}
		}
	}
	ntags, err := r.uvarint()
	if err != nil {
		return t, eff, err
	}
	if ntags > 0 {
		t.Tags = make(map[string]string, capHint(ntags, len(r.b)-r.i))
		for j := uint64(0); j < ntags; j++ {
			k, err := r.strShared()
			if err != nil {
				return t, eff, err
			}
			if t.Tags[k], err = r.strShared(); err != nil {
				return t, eff, err
			}
		}
	}
	return t, eff, nil
}
