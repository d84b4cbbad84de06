package store

// The .lbspack heap file: page 0 is the header, pages 1..N hold tuple
// records back to back (records never span pages). Every page carries
// a CRC32 over its contents, so a torn write or flipped bit surfaces
// as a typed *CorruptError at open or scan time — never a silently
// wrong database. A page is at most 64 KiB: its used-byte count is a
// u16.
//
// A pack is a warm-restart format, not a disk-resident index: an open
// reads it once, front to back, into the in-memory kd-tree that
// answers every query.
//
//	page 0 (header)                    data page
//	┌──────────────────────────┐      ┌─────────────────────────┐
//	│ magic   "LBSPACK1"   8 B │      │ crc32 (rest of page) 4 B│
//	│ version u32              │      │ nrecs u16   used u16    │
//	│ pageSize u32             │      │ records … zero padding  │
//	│ count    u64             │      └─────────────────────────┘
//	│ epoch    u64             │
//	│ bounds   4×f64           │
//	│ crc32 (bytes above)      │
//	└──────────────────────────┘
//
// epoch is the live-database epoch the pack captures: 0 for a cold
// ingest, the checkpoint epoch for a pack written by LiveStore (WAL
// replay resumes from it).
//
// Record order is significant: tuples are stored in the kd-tree
// preorder of their effective locations, which lets the reader
// rebuild the index in O(n) (kdtree.BuildPreordered) instead of
// re-running median selection. The order is protected by the same
// page checksums as the data.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

const (
	packMagic       = "LBSPACK1"
	packVersion     = 2
	DefaultPageSize = 4096
	minPageSize     = 256
	// maxPageSize is the largest page whose used-byte count fits the
	// data page header's u16.
	maxPageSize = 1 << 16
	// headerSizeV1 is the format-1 header: no metric byte. v1 packs
	// remain readable (their metric is Euclidean by definition — the
	// format predates geodesic mode).
	headerSizeV1 = 8 + 4 + 4 + 8 + 8 + 4*8 + 4
	// headerSize is the format-2 header: a metric byte sits between
	// the bounds and the checksum.
	headerSize  = 8 + 4 + 4 + 8 + 8 + 4*8 + 1 + 4
	pageHdrSize = 4 + 2 + 2 // crc, nrecs, used
)

// CorruptError is the typed failure of every integrity check in this
// package: bad magic, checksum mismatch, truncated page, record count
// drift. Callers distinguish "the file is damaged" (recoverable by
// re-ingest or by accepting a WAL prefix) from I/O errors.
type CorruptError struct {
	Path   string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: corrupt: %s", e.Path, e.Detail)
}

func corrupt(path, format string, args ...any) error {
	return &CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
}

// UnsupportedVersionError reports a structurally sound pack written by
// a format version this reader does not implement — version
// negotiation, distinct from *CorruptError: the file is not damaged,
// the reader is too old (or the version field genuinely unknown). The
// check runs before any checksum is interpreted, because the header
// length itself is version-specific — an old reader checksumming a
// new header at the wrong length would misreport a healthy file as
// corrupt.
type UnsupportedVersionError struct {
	Path    string
	Version uint32
	// Max is the newest format version this reader implements.
	Max uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("store: %s: pack format version %d not supported (reader implements ≤ %d)", e.Path, e.Version, e.Max)
}

// WritePackMetric writes db (with its effective locations) as a
// .lbspack at path, atomically: temp file, fsync, rename. epoch and
// the distance metric of the service stack the pack feeds are
// recorded in the header (format v2); a pageSize ≤ 0 writes
// DefaultPageSize pages. The same database always produces the same
// bytes.
func WritePackMetric(path string, db *lbs.Database, metric geo.Metric, epoch uint64, pageSize int, m *Metrics) error {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < minPageSize || pageSize > maxPageSize {
		return fmt.Errorf("store: page size %d outside [%d, %d]", pageSize, minPageSize, maxPageSize)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	defer f.Close()

	b := db.Bounds()
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, packMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, packVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(pageSize))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(db.Len()))
	hdr = binary.LittleEndian.AppendUint64(hdr, epoch)
	for _, v := range []float64{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y} {
		hdr = appendF64(hdr, v)
	}
	hdr = append(hdr, byte(metric))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	page := make([]byte, pageSize)
	copy(page, hdr)
	if _, err := f.Write(page); err != nil {
		return err
	}
	if m != nil {
		m.PagesWritten.Add(1)
	}

	// Fill data pages: append records until one does not fit, seal the
	// page (crc + counts), start the next.
	var rec []byte
	nrecs, used := 0, 0
	payload := page[pageHdrSize:]
	seal := func() error {
		binary.LittleEndian.PutUint16(page[4:], uint16(nrecs))
		binary.LittleEndian.PutUint16(page[6:], uint16(used))
		binary.LittleEndian.PutUint32(page[0:], crc32.ChecksumIEEE(page[4:]))
		if _, err := f.Write(page); err != nil {
			return err
		}
		if m != nil {
			m.PagesWritten.Add(1)
		}
		for i := range page {
			page[i] = 0
		}
		nrecs, used = 0, 0
		return nil
	}
	// Records go out in the database's kd-tree preorder: the balanced
	// median build makes tree shape a pure function of the point count,
	// so a reader that trusts this order (Pack advertises it via
	// KDPreordered) rebuilds the index in O(n) instead of re-running
	// median selection. Preorder of a rebuilt tree is the stored order
	// itself, so checkpoint → reopen → checkpoint cycles are stable.
	for _, i := range db.KDPreorder() {
		rec = appendTuple(rec[:0], *db.Tuple(i), db.EffectiveLoc(i))
		if len(rec) > len(payload) {
			return fmt.Errorf("store: tuple %d encodes to %d bytes, larger than a %d-byte page", db.Tuple(i).ID, len(rec), pageSize)
		}
		if used+len(rec) > len(payload) {
			if err := seal(); err != nil {
				return err
			}
		}
		copy(payload[used:], rec)
		used += len(rec)
		nrecs++
	}
	if nrecs > 0 {
		if err := seal(); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Pack is an open .lbspack: the header fields plus the file handle
// the data pages are read from. It implements lbs.TupleSource, so
// lbs.NewDatabaseFromStore builds the kd-tree from one front-to-back
// scan that holds at most scanChunk bytes of pages in memory at a time.
type Pack struct {
	f        *os.File
	path     string
	pageSize int
	count    uint64
	epoch    uint64
	bounds   geom.Rect
	metric   geo.Metric
	npages   int
	m        *Metrics
}

// OpenPack opens and validates a .lbspack; m (may be nil) counts the
// pages a Scan reads.
//
// Version negotiation runs on a short magic+version probe before the
// header checksum is interpreted: the header length is
// version-specific, so checksumming first would misreport a healthy
// newer-format file as corrupt. A version this reader does not
// implement is a typed *UnsupportedVersionError; format-1 packs open
// fine and report geo.Euclidean (the format predates geodesic mode).
func OpenPack(path string, m *Metrics) (*Pack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	probe := make([]byte, 12)
	if _, err := f.ReadAt(probe, 0); err != nil {
		f.Close()
		return nil, corrupt(path, "short header: %v", err)
	}
	if string(probe[:8]) != packMagic {
		f.Close()
		return nil, corrupt(path, "bad magic %q", probe[:8])
	}
	version := binary.LittleEndian.Uint32(probe[8:])
	hdrSize := 0
	switch version {
	case 1:
		hdrSize = headerSizeV1
	case 2:
		hdrSize = headerSize
	default:
		f.Close()
		return nil, &UnsupportedVersionError{Path: path, Version: version, Max: packVersion}
	}
	hdr := make([]byte, hdrSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, corrupt(path, "short header: %v", err)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[hdrSize-4:])
	if got := crc32.ChecksumIEEE(hdr[:hdrSize-4]); got != wantCRC {
		f.Close()
		return nil, corrupt(path, "header checksum %08x, want %08x", got, wantCRC)
	}
	p := &Pack{
		f:        f,
		path:     path,
		pageSize: int(binary.LittleEndian.Uint32(hdr[12:])),
		count:    binary.LittleEndian.Uint64(hdr[16:]),
		epoch:    binary.LittleEndian.Uint64(hdr[24:]),
		m:        m,
	}
	if version >= 2 {
		switch mb := hdr[64]; mb {
		case byte(geo.Euclidean):
			p.metric = geo.Euclidean
		case byte(geo.Haversine):
			p.metric = geo.Haversine
		default:
			f.Close()
			return nil, corrupt(path, "unknown metric byte %d", mb)
		}
	}
	if p.pageSize < minPageSize || p.pageSize > maxPageSize {
		f.Close()
		return nil, corrupt(path, "page size %d outside [%d, %d]", p.pageSize, minPageSize, maxPageSize)
	}
	bits := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(hdr[off:]))
	}
	p.bounds = geom.Rect{Min: geom.Pt(bits(32), bits(40)), Max: geom.Pt(bits(48), bits(56))}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%int64(p.pageSize) != 0 {
		f.Close()
		return nil, corrupt(path, "size %d is not a multiple of page size %d", st.Size(), p.pageSize)
	}
	p.npages = int(st.Size()/int64(p.pageSize)) - 1
	// A record takes at least minRecordSize bytes and never spans
	// pages, so the data pages bound the count; a forged count beyond
	// that would size the reader's tuple slice from the header instead
	// of the file.
	if p.count > uint64(p.npages)*uint64((p.pageSize-pageHdrSize)/minRecordSize) {
		f.Close()
		return nil, corrupt(path, "header says %d records, %d data pages cannot hold them", p.count, p.npages)
	}
	return p, nil
}

// scanChunk bounds the bytes one Scan read asks for: runs of
// consecutive data pages are read together, up to 64 pages of the
// default size.
const scanChunk = 64 * DefaultPageSize

// Bounds implements lbs.TupleSource.
func (p *Pack) Bounds() geom.Rect { return p.bounds }

// Len implements lbs.TupleSource.
func (p *Pack) Len() int { return int(p.count) }

// Metric is the distance metric recorded when the pack was written.
// Format-1 packs always report geo.Euclidean.
func (p *Pack) Metric() geo.Metric { return p.metric }

// KDPreordered implements lbs.PreorderedSource: WritePackMetric always
// records tuples in the source database's kd-tree preorder, so a
// checksum-valid pack scans in rebuild-ready order.
func (p *Pack) KDPreordered() bool { return true }

// Scan implements lbs.TupleSource: it decodes every record in file
// order, reading runs of consecutive pages into one reused buffer of at
// most scanChunk bytes (at least one page) and checking each page's
// checksum before decoding it. Decoded tuples own their strings, so
// nothing aliases the buffer. A short read, a decode error or
// record-count drift is a *CorruptError naming the first page it
// affects.
func (p *Pack) Scan(fn func(t lbs.Tuple, effective geom.Point) error) error {
	seen := uint64(0)
	intern := make(map[string]string)
	per := max(1, min(p.npages, scanChunk/p.pageSize))
	buf := make([]byte, per*p.pageSize)
	for first := 0; first < p.npages; first += per {
		run := min(per, p.npages-first)
		read, rerr := p.f.ReadAt(buf[:run*p.pageSize], int64(first+1)*int64(p.pageSize))
		for j := 0; j < run; j++ {
			n := first + j
			if (j+1)*p.pageSize > read {
				return corrupt(p.path, "page %d: %v", n, rerr)
			}
			page := buf[j*p.pageSize : (j+1)*p.pageSize]
			if want, got := binary.LittleEndian.Uint32(page), crc32.ChecksumIEEE(page[4:]); got != want {
				return corrupt(p.path, "page %d checksum %08x, want %08x", n, got, want)
			}
			if p.m != nil {
				p.m.PagesRead.Add(1)
			}
			nrecs := int(binary.LittleEndian.Uint16(page[4:]))
			used := int(binary.LittleEndian.Uint16(page[6:]))
			if pageHdrSize+used > len(page) {
				return corrupt(p.path, "page %d: used %d overflows page", n, used)
			}
			r := &reader{b: page[pageHdrSize : pageHdrSize+used], intern: intern}
			for i := 0; i < nrecs; i++ {
				t, eff, err := r.tuple()
				if err != nil {
					return corrupt(p.path, "page %d record %d: %v", n, i, err)
				}
				if err := fn(t, eff); err != nil {
					return err
				}
				seen++
			}
		}
	}
	if seen != p.count {
		return corrupt(p.path, "header says %d records, pages hold %d", p.count, seen)
	}
	return nil
}

// Close releases the file handle.
func (p *Pack) Close() error { return p.f.Close() }

// OpenDatabaseMetric opens path and materializes the lbs.Database it
// holds (kd-tree rebuilt from one scan), returning the recorded epoch
// and distance metric, so callers can refuse to serve a pack under a
// metric it was not written for.
func OpenDatabaseMetric(path string, m *Metrics) (*lbs.Database, uint64, geo.Metric, error) {
	p, err := OpenPack(path, m)
	if err != nil {
		return nil, 0, geo.Euclidean, err
	}
	defer p.Close()
	db, err := lbs.NewDatabaseFromStore(p)
	if err != nil {
		if _, ok := err.(*CorruptError); !ok {
			err = corrupt(path, "%v", err)
		}
		return nil, 0, geo.Euclidean, err
	}
	return db, p.epoch, p.metric, nil
}
