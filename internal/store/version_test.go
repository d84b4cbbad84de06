package store

// Pack format version negotiation and the v2 metric header field:
// v2 Haversine packs round-trip their metric, hand-crafted v1 packs
// (the pre-geodesic 68-byte header) still open and report Euclidean,
// and an unknown version fails with *UnsupportedVersionError before
// any checksum is interpreted — never a misleading *CorruptError.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geo"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

func TestPackMetricRoundTrip(t *testing.T) {
	sc := workload.USASchools(300, 13)
	dir := t.TempDir()
	for _, m := range []geo.Metric{geo.Euclidean, geo.Haversine} {
		path := filepath.Join(dir, m.String()+".lbspack")
		if err := WritePackMetric(path, sc.DB, m, 7, 512, nil); err != nil {
			t.Fatalf("WritePackMetric(%s): %v", m, err)
		}
		p, err := OpenPack(path, nil)
		if err != nil {
			t.Fatalf("OpenPack(%s): %v", m, err)
		}
		if got := p.Metric(); got != m {
			t.Fatalf("pack metric = %s, want %s", got, m)
		}
		p.Close()
		db, epoch, got, err := OpenDatabaseMetric(path, nil)
		if err != nil {
			t.Fatalf("OpenDatabaseMetric(%s): %v", m, err)
		}
		if got != m || epoch != 7 {
			t.Fatalf("OpenDatabaseMetric = (%s, %d), want (%s, 7)", got, epoch, m)
		}
		sameTuples(t, sc.DB, db)
	}
}

// v1FromV2 rewrites a v2 Euclidean pack's header page into the
// format-1 layout: same fields minus the metric byte (68 bytes),
// version field 1, checksum recomputed. Data pages are untouched —
// the record codec did not change between formats.
func v1FromV2(t testing.TB, data []byte, pageSize int) []byte {
	t.Helper()
	mut := append([]byte(nil), data...)
	hdr := make([]byte, 0, headerSizeV1)
	hdr = append(hdr, mut[:8]...) // magic
	hdr = binary.LittleEndian.AppendUint32(hdr, 1)
	hdr = append(hdr, mut[12:64]...) // pageSize, count, epoch, bounds
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if len(hdr) != headerSizeV1 {
		t.Fatalf("crafted v1 header is %d bytes, want %d", len(hdr), headerSizeV1)
	}
	for i := 0; i < pageSize; i++ {
		mut[i] = 0
	}
	copy(mut, hdr)
	return mut
}

func TestPackV1ReadsBackAsEuclidean(t *testing.T) {
	sc := workload.USASchools(250, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "v2.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 3, 512, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(dir, "v1.lbspack")
	if err := os.WriteFile(v1Path, v1FromV2(t, data, 512), 0o644); err != nil {
		t.Fatal(err)
	}
	db, epoch, metric, err := OpenDatabaseMetric(v1Path, nil)
	if err != nil {
		t.Fatalf("OpenDatabaseMetric(v1): %v", err)
	}
	if metric != geo.Euclidean {
		t.Fatalf("v1 pack metric = %s, want euclidean", metric)
	}
	if epoch != 3 {
		t.Fatalf("v1 pack epoch = %d, want 3", epoch)
	}
	sameTuples(t, sc.DB, db)
	sameAnswers(t, sc.DB, db, 10)
}

func TestPackUnknownVersionTyped(t *testing.T) {
	sc := workload.USASchools(100, 2)
	path := filepath.Join(t.TempDir(), "db.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, 512, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Stamp a future version WITHOUT touching the checksum: the version
	// check must run first, so the stale crc is never interpreted and
	// the error is a version mismatch, not a bogus corruption report.
	binary.LittleEndian.PutUint32(data[8:], 9)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenPack(path, nil)
	var ve *UnsupportedVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *UnsupportedVersionError", err)
	}
	if ve.Version != 9 || ve.Max != packVersion {
		t.Fatalf("UnsupportedVersionError = %+v, want Version 9 Max %d", ve, packVersion)
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		t.Fatalf("version mismatch misreported as corruption: %v", err)
	}
}

func TestPackUnknownMetricByteCorrupt(t *testing.T) {
	sc := workload.USASchools(100, 2)
	path := filepath.Join(t.TempDir(), "db.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, 512, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[64] = 7 // not a metric this or any format defines
	binary.LittleEndian.PutUint32(data[headerSize-4:], crc32.ChecksumIEEE(data[:headerSize-4]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenPack(path, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestStoreRefusesMetricMismatch(t *testing.T) {
	dir := t.TempDir()
	gen := func() *lbs.Database { return workload.USASchools(80, 4).DB }

	s, err := Open(dir, Options{Metric: geo.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if _, warm, err := s.OpenOrCreateDatabase(gen); err != nil || warm {
		t.Fatalf("cold open: warm=%v err=%v", warm, err)
	}

	// Same directory reopened under the other metric: the warm pack was
	// laid out for Euclidean coordinates and must be refused.
	s2, err := Open(dir, Options{Metric: geo.Haversine})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.OpenOrCreateDatabase(gen); err == nil {
		t.Fatal("haversine store opened a euclidean pack without complaint")
	}

	// The matching metric still opens warm.
	s3, err := Open(dir, Options{Metric: geo.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if _, warm, err := s3.OpenOrCreateDatabase(gen); err != nil || !warm {
		t.Fatalf("warm reopen: warm=%v err=%v", warm, err)
	}

	// A live store opens its pack through the same check: packed under
	// Euclidean, reopened live under Haversine, it must refuse.
	liveDir := t.TempDir()
	lopen := func(m geo.Metric) error {
		st, err := Open(liveDir, Options{Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.OpenLive(gen, lbs.Options{K: 5}, live.Options{CompactThreshold: -1}); err != nil {
			return err
		}
		return st.Close()
	}
	if err := lopen(geo.Euclidean); err != nil {
		t.Fatalf("cold live open: %v", err)
	}
	if err := lopen(geo.Haversine); err == nil {
		t.Fatal("haversine live store opened a euclidean pack without complaint")
	}
}
