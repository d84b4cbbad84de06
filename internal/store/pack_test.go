package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// roundTrip packs db and opens it back.
func roundTrip(t *testing.T, db *lbs.Database, epoch uint64, pageSize int) (*lbs.Database, uint64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.lbspack")
	if err := WritePackMetric(path, db, geo.Euclidean, epoch, pageSize, nil); err != nil {
		t.Fatalf("WritePackMetric: %v", err)
	}
	got, gotEpoch, _, err := OpenDatabaseMetric(path, nil)
	if err != nil {
		t.Fatalf("OpenDatabaseMetric: %v", err)
	}
	return got, gotEpoch
}

// sameAnswers pins the (dist, ID) bit-identity contract: both
// databases answer LR and LNR queries with identical records.
func sameAnswers(t *testing.T, want, got *lbs.Database, k int) {
	t.Helper()
	ws := lbs.NewService(want, lbs.Options{K: k})
	gs := lbs.NewService(got, lbs.Options{K: k})
	b := want.Bounds()
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		q := geom.Pt(
			b.Min.X+(b.Max.X-b.Min.X)*float64(i%8)/7,
			b.Min.Y+(b.Max.Y-b.Min.Y)*float64(i/8)/7,
		)
		wr, err := ws.QueryLR(ctx, q, nil)
		if err != nil {
			t.Fatalf("QueryLR(want): %v", err)
		}
		gr, err := gs.QueryLR(ctx, q, nil)
		if err != nil {
			t.Fatalf("QueryLR(got): %v", err)
		}
		if len(wr) != len(gr) {
			t.Fatalf("q%d: LR lengths differ: %d vs %d", i, len(wr), len(gr))
		}
		for j := range wr {
			if wr[j].ID != gr[j].ID || wr[j].Dist != gr[j].Dist {
				t.Fatalf("q%d record %d: LR (dist,ID) differ: (%v,%d) vs (%v,%d)",
					i, j, wr[j].Dist, wr[j].ID, gr[j].Dist, gr[j].ID)
			}
		}
		wn, err := ws.QueryLNR(ctx, q, nil)
		if err != nil {
			t.Fatalf("QueryLNR(want): %v", err)
		}
		gn, err := gs.QueryLNR(ctx, q, nil)
		if err != nil {
			t.Fatalf("QueryLNR(got): %v", err)
		}
		if len(wn) != len(gn) {
			t.Fatalf("q%d: LNR lengths differ: %d vs %d", i, len(wn), len(gn))
		}
		for j := range wn {
			if wn[j].ID != gn[j].ID {
				t.Fatalf("q%d record %d: LNR IDs differ: %d vs %d", i, j, wn[j].ID, gn[j].ID)
			}
		}
	}
}

// sameTuples pins tuple-level identity, effective locations included.
func sameTuples(t *testing.T, want, got *lbs.Database) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("lengths differ: %d vs %d", want.Len(), got.Len())
	}
	if want.Bounds() != got.Bounds() {
		t.Fatalf("bounds differ: %+v vs %+v", want.Bounds(), got.Bounds())
	}
	for i := 0; i < want.Len(); i++ {
		id := want.Tuple(i).ID
		wt, _ := want.ByID(id)
		gt, ok := got.ByID(id)
		if !ok {
			t.Fatalf("tuple %d missing after round trip", id)
		}
		if wt.Loc != gt.Loc || wt.Name != gt.Name || wt.Category != gt.Category {
			t.Fatalf("tuple %d differs: %+v vs %+v", id, wt, gt)
		}
		if len(wt.Attrs) != len(gt.Attrs) || len(wt.Tags) != len(gt.Tags) {
			t.Fatalf("tuple %d attr/tag counts differ", id)
		}
		for k, v := range wt.Attrs {
			if gt.Attrs[k] != v {
				t.Fatalf("tuple %d attr %q: %v vs %v", id, k, v, gt.Attrs[k])
			}
		}
		for k, v := range wt.Tags {
			if gt.Tags[k] != v {
				t.Fatalf("tuple %d tag %q: %v vs %v", id, k, v, gt.Tags[k])
			}
		}
		we, _ := want.EffectiveByID(id)
		ge, _ := got.EffectiveByID(id)
		if we != ge {
			t.Fatalf("tuple %d effective location differs: %v vs %v", id, we, ge)
		}
	}
}

func TestPackRoundTripBitIdentical(t *testing.T) {
	sc := workload.USASchools(500, 7)
	got, epoch := roundTrip(t, sc.DB, 0, 0)
	if epoch != 0 {
		t.Fatalf("epoch = %d, want 0", epoch)
	}
	sameTuples(t, sc.DB, got)
	sameAnswers(t, sc.DB, got, 10)
}

func TestPackRoundTripObfuscated(t *testing.T) {
	// WeChat obfuscates: effective locations differ from true ones, and
	// the pack must carry both verbatim.
	sc := workload.WeChatChina(400, 11)
	shifted := false
	for i := 0; i < sc.DB.Len() && !shifted; i++ {
		shifted = sc.DB.EffectiveLoc(i) != sc.DB.Tuple(i).Loc
	}
	if !shifted {
		t.Fatal("scenario not obfuscated; test is vacuous")
	}
	got, _ := roundTrip(t, sc.DB, 42, 512)
	sameTuples(t, sc.DB, got)
	sameAnswers(t, sc.DB, got, 10)
}

func TestPackDeterministicBytes(t *testing.T) {
	sc := workload.USASchools(200, 3)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := WritePackMetric(a, sc.DB, geo.Euclidean, 5, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := WritePackMetric(b, sc.DB, geo.Euclidean, 5, 0, nil); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	dbb, _ := os.ReadFile(b)
	if string(da) != string(dbb) {
		t.Fatal("same database packed twice produced different bytes")
	}
}

// TestPackPageSizeLimit pins the u16 used-byte count of a data page:
// a page larger than 64 KiB is refused at write time (it would write a
// pack that cannot be read back) and reported as corrupt at open.
func TestPackPageSizeLimit(t *testing.T) {
	sc := workload.USASchools(2000, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, 1<<17, nil); err == nil {
		t.Fatal("WritePackMetric accepted a 128 KiB page")
	}
	got, _ := roundTrip(t, sc.DB, 0, 1<<16)
	sameTuples(t, sc.DB, got)

	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, 1<<16, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[12:], 1<<17)
	binary.LittleEndian.PutUint32(data[headerSize-4:], crc32.ChecksumIEEE(data[:headerSize-4]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenPack(path, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("128 KiB header page size: err = %v, want *CorruptError", err)
	}
}

// TestPackForgedCountCorrupt: the header's record count sizes the
// reader's tuple slice, so a count the data pages cannot hold — here
// 1<<62 with the header checksum recomputed — is a *CorruptError at
// open, not a makeslice panic or an allocation the file cannot back.
func TestPackForgedCountCorrupt(t *testing.T) {
	sc := workload.USASchools(100, 5)
	path := filepath.Join(t.TempDir(), "db.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, 512, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint64{1 << 62, uint64(len(data))} {
		binary.LittleEndian.PutUint64(data[16:], count)
		binary.LittleEndian.PutUint32(data[headerSize-4:], crc32.ChecksumIEEE(data[:headerSize-4]))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err = OpenDatabaseMetric(path, nil)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("header count %d: err = %v, want *CorruptError", count, err)
		}
	}
}

// TestPackCountBoundedByRecordSize: a record takes at least
// minRecordSize bytes and never spans pages, so a 4 KiB page holds at
// most 110 of them. A header claiming one record per byte of data
// pages, which a one-byte-per-record bound would admit, is refused
// when the pack is opened, before any tuple slice is sized from it.
func TestPackCountBoundedByRecordSize(t *testing.T) {
	sc := workload.USASchools(100, 5)
	path := filepath.Join(t.TempDir(), "db.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	npages := len(data)/4096 - 1
	binary.LittleEndian.PutUint64(data[16:], uint64(npages*4096))
	binary.LittleEndian.PutUint32(data[headerSize-4:], crc32.ChecksumIEEE(data[:headerSize-4]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPack(path, nil)
	if err == nil {
		p.Close()
		t.Fatalf("OpenPack accepted a header count of %d records in %d data pages", npages*4096, npages)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestPackCorruptionTyped(t *testing.T) {
	sc := workload.USASchools(300, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, 512, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in every page (header included), one variant per
	// page: open+scan must fail with *CorruptError, never panic, never
	// silently succeed with different contents.
	for page := 0; page*512 < len(data); page++ {
		mut := append([]byte(nil), data...)
		off := page*512 + 100
		if page == 0 {
			// Page 0 is the header; only its first headerSize bytes are
			// checksummed, the rest is padding. Hit the bounds field.
			off = 24
		}
		mut[off] ^= 0x40
		bad := filepath.Join(dir, "bad.lbspack")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := OpenDatabaseMetric(bad, nil)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("page %d flip: err = %v, want *CorruptError", page, err)
		}
	}
	// Truncation is corruption too.
	if err := os.WriteFile(path, data[:len(data)-512], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = OpenDatabaseMetric(path, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated pack: err = %v, want *CorruptError", err)
	}
}

func TestNewDatabaseFromStoreRejectsDuplicateIDs(t *testing.T) {
	dup := dupSource{}
	if _, err := lbs.NewDatabaseFromStore(dup); err == nil {
		t.Fatal("duplicate IDs must be an error, not a panic downstream")
	}
}

type dupSource struct{}

func (dupSource) Bounds() geom.Rect { return geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)} }
func (dupSource) Len() int          { return 2 }
func (dupSource) Scan(fn func(lbs.Tuple, geom.Point) error) error {
	for i := 0; i < 2; i++ {
		if err := fn(lbs.Tuple{ID: 7, Loc: geom.Pt(0.5, 0.5)}, geom.Pt(0.5, 0.5)); err != nil {
			return err
		}
	}
	return nil
}

// TestPackScanNamesFailingPage: Scan reads runs of pages together, yet
// a bad checksum or a short read inside a run is still reported for
// the page it hits, after every record of the pages before it, and
// PagesRead counts only the pages that passed.
func TestPackScanNamesFailingPage(t *testing.T) {
	sc := workload.USASchools(20000, 13)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.lbspack")
	if err := WritePackMetric(path, sc.DB, geo.Euclidean, 0, DefaultPageSize, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	npages := len(data)/DefaultPageSize - 1
	per := scanChunk / DefaultPageSize
	if npages < 2*per {
		t.Fatalf("%d data pages, want at least two runs of %d", npages, per)
	}
	// recordsBefore counts the records of the data pages before n.
	recordsBefore := func(n int) int {
		c := 0
		for i := 0; i < n; i++ {
			c += int(binary.LittleEndian.Uint16(data[(i+1)*DefaultPageSize+4:]))
		}
		return c
	}
	scan := func(file string, cut int) (*CorruptError, int, uint64) {
		t.Helper()
		var m Metrics
		p, err := OpenPack(file, &m)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if cut > 0 {
			// Shrink the file under the open pack: OpenPack checked the
			// size, so only the scan's reads can see it.
			if err := os.Truncate(file, int64(cut)); err != nil {
				t.Fatal(err)
			}
		}
		calls := 0
		err = p.Scan(func(lbs.Tuple, geom.Point) error { calls++; return nil })
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorruptError", err)
		}
		return ce, calls, m.PagesRead.Load()
	}
	for _, bad := range []int{0, per - 1, per, per + per/2, npages - 1} {
		mut := append([]byte(nil), data...)
		mut[(bad+1)*DefaultPageSize+100] ^= 0x40
		file := filepath.Join(dir, "flip.lbspack")
		if err := os.WriteFile(file, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		ce, calls, read := scan(file, 0)
		if want := fmt.Sprintf("page %d checksum", bad); !strings.HasPrefix(ce.Detail, want) {
			t.Errorf("flip in page %d: %q, want prefix %q", bad, ce.Detail, want)
		}
		if calls != recordsBefore(bad) || read != uint64(bad) {
			t.Errorf("flip in page %d: %d records, %d pages read; want %d, %d", bad, calls, read, recordsBefore(bad), bad)
		}
	}
	for _, short := range []int{per / 2, per + 3} {
		file := filepath.Join(dir, "short.lbspack")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Cut page short mid-page: it and every page after it are gone.
		ce, calls, read := scan(file, (short+1)*DefaultPageSize+DefaultPageSize/2)
		if want := fmt.Sprintf("page %d: ", short); !strings.HasPrefix(ce.Detail, want) {
			t.Errorf("short page %d: %q, want prefix %q", short, ce.Detail, want)
		}
		if calls != recordsBefore(short) || read != uint64(short) {
			t.Errorf("short page %d: %d records, %d pages read; want %d, %d", short, calls, read, recordsBefore(short), short)
		}
	}
}
