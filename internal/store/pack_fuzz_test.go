package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// FuzzPackOpen opens arbitrary bytes as a .lbspack, as a warm restart
// opens the file it finds on disk: the open must return a database or
// a *CorruptError / *UnsupportedVersionError, and never panic. Seeds
// are small valid packs in both format versions, both metrics and
// page sizes 256, 4096 and 65536.
func FuzzPackOpen(f *testing.F) {
	db := lbs.NewDatabase(geom.Rect{Min: geom.Pt(-123, 37), Max: geom.Pt(-122, 38)}, []lbs.Tuple{
		{ID: 1, Loc: geom.Pt(-122.4, 37.8), Name: "cafe", Category: "food"},
		{ID: 2, Loc: geom.Pt(-122.2, 37.4), Attrs: map[string]float64{"rating": 4.5}},
		{ID: 3, Loc: geom.Pt(-122.9, 37.1), Tags: map[string]string{"open": "24h"}},
	})
	dir := f.TempDir()
	for _, pageSize := range []int{256, 4096, 65536} {
		for _, metric := range []geo.Metric{geo.Euclidean, geo.Haversine} {
			path := filepath.Join(dir, "seed.lbspack")
			if err := WritePackMetric(path, db, metric, 5, pageSize, nil); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			if metric == geo.Euclidean {
				f.Add(v1FromV2(f, data, pageSize))
			}
		}
	}

	// One file, rewritten per input: a fuzz worker runs its inputs one
	// at a time, and a fresh directory per input would dominate the
	// cost of minimizing a new one.
	path := filepath.Join(dir, "input.lbspack")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, _, err := OpenDatabaseMetric(path, nil)
		var ce *CorruptError
		var ve *UnsupportedVersionError
		switch {
		case err == nil && got == nil:
			t.Fatal("open returned neither a database nor an error")
		case err != nil && !errors.As(err, &ce) && !errors.As(err, &ve):
			t.Fatalf("open error %T (%v), want *CorruptError or *UnsupportedVersionError", err, err)
		}
	})
}
