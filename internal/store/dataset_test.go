package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geo"
	"repro/internal/workload"
)

// TestLoadDatasetBothFormats pins that the same scenario loaded from
// the lbsgen JSON export and from a .lbspack answers identically —
// .lbspack is a drop-in wherever a dataset path is taken.
func TestLoadDatasetBothFormats(t *testing.T) {
	sc := workload.USASchools(150, 3)
	dir := t.TempDir()

	packPath := filepath.Join(dir, "city.lbspack")
	if err := WritePackMetric(packPath, sc.DB, geo.Euclidean, 0, 0, nil); err != nil {
		t.Fatal(err)
	}

	ds := Dataset{
		Scenario: sc.Name,
		MinX:     sc.Bounds.Min.X, MinY: sc.Bounds.Min.Y,
		MaxX: sc.Bounds.Max.X, MaxY: sc.Bounds.Max.Y,
	}
	for i := 0; i < sc.DB.Len(); i++ {
		tp := sc.DB.Tuple(i)
		ds.Tuples = append(ds.Tuples, DatasetTuple{
			ID: tp.ID, X: tp.Loc.X, Y: tp.Loc.Y,
			Name: tp.Name, Category: tp.Category, Attrs: tp.Attrs, Tags: tp.Tags,
		})
	}
	data, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "city.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fromPack, _, err := LoadDatasetMetric(packPath, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, _, err := LoadDatasetMetric(jsonPath, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, sc.DB, fromPack)
	sameTuples(t, fromJSON, fromPack)
	sameAnswers(t, fromJSON, fromPack, 5)
}
