package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// TestLoadDatasetBothFormats pins that the same scenario loaded from
// the lbsgen JSON export and from a .lbspack answers identically —
// .lbspack is a drop-in wherever a dataset path is taken — and that
// both record the scenario's metric.
func TestLoadDatasetBothFormats(t *testing.T) {
	for _, name := range []string{"schools", "geo-us"} {
		sc, err := workload.ByName(name, 150, 3, "")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()

		packPath := filepath.Join(dir, "city.lbspack")
		if err := WritePackMetric(packPath, sc.DB, sc.Metric, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(NewDataset(sc.Name, sc.DB, sc.Metric))
		if err != nil {
			t.Fatal(err)
		}
		jsonPath := filepath.Join(dir, "city.json")
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			t.Fatal(err)
		}

		fromPack, packMetric, err := LoadDatasetMetric(packPath, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, jsonMetric, err := LoadDatasetMetric(jsonPath, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if packMetric != sc.Metric || jsonMetric != sc.Metric {
			t.Fatalf("%s: metric %s from the pack, %s from JSON, want %s", name, packMetric, jsonMetric, sc.Metric)
		}
		sameTuples(t, sc.DB, fromPack)
		sameTuples(t, fromJSON, fromPack)
		sameAnswers(t, fromJSON, fromPack, 5)
	}
}
