package store

// Dataset loading: anywhere a command takes a dataset path it accepts
// either the lbsgen JSON export (parsed and rebuilt, the cold path)
// or a .lbspack (one scan, the warm path). The extension decides.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// DatasetTuple is the JSON tuple shape lbsgen writes.
type DatasetTuple struct {
	ID       int64              `json:"id"`
	X        float64            `json:"x"`
	Y        float64            `json:"y"`
	Name     string             `json:"name,omitempty"`
	Category string             `json:"category,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Tags     map[string]string  `json:"tags,omitempty"`
}

// Dataset is the JSON dataset shape lbsgen writes.
type Dataset struct {
	Scenario string  `json:"scenario"`
	MinX     float64 `json:"min_x"`
	MinY     float64 `json:"min_y"`
	MaxX     float64 `json:"max_x"`
	MaxY     float64 `json:"max_y"`
	// Metric names the distance metric the coordinates are laid out for
	// (euclidean | haversine); absent in pre-geodesic exports, which
	// load as euclidean.
	Metric string         `json:"metric,omitempty"`
	Tuples []DatasetTuple `json:"tuples"`
}

// NewDataset is the JSON dataset form of db, named name and recording
// metric: the inverse of Database. Effective locations are dropped.
func NewDataset(name string, db *lbs.Database, metric geo.Metric) *Dataset {
	b := db.Bounds()
	d := &Dataset{
		Scenario: name,
		MinX:     b.Min.X, MinY: b.Min.Y, MaxX: b.Max.X, MaxY: b.Max.Y,
		Metric: metric.String(),
	}
	for i := 0; i < db.Len(); i++ {
		t := db.Tuple(i)
		d.Tuples = append(d.Tuples, DatasetTuple{
			ID: t.ID, X: t.Loc.X, Y: t.Loc.Y,
			Name: t.Name, Category: t.Category, Attrs: t.Attrs, Tags: t.Tags,
		})
	}
	return d
}

// Database builds the in-memory database a JSON dataset describes
// (effective locations equal true locations: the JSON export does not
// carry obfuscation).
func (d *Dataset) Database() *lbs.Database {
	tuples := make([]lbs.Tuple, len(d.Tuples))
	for i, jt := range d.Tuples {
		tuples[i] = lbs.Tuple{
			ID: jt.ID, Loc: geom.Pt(jt.X, jt.Y),
			Name: jt.Name, Category: jt.Category,
			Attrs: jt.Attrs, Tags: jt.Tags,
		}
	}
	bounds := geom.Rect{Min: geom.Pt(d.MinX, d.MinY), Max: geom.Pt(d.MaxX, d.MaxY)}
	return lbs.NewDatabase(bounds, tuples)
}

// DatasetMetric probes which distance metric a dataset file records
// (pack header field or JSON "metric"; absent = Euclidean) without
// materializing the database.
func DatasetMetric(path string) (geo.Metric, error) {
	if strings.EqualFold(filepath.Ext(path), ".lbspack") {
		p, err := OpenPack(path, nil)
		if err != nil {
			return geo.Euclidean, err
		}
		defer p.Close()
		return p.Metric(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return geo.Euclidean, err
	}
	var hdr struct {
		Metric string `json:"metric"`
	}
	if err := json.Unmarshal(data, &hdr); err != nil {
		return geo.Euclidean, fmt.Errorf("store: %s: %w", path, err)
	}
	m, err := geo.ParseMetric(hdr.Metric)
	if err != nil {
		return geo.Euclidean, fmt.Errorf("store: %s: %w", path, err)
	}
	return m, nil
}

// LoadDatasetMetric opens a dataset file by extension (.lbspack through
// the store, anything else as lbsgen JSON) and returns the distance
// metric the file records (pack header field or JSON "metric"; absent
// = Euclidean), so callers can refuse to serve a dataset under the
// wrong metric. The int argument is unused, kept for the callers that
// pass it.
func LoadDatasetMetric(path string, _ int, m *Metrics) (*lbs.Database, geo.Metric, error) {
	if strings.EqualFold(filepath.Ext(path), ".lbspack") {
		db, _, metric, err := OpenDatabaseMetric(path, m)
		return db, metric, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, geo.Euclidean, err
	}
	var ds Dataset
	if err := json.Unmarshal(data, &ds); err != nil {
		return nil, geo.Euclidean, fmt.Errorf("store: %s: %w", path, err)
	}
	metric, err := geo.ParseMetric(ds.Metric)
	if err != nil {
		return nil, geo.Euclidean, fmt.Errorf("store: %s: %w", path, err)
	}
	return ds.Database(), metric, nil
}
