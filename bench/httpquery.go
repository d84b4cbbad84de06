package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/store"
	"repro/internal/workload"
)

// packName is the dataset file prepare writes into its directory.
const packName = "data.lbspack"

// pointMix draws query points: a Zipf-weighted pick among hot spots
// (near tuples, so in dense areas) or, with probability 1−HotFrac, a
// uniform point in the bounds. The hot set fits the answer cache; the
// uniform tail misses it.
type pointMix struct {
	HotSpots int     `json:"hot_spots"`
	HotFrac  float64 `json:"hot_frac"`
	ZipfS    float64 `json:"zipf_s"`

	bounds geom.Rect
	hot    []geom.Point
}

// init picks the hot spots: random tuples' locations, jittered by 1 km.
func (m *pointMix) init(db *lbs.Database, rng *rand.Rand) {
	m.bounds = db.Bounds()
	m.hot = make([]geom.Point, m.HotSpots)
	for i := range m.hot {
		p := db.EffectiveLoc(rng.Intn(db.Len()))
		m.hot[i] = m.bounds.Clamp(geom.Pt(p.X+rng.NormFloat64(), p.Y+rng.NormFloat64()))
	}
}

// draw returns n query points.
func (m *pointMix) draw(rng *rand.Rand, n int) []geom.Point {
	zipf := rand.NewZipf(rng, m.ZipfS, 1, uint64(len(m.hot)-1))
	pts := make([]geom.Point, n)
	for i := range pts {
		if rng.Float64() < m.HotFrac {
			pts[i] = m.hot[zipf.Uint64()]
		} else {
			pts[i] = geom.Pt(m.bounds.Min.X+rng.Float64()*m.bounds.Width(), m.bounds.Min.Y+rng.Float64()*m.bounds.Height())
		}
	}
	return pts
}

func lrPath(q geom.Point) string {
	return "/v1/lr?x=" + strconv.FormatFloat(q.X, 'g', -1, 64) + "&y=" + strconv.FormatFloat(q.Y, 'g', -1, 64)
}

// lrAnswer is the part of a GET /v1/lr answer the checks read.
type lrAnswer struct {
	Results []struct {
		ID   int64   `json:"id"`
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
		Dist float64 `json:"dist"`
	} `json:"results"`
}

// checkRanked verifies an answer's order and distances: records rank
// by (distance, ID) under the service's rank key, and each wire
// distance is the Euclidean distance from q to the returned location.
func (a *lrAnswer) checkRanked(q geom.Point) error {
	prev, prevID := -1.0, int64(0)
	for i, r := range a.Results {
		loc := geom.Pt(r.X, r.Y)
		key := math.Sqrt(q.Dist2(loc))
		if i > 0 && (key < prev || key == prev && r.ID <= prevID) {
			return fmt.Errorf("record %d (id %d) out of (dist, id) order", i, r.ID)
		}
		if r.Dist != q.Dist(loc) {
			return fmt.Errorf("record %d (id %d): dist %v, want %v", i, r.ID, r.Dist, q.Dist(loc))
		}
		prev, prevID = key, r.ID
	}
	return nil
}

// answerHash keys an answer body by its position, for the traced-run
// identity check.
func answerHash(i int, body []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	h.Write(b[:])
	h.Write(body)
	return h.Sum64()
}

// points is a compact copy of a dataset's IDs and effective locations:
// what the answer checks need, without keeping the database (and its
// per-tuple maps) alive in the load generator's heap.
type points struct {
	ids  []int64
	locs []geom.Point
}

func pointsOf(db *lbs.Database) points {
	p := points{ids: make([]int64, db.Len()), locs: make([]geom.Point, db.Len())}
	for i := range p.ids {
		p.ids[i], p.locs[i] = db.Tuple(i).ID, db.EffectiveLoc(i)
	}
	return p
}

// bruteKNN returns the IDs of q's k nearest points, ranked by
// (distance, ID) — the reference the federated answers must equal.
func (p points) bruteKNN(q geom.Point, k int) []int64 {
	type cand struct {
		d  float64
		id int64
	}
	cs := make([]cand, len(p.ids))
	for i := range cs {
		cs[i] = cand{math.Sqrt(q.Dist2(p.locs[i])), p.ids[i]}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].d < cs[b].d || cs[a].d == cs[b].d && cs[a].id < cs[b].id })
	ids := make([]int64, min(k, len(cs)))
	for i := range ids {
		ids[i] = cs[i].id
	}
	return ids
}

// writePack stores a generated database as the .lbspack a child loads.
func writePack(dir string, db *lbs.Database) error {
	return store.WritePackMetric(filepath.Join(dir, packName), db, geo.Euclidean, 0, 0, nil)
}

// httpQuery drives single-point GET /v1/lr queries, open loop, at a
// fixed nominal rate and then up a rate ladder, against the federated
// and cached schools stack.
type httpQuery struct {
	Tuples int `json:"tuples"`
	K      int `json:"k"`
	Shards int `json:"shards"`
	Cache  int `json:"cache_entries"`
	pointMix
	RateQPS      float64 `json:"rate_qps"`
	Conns        int     `json:"conns"`
	NominalShare float64 `json:"nominal_share"`
	LadderStep   float64 `json:"ladder_step"`
	LadderRungs  int     `json:"ladder_rungs"`
	LimitMS      float64 `json:"p90_limit_ms"`
	CheckFrac    float64 `json:"brute_force_frac"`

	data       points
	nominal    time.Duration
	warm, due  []time.Duration
	warmPts    []geom.Point
	pts        []geom.Point
	checked    []bool
	ladderTime time.Duration // per rung
}

func (w *httpQuery) name() string { return "http-query" }

func (w *httpQuery) why() string {
	return "single-point HTTP queries: wire and handler dominate, a Zipf hot set hits the cache, the uniform tail misses it"
}

func (w *httpQuery) prepare(dir string, o runOptions) error {
	db := workload.USASchools(w.Tuples, o.seed).DB
	w.pointMix.init(db, rand.New(rand.NewSource(o.seed+1)))
	w.data = pointsOf(db)
	rng := rand.New(rand.NewSource(o.seed + 2))
	w.warm = poissonArrivals(rng, w.RateQPS, o.warmup)
	w.warmPts = w.draw(rng, len(w.warm))
	w.nominal = time.Duration(float64(o.seconds) * w.NominalShare)
	w.due = poissonArrivals(rng, w.RateQPS, w.nominal)
	w.pts = w.draw(rng, len(w.due))
	w.checked = make([]bool, len(w.due))
	for i := range w.checked {
		w.checked[i] = rng.Float64() < w.CheckFrac
	}
	w.ladderTime = time.Duration(float64(o.seconds) * (1 - w.NominalShare) / float64(w.LadderRungs))
	return writePack(dir, db)
}

func (w *httpQuery) stack(data, _ string) (stackConfig, error) {
	return stackConfig{Data: filepath.Join(data, packName), K: w.K, Shards: w.Shards, Cache: w.Cache}, nil
}

// getAll returns an op fetching GET /v1/lr at pts[i].
func getAll(p *pass, pts []geom.Point) func(context.Context, int) (time.Time, error) {
	return func(ctx context.Context, i int) (time.Time, error) {
		_, err := p.get(ctx, lrPath(pts[i]))
		return time.Now(), err
	}
}

func (w *httpQuery) drive(ctx context.Context, p *pass) error {
	p.load = newLoadClient(w.Conns, p.tr)
	openLoop(ctx, time.Now(), w.warm, w.Conns, getAll(p, w.warmPts))

	answers := make([]*lrAnswer, len(w.due))
	hashes := make([]uint64, len(w.due))
	var bad atomic.Int64
	var firstBad atomic.Value
	fail := func(err error) {
		bad.Add(1)
		firstBad.CompareAndSwap(nil, err.Error())
	}
	if err := p.beginMeasure(ctx, w.nominal); err != nil {
		return err
	}
	p.ops = openLoop(ctx, time.Now(), w.due, w.Conns, func(ctx context.Context, i int) (time.Time, error) {
		body, err := p.get(ctx, lrPath(w.pts[i]))
		done := time.Now()
		if err != nil {
			return done, err
		}
		hashes[i] = answerHash(i, body)
		var a lrAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return done, err
		}
		switch err := a.checkRanked(w.pts[i]); {
		case err != nil:
			fail(err)
		case len(a.Results) != w.K:
			fail(fmt.Errorf("%d records, want %d", len(a.Results), w.K))
		case w.checked[i]:
			answers[i] = &a
		}
		return done, nil
	})
	if err := p.endMeasure(ctx); err != nil {
		return err
	}
	for i, h := range hashes {
		p.answers[i] = h
	}
	p.check("answers ranked, k records each", bad.Load() == 0, "%d bad of %d; first: %v", bad.Load(), len(p.ops), firstBad.Load())
	w.ladder(ctx, p)
	w.bruteForce(p, answers)
	return nil
}

// ladder raises the offered rate by LadderStep per rung until p90
// latency misses LimitMS (or a request fails), and reports the
// interpolated rate at which the limit is met. A growing backlog shows
// as latency from due time, so it fails a rung too. The ladder limits
// p90, not p99: below saturation, p99 on a shared two-core machine is
// set by multi-millisecond scheduling and GC stalls at any rate, so it
// does not rise with load until the backlog does.
func (w *httpQuery) ladder(ctx context.Context, p *pass) {
	p90 := percentile(latencies(p.ops), 90)
	rungs := []rung{{Rate: w.RateQPS, MS: p90, Pass: p90 <= w.LimitMS && failures(p.ops) == 0}}
	rate := w.RateQPS
	for r := 0; r < w.LadderRungs && rungs[len(rungs)-1].Pass && ctx.Err() == nil; r++ {
		rate *= w.LadderStep
		// Each rung's inputs depend on the seed and the rung alone.
		rng := rand.New(rand.NewSource(p.opts.seed*1_000 + 100 + int64(r)))
		due := poissonArrivals(rng, rate, w.ladderTime)
		ss := openLoop(ctx, time.Now(), due, w.Conns, getAll(p, w.draw(rng, len(due))))
		p90 := percentile(latencies(ss), 90)
		rungs = append(rungs, rung{Rate: rate, MS: p90, Pass: p90 <= w.LimitMS && failures(ss) == 0})
		p.setInfo(fmt.Sprintf("ladder_%.0fqps_p90_ms", rate), "ms", p90, len(ss))
	}
	qps, resolved := ladderMax(rungs, w.LimitMS)
	unit := "q/s"
	if !resolved {
		unit = "q/s (bound, ladder unresolved)"
	}
	p.info["query_max_qps"] = metric{Value: qps, Unit: unit, N: len(rungs)}
}

// bruteForce compares the sampled answers with a brute-force kNN over
// the generated dataset (after the run, untimed).
func (w *httpQuery) bruteForce(p *pass, answers []*lrAnswer) {
	n, bad := 0, 0
	detail := ""
	for i, a := range answers {
		if a == nil {
			continue
		}
		n++
		want := w.data.bruteKNN(w.pts[i], w.K)
		for j, r := range a.Results {
			if j >= len(want) || r.ID != want[j] {
				bad++
				if detail == "" {
					detail = fmt.Sprintf("; query %d rank %d: id %d, want %v", i, j, r.ID, want)
				}
				break
			}
		}
	}
	p.check("sampled answers equal brute-force kNN", n > 0 && bad == 0, "%d checked, %d differ%s", n, bad, detail)
}
