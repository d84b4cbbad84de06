package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// liveIngest reads (open loop, one connection) while a mutation stream
// writes (open loop, one long-lived full-duplex POST /v1/tuples:stream)
// against a durable live database that the child warm-opens from a
// pack.
type liveIngest struct {
	Tuples int `json:"tuples"`
	K      int `json:"k"`
	Cache  int `json:"cache_entries"`
	pointMix
	ReadQPS  float64 `json:"read_qps"`
	WriteOPS float64 `json:"write_ops"`
	// RadiusKM is the service's MaxRadius: the 99th percentile of the
	// k-th-neighbour distance from uniform points, so almost every
	// answer is full while a mutation's invalidation region stays local.
	RadiusKM float64 `json:"radius_km"`
	Probes   int     `json:"probes"`

	reads, writes []time.Duration // due offsets from the start of warm-up
	readPts       []geom.Point
	lines         [][]byte // the mutation stream, one NDJSON op per write
	probes        []probe  // final-state checks
}

// probe is a tuple whose final state the run checks: present at loc,
// or (deleted) absent from an answer at its last location.
type probe struct {
	id    int64
	loc   geom.Point
	alive bool
}

func (w *liveIngest) name() string { return "live-ingest" }

func (w *liveIngest) why() string {
	return "reads beside a mutation stream: overlay merge on reads, WAL appends, cache invalidation and background compaction"
}

func (w *liveIngest) prepare(dir string, o runOptions) error {
	db := workload.USASchools(w.Tuples, o.seed).DB
	rng := rand.New(rand.NewSource(o.seed + 1))
	w.pointMix.init(db, rng)
	svc := lbs.NewService(db, lbs.Options{K: w.K})
	b := db.Bounds()
	far := make([]float64, 2000)
	for i := range far {
		q := geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
		recs, err := svc.QueryLR(context.Background(), q, nil)
		if err != nil {
			return err
		}
		far[i] = recs[len(recs)-1].Dist
	}
	w.RadiusKM = percentile(far, 99)

	total := o.warmup + o.seconds
	w.reads = poissonArrivals(rng, w.ReadQPS, total)
	w.readPts = w.draw(rng, len(w.reads))
	w.writes = poissonArrivals(rng, w.WriteOPS, total)
	ops := churn.Ops(db, churn.Config{Seed: o.seed + 3}, len(w.writes))
	w.lines = make([][]byte, len(ops))
	for i, op := range ops {
		var err error
		if w.lines[i], err = encodeOp(op); err != nil {
			return err
		}
	}
	w.probes = finalProbes(db, ops, w.Probes, rng)
	return writePack(dir, db)
}

// finalProbes samples n tuples the ops left present (inserted or moved)
// and n they deleted, with their final or last locations.
func finalProbes(db *lbs.Database, ops []live.Op, n int, rng *rand.Rand) []probe {
	state := map[int64]probe{}
	var order []int64
	for _, op := range ops {
		id := op.ID
		if op.Kind == live.OpInsert {
			id = op.Tuple.ID
		}
		pr, seen := state[id]
		if !seen {
			order = append(order, id)
			pr.id = id
			pr.loc, _ = db.EffectiveByID(id)
		}
		switch op.Kind {
		case live.OpInsert:
			pr.loc, pr.alive = op.Tuple.Loc, true
		case live.OpMove:
			pr.loc, pr.alive = op.Loc, true
		case live.OpDelete:
			pr.alive = false
		}
		state[id] = pr
	}
	var present, gone []probe
	for _, id := range order {
		if pr := state[id]; pr.alive {
			present = append(present, pr)
		} else {
			gone = append(gone, pr)
		}
	}
	var out []probe
	for _, set := range [][]probe{present, gone} {
		for j := 0; j < n && len(set) > 0; j++ {
			out = append(out, set[rng.Intn(len(set))])
		}
	}
	return out
}

// stack lays the pack out as a store directory (its pack file name) in
// the pass's own directory, since the pass's writes change the store.
func (w *liveIngest) stack(data, dir string) (stackConfig, error) {
	b, err := os.ReadFile(filepath.Join(data, packName))
	if err != nil {
		return stackConfig{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "db.lbspack"), b, 0o644); err != nil {
		return stackConfig{}, err
	}
	return stackConfig{Data: dir, K: w.K, Cache: w.Cache, Radius: w.RadiusKM, Live: true}, nil
}

// wireOp is one NDJSON line of the mutation stream (the shape of
// internal/httpapi's ingest endpoint).
type wireOp struct {
	Op       string             `json:"op"`
	ID       int64              `json:"id,omitempty"`
	X        *float64           `json:"x,omitempty"`
	Y        *float64           `json:"y,omitempty"`
	Name     string             `json:"name,omitempty"`
	Category string             `json:"category,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Tags     map[string]string  `json:"tags,omitempty"`
}

func encodeOp(op live.Op) ([]byte, error) {
	var w wireOp
	switch op.Kind {
	case live.OpInsert:
		x, y := op.Tuple.Loc.X, op.Tuple.Loc.Y
		w = wireOp{Op: "insert", ID: op.Tuple.ID, X: &x, Y: &y, Name: op.Tuple.Name,
			Category: op.Tuple.Category, Attrs: op.Tuple.Attrs, Tags: op.Tuple.Tags}
	case live.OpDelete:
		w = wireOp{Op: "delete", ID: op.ID}
	case live.OpMove:
		x, y := op.Loc.X, op.Loc.Y
		w = wireOp{Op: "move", ID: op.ID, X: &x, Y: &y}
	default:
		return nil, fmt.Errorf("unknown op kind %v", op.Kind)
	}
	b, err := json.Marshal(w)
	return append(b, '\n'), err
}

type wireAck struct {
	Seq   int    `json:"seq"`
	OK    bool   `json:"ok"`
	Epoch uint64 `json:"epoch"`
	Error string `json:"error"`
}

// ack is one acknowledged op as the writer saw it.
type ack struct {
	wireAck
	at time.Time
}

// stream sends lines[i] at start+due[i] over one full-duplex POST and
// collects the acks. sent[i] is stored before line i goes out.
func stream(ctx context.Context, hc *http.Client, url string, start time.Time, due []time.Duration, lines [][]byte, sent []atomic.Int64) ([]ack, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	acks := make([]ack, 0, len(lines))
	readDone := make(chan error, 1)
	go func() {
		resp, err := hc.Do(req)
		if err != nil {
			pr.CloseWithError(err)
			readDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			pr.CloseWithError(errors.New(resp.Status))
			readDone <- fmt.Errorf("tuple stream: %s", resp.Status)
			return
		}
		dec := json.NewDecoder(resp.Body)
		for len(acks) < len(lines) {
			var a wireAck
			if err := dec.Decode(&a); err != nil {
				pr.CloseWithError(err)
				readDone <- fmt.Errorf("tuple stream: after %d acks: %w", len(acks), err)
				return
			}
			acks = append(acks, ack{a, time.Now()})
		}
		readDone <- nil
	}()
	writeDone := make(chan error, 1)
	go func() {
		pc := newPacer()
		defer pc.release()
		for i, line := range lines {
			pc.sleepUntil(start.Add(due[i]))
			sent[i].Store(time.Now().UnixNano())
			if _, err := pw.Write(line); err != nil {
				writeDone <- err
				return
			}
		}
		writeDone <- pw.Close()
	}()
	werr := <-writeDone
	rerr := <-readDone
	if rerr != nil {
		return acks, rerr
	}
	return acks, werr
}

func (w *liveIngest) drive(ctx context.Context, p *pass) error {
	p.load = newLoadClient(1, p.tr)
	start := time.Now().Add(10 * time.Millisecond)
	sent := make([]atomic.Int64, len(w.lines))
	var acks []ack
	streamErr := make(chan error, 1)
	go func() {
		var err error
		acks, err = stream(ctx, newLoadClient(1, p.tr), p.base+"/v1/tuples:stream", start, w.writes, w.lines, sent)
		streamErr <- err
	}()

	warm := 0
	for warm < len(w.reads) && w.reads[warm] < p.opts.warmup {
		warm++
	}
	var badReads atomic.Int64
	read := func(ctx context.Context, i int) (time.Time, error) {
		body, err := p.get(ctx, lrPath(w.readPts[i]))
		done := time.Now()
		if err != nil {
			return done, err
		}
		var a lrAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return done, err
		}
		if a.checkRanked(w.readPts[i]) != nil || len(a.Results) > w.K {
			badReads.Add(1)
		}
		return done, nil
	}
	openLoop(ctx, start, w.reads[:warm], 1, read)
	if err := p.beginMeasure(ctx, p.opts.seconds); err != nil {
		return err
	}
	measured := openLoop(ctx, start, w.reads[warm:], 1, func(ctx context.Context, i int) (time.Time, error) { return read(ctx, warm+i) })
	if err := <-streamErr; err != nil {
		return err
	}
	if err := p.endMeasure(ctx); err != nil {
		return err
	}
	p.check("read answers ranked", badReads.Load() == 0, "%d bad of %d", badReads.Load(), len(w.reads))

	ackOK, prev := true, uint64(0)
	var writeOps []sample
	detail := ""
	for i, a := range acks {
		if !a.OK || a.Seq != i || a.Epoch <= prev {
			if ackOK {
				detail = fmt.Sprintf("; first bad ack %d: %+v", i, a.wireAck)
			}
			ackOK = false
		}
		prev = a.Epoch
		if w.writes[i] < p.opts.warmup {
			continue
		}
		due := start.Add(w.writes[i])
		free := due
		if i > 0 {
			free = time.Unix(0, sent[i-1].Load())
		}
		writeOps = append(writeOps, measure(len(measured)+len(writeOps), due, free, time.Unix(0, sent[i].Load()), a.at, !a.OK))
	}
	p.check("every write acked ok, epochs increasing", ackOK && len(acks) == len(w.lines), "%d of %d acked%s", len(acks), len(w.lines), detail)
	p.writes = len(writeOps)
	p.ops = append(measured, writeOps...)
	rl, wl := latencies(measured), latencies(writeOps)
	p.setInfo("read_p50_ms", "ms", percentile(rl, 50), len(rl))
	p.setInfo("read_p99_ms", "ms", percentile(rl, 99), len(rl))
	p.setInfo("write_p50_ms", "ms", percentile(wl, 50), len(wl))
	p.setInfo("write_p99_ms", "ms", percentile(wl, 99), len(wl))
	return w.probe(ctx, p)
}

// probe checks the final state once the stream is done: sampled
// inserted or moved tuples are answered at their new locations and
// sampled deleted ones are gone.
func (w *liveIngest) probe(ctx context.Context, p *pass) error {
	bad := 0
	detail := ""
	for i, pr := range w.probes {
		body, err := p.get(ctx, lrPath(pr.loc))
		if err != nil {
			return err
		}
		p.answers[i] = answerHash(i, body)
		var a lrAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		found := false
		for _, r := range a.Results {
			found = found || r.ID == pr.id && r.X == pr.loc.X && r.Y == pr.loc.Y
		}
		if found != pr.alive {
			bad++
			if detail == "" {
				detail = fmt.Sprintf("; id %d alive=%v found=%v", pr.id, pr.alive, found)
			}
		}
	}
	p.check("final state: moved/inserted present, deleted absent", len(w.probes) > 0 && bad == 0, "%d probes, %d wrong%s", len(w.probes), bad, detail)
	return nil
}
