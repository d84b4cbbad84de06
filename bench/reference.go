package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// refWork is the reference work whose CPU cost the keep-awake child
// measures while the benchmark runs: a fixed mix of what a query costs
// the server — sorting, hashing, map updates and JSON encoding — built
// from the standard library alone, so no change to the program under
// test can change it. Its cost moves with the speed of the machine.
type refWork struct {
	src, work []float64
	buf       []byte
	recs      []refRecord
	counts    map[int]int
	sink      uint64
}

type refRecord struct {
	ID   int64   `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Name string  `json:"name"`
}

func newRefWork() *refWork {
	rng := rand.New(rand.NewSource(1))
	w := &refWork{src: make([]float64, 1024), work: make([]float64, 1024), buf: make([]byte, 8192),
		recs: make([]refRecord, 10), counts: map[int]int{}}
	for i := range w.src {
		w.src[i] = rng.Float64()
	}
	rng.Read(w.buf)
	for i := range w.recs {
		w.recs[i] = refRecord{int64(i), rng.Float64(), rng.Float64(), "reference"}
	}
	return w
}

// unit does one unit of reference work.
func (w *refWork) unit() {
	copy(w.work, w.src)
	sort.Float64s(w.work)
	h := fnv.New64a()
	h.Write(w.buf)
	for i := 0; i < 512; i++ {
		w.counts[i*7919%1021] += i
	}
	b, _ := json.Marshal(w.recs)
	w.sink += h.Sum64() + uint64(len(b))
}

// refCosts collects the per-unit CPU cost (µs) of each timed batch of
// reference work until the next reading takes them; past refKeep
// batches the newest replace the oldest.
type refCosts struct {
	mu    sync.Mutex
	costs []float64
	added int
}

const refKeep = 1 << 16

func (c *refCosts) add(us float64) {
	c.mu.Lock()
	if len(c.costs) < refKeep {
		c.costs = append(c.costs, us)
	} else {
		c.costs[c.added%refKeep] = us
	}
	c.added++
	c.mu.Unlock()
}

// serve answers each line read from r with the median cost of the
// batches finished since the previous reading and their number, until r
// ends.
func (c *refCosts) serve(r *bufio.Reader, w io.Writer) {
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return
		}
		c.mu.Lock()
		costs := c.costs
		c.costs, c.added = nil, 0
		c.mu.Unlock()
		fmt.Fprintf(w, "%g %d\n", median(costs), len(costs))
	}
}

// refReading is the reference cost over one interval: the median
// per-unit CPU time of the batches finished in it, and how many.
type refReading struct {
	US      float64 `json:"us"`
	Batches int     `json:"batches"`
}

const (
	// refNominalUS defines reference speed, which calibrated times are
	// scaled to: one unit of reference work per 60 µs of CPU time, about
	// what the two-vCPU machine described in README.md does when quiet.
	refNominalUS = 60.0
	// refMinBatches is the fewest batches a reading needs to be used.
	refMinBatches = 10
)

// refScale is the factor that turns a time measured while r was read
// into a time at reference speed. A reading with too few batches takes
// fallbackUS as its cost; with that 0 too, the time stays as measured.
func refScale(r refReading, fallbackUS float64) float64 {
	us := fallbackUS
	if r.Batches >= refMinBatches {
		us = r.US
	}
	if us <= 0 {
		return 1
	}
	return refNominalUS / us
}

// refMeter reads the keep-awake child's reference costs. A nil meter
// (no keep-awake child) reads nothing.
type refMeter struct {
	mu sync.Mutex
	p  *proc
}

// read returns the reference cost since the previous read.
func (m *refMeter) read() refReading {
	if m == nil {
		return refReading{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := io.WriteString(m.p.stdin, "\n"); err != nil {
		return refReading{}
	}
	line, err := m.p.out.ReadString('\n')
	if err != nil {
		return refReading{}
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return refReading{}
	}
	us, _ := strconv.ParseFloat(f[0], 64)
	n, _ := strconv.Atoi(f[1])
	return refReading{US: us, Batches: n}
}
