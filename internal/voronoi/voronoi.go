// Package voronoi computes ground-truth (full-knowledge) Voronoi and
// top-k Voronoi cells over an entire database. The estimators never
// use this package — they only see the kNN interface — but the
// evaluation does: for verifying inferred cells, for the cell-size
// statistics behind Figure 11 (the Starbucks decomposition with cells
// from under 1 km² to hundreds of thousands of km²), and for the SVG
// rendering of the diagram.
package voronoi

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/lbs"
)

// Diagram holds the top-k Voronoi cells of every tuple of a database.
type Diagram struct {
	Bounds geom.Rect
	K      int
	// Cells[i] is the top-k cell of the database's i-th tuple.
	Cells []*cell.Complex
	db    *lbs.Database
}

// Compute builds the exact top-k Voronoi diagram of a database. The
// per-cell work uses a kd-tree to gather nearby sites in growing rings
// until the distance-pruning rule guarantees completeness, so the cost
// is near-linear for realistic (clustered) inputs. Cells are
// independent, so the work is spread over one worker per CPU.
func Compute(db *lbs.Database, k int) *Diagram {
	return computeParallel(db, k, runtime.GOMAXPROCS(0))
}

// computeChunk is the work-stealing granule of computeParallel: large
// enough to amortize the atomic claim, small enough to balance the
// highly skewed per-cell cost (boundary cells cost far more than
// interior ones).
const computeChunk = 32

// computeParallel is Compute over an explicit worker pool. Workers
// claim fixed-size index chunks from an atomic cursor; each cell is
// computed independently against the shared (read-only) kd-tree, so
// the result is identical for every worker count, including 1.
func computeParallel(db *lbs.Database, k, workers int) *Diagram {
	pts := make([]geom.Point, db.Len())
	for i := range pts {
		pts[i] = db.Tuple(i).Loc
	}
	tree := kdtree.BuildOwned(pts)
	d := &Diagram{
		Bounds: db.Bounds(),
		K:      k,
		Cells:  make([]*cell.Complex, db.Len()),
		db:     db,
	}
	boundPoly := db.Bounds().Polygon()
	n := len(pts)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := newCellScratch(n)
		for i := range pts {
			d.Cells[i] = computeCell(boundPoly, tree, pts, i, k, sc)
		}
		return d
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker owns its scratch and its copy of the bounding
			// polygon so cell.New's Clone source is not shared.
			bp := boundPoly.Clone()
			sc := newCellScratch(n)
			for {
				start := int(cursor.Add(computeChunk)) - computeChunk
				if start >= n {
					return
				}
				end := start + computeChunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					d.Cells[i] = computeCell(bp, tree, pts, i, k, sc)
				}
			}
		}()
	}
	wg.Wait()
	return d
}

// cellScratch is the per-worker working set of computeCell:
// generation-stamped "already gathered" marks (an O(1) reset per cell
// instead of a fresh map) and reusable neighbor/site buffers.
type cellScratch struct {
	stamp []uint32
	gen   uint32
	nbs   []kdtree.Neighbor
	sites []cell.Site
}

func newCellScratch(n int) *cellScratch {
	return &cellScratch{stamp: make([]uint32, n)}
}

// nextCell advances the generation, resetting the seen marks in O(1).
func (sc *cellScratch) nextCell() {
	sc.gen++
	if sc.gen == 0 { // wrapped: stamps from 2^32 cells ago could alias
		clear(sc.stamp)
		sc.gen = 1
	}
}

func (sc *cellScratch) seen(i int) bool { return sc.stamp[i] == sc.gen }
func (sc *cellScratch) mark(i int)      { sc.stamp[i] = sc.gen }

// computeCell builds the exact top-k cell of site idx against all
// other sites: neighbors are pulled in rings of doubling radius until
// the ring radius exceeds twice the maximum distance from the site to
// its tentative cell (beyond which no bisector can cut the region).
func computeCell(bound geom.Polygon, tree *kdtree.Tree, pts []geom.Point, idx, k int, sc *cellScratch) *cell.Complex {
	target := pts[idx]
	c := cell.New(bound, k)
	radius := initialRadius(tree, target, idx, k, sc)
	sc.nextCell()
	sc.mark(idx)
	for {
		sc.nbs = tree.WithinRadiusUnordered(target, radius,
			func(j int) bool { return !sc.seen(j) }, sc.nbs)
		sites := sc.sites[:0]
		for _, nb := range sc.nbs {
			sc.mark(nb.Index)
			sites = append(sites, cell.Site{Key: int64(nb.Index), Loc: pts[nb.Index]})
		}
		sc.sites = sites
		cell.InsertSites(c, target, sites)
		needed := 2 * c.MaxDistFrom(target)
		if radius >= needed || radius >= 4*boundDiag(bound) {
			return c
		}
		radius = math.Max(radius*2, needed)
	}
}

func boundDiag(bound geom.Polygon) float64 {
	r := bound.BoundingRect()
	return r.Diagonal()
}

// initialRadius starts the ring search at roughly the k-th neighbor
// distance, doubled. The search reuses the worker scratch's neighbor
// buffer: it fetches k+2 unfiltered neighbors and skips the target
// itself, avoiding both the result allocation and a per-cell filter
// closure.
func initialRadius(tree *kdtree.Tree, target geom.Point, idx, k int, sc *cellScratch) float64 {
	sc.nbs = tree.KNNInto(target, k+2, nil, sc.nbs)
	far := -1
	seen := 0
	for i := range sc.nbs {
		if sc.nbs[i].Index == idx {
			continue
		}
		seen++
		far = i
		if seen == k+1 {
			break
		}
	}
	if far < 0 {
		return math.Inf(1)
	}
	return 2 * sc.nbs[far].Dist * (1 + 1e-9)
}

// Areas returns the cell areas indexed like the database tuples.
func (d *Diagram) Areas() []float64 {
	out := make([]float64, len(d.Cells))
	for i, c := range d.Cells {
		out[i] = c.Area()
	}
	return out
}

// Stats summarizes a cell-size distribution.
type Stats struct {
	N                  int
	Min, Max, Mean     float64
	P50, P90, P99      float64
	Gini               float64 // inequality of cell sizes (0 uniform, →1 skewed)
	MaxOverMin         float64
	TotalOverBoundArea float64 // should be ≈ k for a top-k diagram
}

// CellStats computes the distribution statistics of the diagram's cell
// areas — the quantitative content of Figure 11.
func (d *Diagram) CellStats() Stats {
	areas := d.Areas()
	return areaStats(areas, d.Bounds.Area())
}

// areaStats summarizes a set of areas against a reference total.
func areaStats(areas []float64, boundArea float64) Stats {
	if len(areas) == 0 {
		return Stats{}
	}
	sorted := append([]float64(nil), areas...)
	sort.Float64s(sorted)
	var sum float64
	for _, a := range sorted {
		sum += a
	}
	n := len(sorted)
	q := func(p float64) float64 {
		i := int(p * float64(n-1))
		return sorted[i]
	}
	// Gini via the sorted-weights formula.
	var cum float64
	for i, a := range sorted {
		cum += a * float64(2*(i+1)-n-1)
	}
	gini := 0.0
	if sum > 0 {
		gini = cum / (float64(n) * sum)
	}
	maxOverMin := math.Inf(1)
	if sorted[0] > 0 {
		maxOverMin = sorted[n-1] / sorted[0]
	}
	return Stats{
		N:                  n,
		Min:                sorted[0],
		Max:                sorted[n-1],
		Mean:               sum / float64(n),
		P50:                q(0.50),
		P90:                q(0.90),
		P99:                q(0.99),
		Gini:               gini,
		MaxOverMin:         maxOverMin,
		TotalOverBoundArea: sum / boundArea,
	}
}

// WriteSVG renders the diagram (k=1 cells as polygons, sites as dots)
// as a standalone SVG document — the Figure 11 picture.
func (d *Diagram) WriteSVG(w io.Writer, widthPx int) error {
	if widthPx <= 0 {
		widthPx = 1200
	}
	sc := float64(widthPx) / d.Bounds.Width()
	heightPx := int(d.Bounds.Height() * sc)
	tx := func(p geom.Point) (float64, float64) {
		return (p.X - d.Bounds.Min.X) * sc, float64(heightPx) - (p.Y-d.Bounds.Min.Y)*sc
	}
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		widthPx, heightPx, widthPx, heightPx); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", widthPx, heightPx)
	for _, c := range d.Cells {
		for _, f := range c.Faces() {
			if len(f.Poly) < 3 {
				continue
			}
			fmt.Fprint(w, `<polygon points="`)
			for _, p := range f.Poly {
				x, y := tx(p)
				fmt.Fprintf(w, "%.2f,%.2f ", x, y)
			}
			fmt.Fprint(w, `" fill="none" stroke="#4477aa" stroke-width="0.6"/>`+"\n")
		}
	}
	for i := 0; i < d.db.Len(); i++ {
		x, y := tx(d.db.Tuple(i).Loc)
		fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="1.2" fill="#cc3311"/>`+"\n", x, y)
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}
