// Package index provides a spatio-temporal hash grid over geographic
// points. It powers the mix-zone crossing detector, which needs fast
// "who is near (p, t)?" queries over hundreds of thousands of
// observations.
//
// A uniform hash grid is the right tool here: mobility data is dense and
// roughly uniformly spread at city scale, queries use a fixed radius, and
// the grid gives O(1) expected insert and query with no balancing logic.
package index

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mobipriv/internal/geo"
)

// stKey addresses one space-time bucket of an STGrid.
type stKey struct {
	cx, cy, ct int
}

// STGrid is a spatio-temporal hash grid: points are bucketed by position
// (cellSize meters) and time (window duration). It answers "which points
// lie within radius r AND within time window w of (p, t)?" — the core
// query of natural mix-zone detection.
type STGrid struct {
	proj   *geo.Projector
	size   float64
	window time.Duration
	epoch  time.Time
	cell   map[stKey][]stEntry
}

type stEntry struct {
	pos geo.XY
	ts  time.Time
	id  int
}

// NewSTGrid returns an empty spatio-temporal grid. cellSize must be
// positive and window must be a positive duration; epoch anchors the time
// bucketing (any instant at or before the data works).
func NewSTGrid(origin geo.Point, cellSize float64, window time.Duration, epoch time.Time) *STGrid {
	if cellSize <= 0 {
		panic(fmt.Sprintf("index: cell size %v must be positive", cellSize))
	}
	if window <= 0 {
		panic(fmt.Sprintf("index: window %v must be positive", window))
	}
	return &STGrid{
		proj:   geo.NewProjector(origin),
		size:   cellSize,
		window: window,
		epoch:  epoch,
		cell:   make(map[stKey][]stEntry),
	}
}

func (g *STGrid) stkey(v geo.XY, ts time.Time) stKey {
	return stKey{
		cx: int(math.Floor(v.X / g.size)),
		cy: int(math.Floor(v.Y / g.size)),
		ct: int(ts.Sub(g.epoch) / g.window),
	}
}

// Insert adds a point observed at ts with the given identifier.
func (g *STGrid) Insert(p geo.Point, ts time.Time, id int) {
	v := g.proj.ToXY(p)
	k := g.stkey(v, ts)
	g.cell[k] = append(g.cell[k], stEntry{pos: v, ts: ts, id: id})
}

// WithinST returns the identifiers of points within radius meters of p
// and within w of ts (|t - ts| <= w), sorted ascending. radius must not
// exceed the grid cell size times any bound; any radius works but large
// radii degrade to linear scans.
func (g *STGrid) WithinST(p geo.Point, ts time.Time, radius float64, w time.Duration) []int {
	if radius < 0 || w < 0 {
		return nil
	}
	c := g.proj.ToXY(p)
	r2 := radius * radius
	lo := g.stkey(geo.XY{X: c.X - radius, Y: c.Y - radius}, ts.Add(-w))
	hi := g.stkey(geo.XY{X: c.X + radius, Y: c.Y + radius}, ts.Add(w))
	var out []int
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for ct := lo.ct; ct <= hi.ct; ct++ {
				for _, e := range g.cell[stKey{cx, cy, ct}] {
					dt := e.ts.Sub(ts)
					if dt < 0 {
						dt = -dt
					}
					if dt > w {
						continue
					}
					d := e.pos.Sub(c)
					if d.X*d.X+d.Y*d.Y <= r2 {
						out = append(out, e.id)
					}
				}
			}
		}
	}
	sort.Ints(out)
	return out
}
