package topology

import "rcbcast/internal/rng"

// Gilbert is the random geometric graph: n points drawn uniformly in
// the unit square, two nodes adjacent iff their Euclidean distance is
// at most Radius. Alice transmits from the center (1/2, 1/2), the
// deterministic position that keeps her expected audience at the
// full πr²n for every radius.
//
// Construction draws from the stream keyed (seed, StreamActor), so the
// graph is a pure function of the engine seed: trials of a sweep each
// get an independent graph, reproducible across worker counts.
//
// The edges are never built: a trial asks about far fewer pairs than
// the graph has candidates, so Adjacent computes each answer from the
// two points. Each point keeps the cell of side at least Radius it
// falls in, and two points are adjacent only in neighbouring cells, the
// 3×3 pruning a pair-by-pair build would apply.
type Gilbert struct {
	n      int
	radius float64
	r2     float64
	pts    []gilbertPoint
	alice  []bool
}

// gilbertPoint is a node's position and the coordinates of its cell.
type gilbertPoint struct {
	x, y   float64
	cx, cy int32
}

// NewGilbert draws the radius-r geometric graph over n points from the
// given seed.
func NewGilbert(n int, radius float64, seed uint64) *Gilbert {
	return NewGilbertInto(n, radius, seed, nil)
}

// NewGilbertInto is NewGilbert building into the scratch's reused
// buffers (nil allocates fresh ones). The returned graph is
// byte-identical either way and, with a scratch, valid until the next
// build on it.
func NewGilbertInto(n int, radius float64, seed uint64, sc *Scratch) *Gilbert {
	if sc == nil {
		sc = NewScratch()
	}
	sc.pts = grow(sc.pts, n)
	sc.alice = grow(sc.alice, n)
	g := &Gilbert{
		n:      n,
		radius: radius,
		r2:     radius * radius,
		pts:    sc.pts,
		alice:  sc.alice,
	}
	var st rng.Stream
	st.Reseed(seed, StreamActor)
	for i := range g.pts {
		g.pts[i].x = st.Float64()
		g.pts[i].y = st.Float64()
	}
	// Cells of side >= radius: all neighbors of a point lie in its 3x3
	// cell block. Cell count is capped near sqrt(n) so tiny radii keep
	// the cells few.
	cells := 1
	if radius < 1 {
		cells = max(int(1/radius), 1)
		cells = min(cells, isqrtCeil(n)+1)
	}
	cellOf := func(v float64) int32 {
		return int32(min(int(v*float64(cells)), cells-1))
	}
	for i := range g.pts {
		p := &g.pts[i]
		p.cx, p.cy = cellOf(p.x), cellOf(p.y)
		ddx, ddy := p.x-0.5, p.y-0.5
		g.alice[i] = ddx*ddx+ddy*ddy <= g.r2
	}
	return g
}

func (g *Gilbert) Name() string   { return "gilbert" }
func (g *Gilbert) N() int         { return g.n }
func (g *Gilbert) Complete() bool { return false }

// Radius reports the connection radius the graph was built with.
func (g *Gilbert) Radius() float64 { return g.radius }

// Position returns node i's point in the unit square.
func (g *Gilbert) Position(i int) (x, y float64) { return g.pts[i].x, g.pts[i].y }

func (g *Gilbert) AliceHears(node int) bool { return g.alice[node] }

// Adjacent reports whether the two points lie in neighbouring cells and
// within Radius of each other. Squares ignore the operands' order, so
// the answer is symmetric.
func (g *Gilbert) Adjacent(src, listener int) bool {
	a, b := &g.pts[src], &g.pts[listener]
	if src == listener || uint32(a.cx-b.cx+1) > 2 || uint32(a.cy-b.cy+1) > 2 {
		return false
	}
	ddx, ddy := a.x-b.x, a.y-b.y
	return ddx*ddx+ddy*ddy <= g.r2
}

// Degree counts the node's neighbours, one Adjacent per node.
func (g *Gilbert) Degree(node int) int {
	d := 0
	for v := range g.pts {
		if g.Adjacent(node, v) {
			d++
		}
	}
	return d
}
