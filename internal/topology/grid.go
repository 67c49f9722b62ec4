package topology

// Grid is a rectangular lattice: node i occupies cell (i mod W, i / W)
// and hears every node within Chebyshev distance Reach of its cell.
// Alice transmits from the origin corner — the lattice analogue of the
// multihop pipeline's seed cluster — so a broadcast crosses the grid as
// a wave of informed rings.
type Grid struct {
	n, w, h, reach int
}

// NewGrid returns the lattice over n nodes with the given width and
// Chebyshev reach. width <= 0 selects the squarest layout
// (ceil(sqrt(n))); reach <= 0 selects 1 (the 8-neighbor Moore
// neighborhood).
func NewGrid(n, width, reach int) Grid {
	if width <= 0 {
		width = isqrtCeil(n)
	}
	if reach <= 0 {
		reach = 1
	}
	h := (n + width - 1) / width
	return Grid{n: n, w: width, h: h, reach: reach}
}

// isqrtCeil returns ceil(sqrt(n)) for n >= 0 without float rounding
// hazards.
func isqrtCeil(n int) int {
	if n <= 1 {
		return n
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func (g Grid) Name() string { return "grid" }
func (g Grid) N() int       { return g.n }

// Width and Reach report the resolved layout (useful for tests and
// reporting).
func (g Grid) Width() int { return g.w }
func (g Grid) Reach() int { return g.reach }

// Complete reports whether the reach covers the whole lattice, in which
// case the grid degenerates to the clique and the engine resolves it as
// one.
func (g Grid) Complete() bool {
	return g.reach >= g.w-1 && g.reach >= g.h-1
}

func (g Grid) cell(i int) (x, y int) { return i % g.w, i / g.w }

func cheb(x0, y0, x1, y1 int) int {
	dx, dy := x0-x1, y0-y1
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

func (g Grid) AliceHears(node int) bool {
	x, y := g.cell(node)
	return cheb(0, 0, x, y) <= g.reach
}

func (g Grid) Adjacent(src, listener int) bool {
	if src == listener {
		return false
	}
	sx, sy := g.cell(src)
	lx, ly := g.cell(listener)
	return cheb(sx, sy, lx, ly) <= g.reach
}

func (g Grid) Degree(node int) int {
	x, y := g.cell(node)
	deg := 0
	for dy := -g.reach; dy <= g.reach; dy++ {
		ny := y + dy
		if ny < 0 || ny >= g.h {
			continue
		}
		for dx := -g.reach; dx <= g.reach; dx++ {
			nx := x + dx
			if nx < 0 || nx >= g.w {
				continue
			}
			id := ny*g.w + nx
			if id != node && id < g.n {
				deg++
			}
		}
	}
	return deg
}
