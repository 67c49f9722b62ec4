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
type Gilbert struct {
	n      int
	radius float64
	xs, ys []float64
	adj    bitmatrix
	degs   []int
	alice  []bool
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
	row := (n + 63) / 64
	sc.xs = grow(sc.xs, n)
	sc.ys = grow(sc.ys, n)
	sc.degs = grow(sc.degs, n)
	sc.alice = grow(sc.alice, n)
	sc.adjWords = grow(sc.adjWords, row*n)
	clear(sc.degs)
	clear(sc.adjWords)
	g := &Gilbert{
		n:      n,
		radius: radius,
		xs:     sc.xs,
		ys:     sc.ys,
		adj:    bitmatrix{words: sc.adjWords, row: row},
		degs:   sc.degs,
		alice:  sc.alice,
	}
	var st rng.Stream
	st.Reseed(seed, StreamActor)
	for i := 0; i < n; i++ {
		g.xs[i] = st.Float64()
		g.ys[i] = st.Float64()
	}
	r2 := radius * radius
	// Bucket points into cells of side >= radius: all neighbors of a
	// point lie in its 3x3 cell block. Cell count is capped near sqrt(n)
	// so tiny radii cannot allocate an absurd cell grid.
	cells := 1
	if radius < 1 {
		cells = int(1 / radius)
		if cells < 1 {
			cells = 1
		}
		if max := isqrtCeil(n) + 1; cells > max {
			cells = max
		}
	}
	// Cell membership as head/next chains over scratch arrays — the
	// adjacency produced is order-independent, so replacing the
	// historical per-bucket slices changes no graph.
	sc.bucketHead = grow(sc.bucketHead, cells*cells)
	sc.bucketNext = grow(sc.bucketNext, n)
	for i := range sc.bucketHead {
		sc.bucketHead[i] = -1
	}
	cellOf := func(v float64) int {
		c := int(v * float64(cells))
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	for i := 0; i < n; i++ {
		c := cellOf(g.ys[i])*cells + cellOf(g.xs[i])
		sc.bucketNext[i] = sc.bucketHead[c]
		sc.bucketHead[c] = int32(i)
	}
	for i := 0; i < n; i++ {
		cx, cy := cellOf(g.xs[i]), cellOf(g.ys[i])
		for dy := -1; dy <= 1; dy++ {
			by := cy + dy
			if by < 0 || by >= cells {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				bx := cx + dx
				if bx < 0 || bx >= cells {
					continue
				}
				for j32 := sc.bucketHead[by*cells+bx]; j32 >= 0; j32 = sc.bucketNext[j32] {
					j := int(j32)
					if j <= i {
						continue
					}
					ddx, ddy := g.xs[i]-g.xs[j], g.ys[i]-g.ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						g.adj.set(i, j)
						g.adj.set(j, i)
						g.degs[i]++
						g.degs[j]++
					}
				}
			}
		}
		ddx, ddy := g.xs[i]-0.5, g.ys[i]-0.5
		g.alice[i] = ddx*ddx+ddy*ddy <= r2
	}
	return g
}

func (g *Gilbert) Name() string   { return "gilbert" }
func (g *Gilbert) N() int         { return g.n }
func (g *Gilbert) Complete() bool { return false }

// Radius reports the connection radius the graph was built with.
func (g *Gilbert) Radius() float64 { return g.radius }

// Position returns node i's point in the unit square.
func (g *Gilbert) Position(i int) (x, y float64) { return g.xs[i], g.ys[i] }

func (g *Gilbert) AliceHears(node int) bool { return g.alice[node] }

func (g *Gilbert) Adjacent(src, listener int) bool {
	if src == listener {
		return false
	}
	return g.adj.get(src, listener)
}

func (g *Gilbert) Degree(node int) int { return g.degs[node] }

// bitmatrix is a dense n x n adjacency bitset (rows of packed uint64
// words): O(1) Adjacent at n²/8 bytes, a fine trade at simulation n.
type bitmatrix struct {
	words []uint64
	row   int // words per row
}

func (b bitmatrix) set(i, j int)      { b.words[i*b.row+j/64] |= 1 << (uint(j) % 64) }
func (b bitmatrix) get(i, j int) bool { return b.words[i*b.row+j/64]&(1<<(uint(j)%64)) != 0 }
