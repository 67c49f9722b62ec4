package topology

import "testing"

// pairLoopGraph is the Gilbert builder's old pair loop, kept as the
// reference for the computed adjacency: it buckets g's points into the
// same cells, visits every pair in neighbouring cells once, and sets an
// adjacency bit and both degrees for each pair within the radius.
func pairLoopGraph(g *Gilbert) (adj [][]bool, degs []int) {
	n, radius := g.N(), g.Radius()
	adj = make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	degs = make([]int, n)
	r2 := radius * radius
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
	cellOf := func(v float64) int {
		c := int(v * float64(cells))
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	head := make([]int32, cells*cells)
	next := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	for i := 0; i < n; i++ {
		x, y := g.Position(i)
		c := cellOf(y)*cells + cellOf(x)
		next[i] = head[c]
		head[c] = int32(i)
	}
	for i := 0; i < n; i++ {
		xi, yi := g.Position(i)
		cx, cy := cellOf(xi), cellOf(yi)
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
				for j32 := head[by*cells+bx]; j32 >= 0; j32 = next[j32] {
					j := int(j32)
					if j <= i {
						continue
					}
					xj, yj := g.Position(j)
					ddx, ddy := xi-xj, yi-yj
					if ddx*ddx+ddy*ddy <= r2 {
						adj[i][j], adj[j][i] = true, true
						degs[i]++
						degs[j]++
					}
				}
			}
		}
	}
	return adj, degs
}

// TestGilbertAdjacentMatchesPairLoop pins the computed adjacency to the
// graph the pair loop builds from the same points, for several seeds:
// at the radii the scenarios use (0.25, 0.3), at a radius small enough
// that the cell count hits its isqrtCeil(n)+1 cap (0.01), and at radii
// of 1 and more, where every point shares the one cell.
func TestGilbertAdjacentMatchesPairLoop(t *testing.T) {
	for _, tc := range []struct {
		n      int
		radius float64
	}{
		{256, 0.25}, {200, 0.3}, {256, 0.01}, {1000, 0.01}, {64, 1}, {64, 1.5},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			g := NewGilbert(tc.n, tc.radius, seed)
			adj, degs := pairLoopGraph(g)
			edges := 0
			for v := 0; v < tc.n; v++ {
				if g.Degree(v) != degs[v] {
					t.Fatalf("n=%d r=%v seed=%d: Degree(%d) = %d, the pair loop counts %d",
						tc.n, tc.radius, seed, v, g.Degree(v), degs[v])
				}
				edges += degs[v]
				for u := 0; u < tc.n; u++ {
					if g.Adjacent(u, v) != adj[u][v] {
						t.Fatalf("n=%d r=%v seed=%d: Adjacent(%d, %d) = %v, the pair loop says %v",
							tc.n, tc.radius, seed, u, v, g.Adjacent(u, v), adj[u][v])
					}
				}
			}
			if edges == 0 {
				t.Fatalf("n=%d r=%v seed=%d: no edges at all; the comparison shows nothing", tc.n, tc.radius, seed)
			}
		}
	}
}
