package topology

import (
	"math"
	"testing"
)

func TestCliqueIsComplete(t *testing.T) {
	c := NewClique(8)
	if !c.Complete() || c.N() != 8 || c.Degree(3) != 7 {
		t.Fatalf("clique basics: %+v", c)
	}
	for v := 0; v < 8; v++ {
		if !c.AliceHears(v) {
			t.Fatalf("alice must hear node %d", v)
		}
		for u := 0; u < 8; u++ {
			if got, want := c.Adjacent(u, v), u != v; got != want {
				t.Fatalf("Adjacent(%d,%d) = %v", u, v, got)
			}
		}
	}
	if got := ReachableWithin(c, 1); got != 8 {
		t.Fatalf("clique reachable within 1 hop = %d, want 8", got)
	}
}

func TestGridLayoutAndAdjacency(t *testing.T) {
	g := NewGrid(12, 4, 1) // 4x3
	if g.Width() != 4 || g.Reach() != 1 || g.Complete() {
		t.Fatalf("grid layout: %+v", g)
	}
	// Node 5 is cell (1,1): its Moore neighborhood is the full 3x3 block.
	if g.Degree(5) != 8 {
		t.Fatalf("interior degree = %d, want 8", g.Degree(5))
	}
	// Corner node 0 has 3 neighbors.
	if g.Degree(0) != 3 {
		t.Fatalf("corner degree = %d, want 3", g.Degree(0))
	}
	if !g.Adjacent(0, 5) || g.Adjacent(0, 2) || g.Adjacent(7, 7) {
		t.Fatal("adjacency wrong")
	}
	// Alice sits at the origin corner: she reaches cells (0,0),(1,0),(0,1),(1,1).
	wantAlice := map[int]bool{0: true, 1: true, 4: true, 5: true}
	for v := 0; v < 12; v++ {
		if g.AliceHears(v) != wantAlice[v] {
			t.Fatalf("AliceHears(%d) = %v", v, g.AliceHears(v))
		}
	}
	// The wave crosses one Chebyshev ring per hop: the far corner (3,2)
	// is ring 3 from Alice's audible block... within 3 hops everything.
	if got := ReachableWithin(g, -1); got != 12 {
		t.Fatalf("grid component = %d, want 12", got)
	}
	if got := ReachableWithin(g, 1); got != 4 {
		t.Fatalf("grid 1-hop = %d, want 4", got)
	}
}

func TestGridDefaultsSquare(t *testing.T) {
	g := NewGrid(100, 0, 0)
	if g.Width() != 10 || g.Reach() != 1 {
		t.Fatalf("defaults: %+v", g)
	}
	if !NewGrid(9, 3, 2).Complete() {
		t.Fatal("reach covering the lattice must report Complete")
	}
}

func TestGilbertDeterministicAndSymmetric(t *testing.T) {
	a := NewGilbert(200, 0.15, 42)
	b := NewGilbert(200, 0.15, 42)
	other := NewGilbert(200, 0.15, 43)
	differs := false
	for i := 0; i < 200; i++ {
		ax, ay := a.Position(i)
		bx, by := b.Position(i)
		if ax != bx || ay != by {
			t.Fatal("same seed must draw identical points")
		}
		ox, oy := other.Position(i)
		if ax != ox || ay != oy {
			differs = true
		}
		if a.Degree(i) != b.Degree(i) {
			t.Fatal("same seed must build identical graphs")
		}
	}
	if !differs {
		t.Fatal("different seeds must draw different points")
	}
	for i := 0; i < 200; i++ {
		for j := 0; j < 200; j++ {
			if a.Adjacent(i, j) != a.Adjacent(j, i) {
				t.Fatalf("adjacency must be symmetric (%d,%d)", i, j)
			}
			if i == j && a.Adjacent(i, j) {
				t.Fatal("adjacency must be irreflexive")
			}
		}
	}
}

func TestGilbertAdjacencyMatchesDistance(t *testing.T) {
	g := NewGilbert(150, 0.2, 7)
	for i := 0; i < 150; i++ {
		deg := 0
		xi, yi := g.Position(i)
		for j := 0; j < 150; j++ {
			if i == j {
				continue
			}
			xj, yj := g.Position(j)
			within := math.Hypot(xi-xj, yi-yj) <= 0.2
			if g.Adjacent(j, i) != within {
				t.Fatalf("Adjacent(%d,%d) = %v, distance says %v", j, i, g.Adjacent(j, i), within)
			}
			if within {
				deg++
			}
		}
		if g.Degree(i) != deg {
			t.Fatalf("Degree(%d) = %d, want %d", i, g.Degree(i), deg)
		}
		ax := g.AliceHears(i)
		if ax != (math.Hypot(xi-0.5, yi-0.5) <= 0.2) {
			t.Fatalf("AliceHears(%d) = %v", i, ax)
		}
	}
}

func TestGilbertFullRadiusIsEffectivelyComplete(t *testing.T) {
	// radius sqrt(2) spans the unit square's diagonal: every pair
	// connects, though Complete() stays structural (false) so the
	// engine exercises the sparse resolution path on it — the
	// engine-level equivalence test relies on exactly this.
	g := NewGilbert(64, math.Sqrt2, 3)
	if g.Complete() {
		t.Fatal("gilbert must not claim to be complete")
	}
	for i := 0; i < 64; i++ {
		if g.Degree(i) != 63 || !g.AliceHears(i) {
			t.Fatalf("node %d not fully connected", i)
		}
	}
}

func TestReachableWithinGrowsByHops(t *testing.T) {
	g := NewGilbert(300, 0.12, 11)
	prev := 0
	for hops := 1; hops <= 6; hops++ {
		got := ReachableWithin(g, hops)
		if got < prev {
			t.Fatalf("reachable must be monotone in hops: %d then %d", prev, got)
		}
		prev = got
	}
	if comp := ReachableWithin(g, -1); comp < prev {
		t.Fatalf("component %d smaller than 6-hop %d", comp, prev)
	}
}

// TestReachableWithinRows pins exact counts: an Alice→node edge is the
// first hop, so zero hops reach nobody and one hop reaches exactly
// Alice's audience.
func TestReachableWithinRows(t *testing.T) {
	grid := NewGrid(25, 5, 1) // Alice hears the 2x2 corner block
	clique := NewClique(12)
	for _, tc := range []struct {
		name string
		topo Topology
		hops int
		want int
	}{
		{"grid", grid, 0, 0},
		{"grid", grid, 1, 4},
		{"grid", grid, 2, 9},
		{"grid", grid, 3, 16},
		{"grid", grid, -1, 25},
		{"clique", clique, 0, 0},
		{"clique", clique, 1, 12},
		{"clique", clique, -1, 12},
	} {
		if got := ReachableWithin(tc.topo, tc.hops); got != tc.want {
			t.Errorf("%s: ReachableWithin(%d) = %d, want %d", tc.name, tc.hops, got, tc.want)
		}
	}
}

// TestGilbertEdgeCountOracle checks the builder against the
// Reitzner–Schulte–Thäle first moment for the Gilbert graph on the unit
// square: two uniform points are within distance r with probability
//
//	p(r) = πr² − (8/3)r³ + ½r⁴            (r ≤ 1)
//
// so E[edges] = C(n,2)·p(r) and E[degree] = (n−1)·p(r). The empirical
// mean over a deterministic seed sweep must sit within a few standard
// errors of the analytic value.
func TestGilbertEdgeCountOracle(t *testing.T) {
	const (
		n     = 256
		r     = 0.2
		seeds = 300
	)
	spec := Spec{Kind: "gilbert", Radius: r}
	p := math.Pi*r*r - (8.0/3.0)*r*r*r + 0.5*r*r*r*r
	expected := float64(n*(n-1)/2) * p

	edgeCount := func(topo Topology) float64 {
		total := 0
		for v := 0; v < n; v++ {
			total += topo.Degree(v)
		}
		return float64(total) / 2
	}

	var sum, sumSq float64
	for seed := uint64(0); seed < seeds; seed++ {
		fresh, err := spec.Build(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		fe := edgeCount(fresh)
		sum += fe
		sumSq += fe * fe
	}
	mean := sum / seeds
	variance := sumSq/seeds - mean*mean
	se := math.Sqrt(variance / seeds)
	if diff := math.Abs(mean - expected); diff > 5*se {
		t.Fatalf("empirical mean edge count %.2f vs analytic %.2f (|diff|=%.2f > 5·SE=%.2f)",
			mean, expected, diff, 5*se)
	}
	if meanDeg, expDeg := 2*mean/n, float64(n-1)*p; math.Abs(meanDeg-expDeg) > 5*(2*se/n) {
		t.Fatalf("empirical mean degree %.4f vs analytic %.4f", meanDeg, expDeg)
	}
	t.Logf("edges: empirical %.2f, analytic %.2f, SE %.2f (n=%d, r=%g, %d seeds)",
		mean, expected, se, n, r, seeds)
}
