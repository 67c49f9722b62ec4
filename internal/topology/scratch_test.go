package topology

import "testing"

// TestBuildIntoByteIdentical: graphs built into a reused scratch —
// including across different sizes and kinds — match fresh builds
// exactly.
func TestBuildIntoByteIdentical(t *testing.T) {
	specs := []struct {
		spec Spec
		n    int
		seed uint64
	}{
		{Spec{Kind: "gilbert", Radius: 0.25}, 128, 1},
		{Spec{Kind: "gilbert", Radius: 0.4}, 64, 2},  // shrink
		{Spec{Kind: "gilbert", Radius: 0.1}, 200, 3}, // regrow
		{Spec{Kind: "grid", Reach: 2}, 100, 4},
		{Spec{Kind: "gilbert", Radius: 0.3}, 128, 5},
	}
	sc := NewScratch()
	for round := 0; round < 2; round++ {
		for _, tc := range specs {
			fresh, err := tc.spec.Build(tc.n, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := tc.spec.BuildInto(tc.n, tc.seed, sc)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < tc.n; v++ {
				if fresh.AliceHears(v) != reused.AliceHears(v) {
					t.Fatalf("%s n=%d seed=%d: AliceHears(%d) diverged", tc.spec, tc.n, tc.seed, v)
				}
				if fresh.Degree(v) != reused.Degree(v) {
					t.Fatalf("%s n=%d seed=%d: Degree(%d) diverged", tc.spec, tc.n, tc.seed, v)
				}
				for u := 0; u < tc.n; u++ {
					if fresh.Adjacent(u, v) != reused.Adjacent(u, v) {
						t.Fatalf("%s n=%d seed=%d: Adjacent(%d,%d) diverged", tc.spec, tc.n, tc.seed, u, v)
					}
				}
			}
		}
	}
}

// TestDegreeMatchesAdjacent: Degree(v) counts exactly the nodes v
// hears, for every kind. perfbench counts a trial's edges with Degree,
// while the engine asks Adjacent, so the two must agree.
func TestDegreeMatchesAdjacent(t *testing.T) {
	sc := NewScratch()
	for _, tc := range []struct {
		name string
		spec Spec
		n    int
	}{
		{"grid", Spec{Kind: "grid", Reach: 2}, 90},
		{"gilbert", Spec{Kind: "gilbert", Radius: 0.3}, 128},
		{"clique", Spec{}, 40},
	} {
		topo, err := tc.spec.BuildInto(tc.n, 7, sc)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < tc.n; v++ {
			heard := 0
			for u := 0; u < tc.n; u++ {
				if topo.Adjacent(u, v) {
					heard++
				}
			}
			if heard != topo.Degree(v) {
				t.Fatalf("%s: node %d hears %d nodes, Degree says %d", tc.name, v, heard, topo.Degree(v))
			}
		}
	}
}

// TestBuildIntoSteadyStateAllocs: rebuilding the same-shape Gilbert
// graph into a warmed scratch performs only the single boxing
// allocation of the *Gilbert value itself, and a grid, built into the
// scratch's own Grid, none.
func TestBuildIntoSteadyStateAllocs(t *testing.T) {
	spec := Spec{Kind: "gilbert", Radius: 0.25}
	sc := NewScratch()
	if _, err := spec.BuildInto(256, 0, sc); err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	if n := testing.AllocsPerRun(50, func() {
		seed++
		if _, err := spec.BuildInto(256, seed, sc); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("steady-state BuildInto allocated %.1f objects/op, want ≤ 2", n)
	}
	grid := Spec{Kind: "grid", Reach: 2}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := grid.BuildInto(256, 0, sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state grid BuildInto allocated %.1f objects/op, want 0", n)
	}
}

// TestAdjacencySymmetric pins a property of every current topology kind:
// u hears v exactly when v hears u (and Alice audibility is mutual by
// construction). The engine does not rely on it — it asks
// Adjacent(src, listener) in the listener's direction — but the
// models (clique, Chebyshev grid, Euclidean Gilbert) all promise it.
func TestAdjacencySymmetric(t *testing.T) {
	sc := NewScratch()
	for _, tc := range []struct {
		name string
		spec Spec
		n    int
	}{
		{"clique", Spec{}, 48},
		{"grid", Spec{Kind: "grid", Reach: 2}, 90},
		{"grid-reach1", Spec{Kind: "grid", Reach: 1}, 64},
		{"gilbert", Spec{Kind: "gilbert", Radius: 0.3}, 128},
		{"gilbert-sparse", Spec{Kind: "gilbert", Radius: 0.12}, 160},
	} {
		topo, err := tc.spec.BuildInto(tc.n, 11, sc)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < tc.n; v++ {
			for u := 0; u < tc.n; u++ {
				if topo.Adjacent(u, v) != topo.Adjacent(v, u) {
					t.Fatalf("%s: edge (%d,%d) not symmetric", tc.name, u, v)
				}
			}
		}
	}
}
