// Package topology defines the neighborhood graph the engine resolves
// reception against — the generalization step from the paper's single
// shared channel to spatial network models.
//
// The paper analyzes a single-hop network: every device hears every
// other device, so the channel is one global medium (a clique). The
// natural generalization — resolve each listener's perception against
// its own neighborhood — subsumes that model and opens two more the
// related work studies: a lattice (the multi-hop grid extension) and
// Gilbert's random geometric graph (n points in the unit square,
// connected within radius r; see Reitzner et al., "Limit theory for the
// Gilbert graph", and Franceschetti et al. on Gilbert continuum
// percolation).
//
// A Topology is a fixed, immutable graph over Alice and the n correct
// nodes. Reception semantics on a topology (engine, DESIGN.md §9):
//
//   - a listener hears a frame iff exactly one *audible* transmitter
//     used the slot and the slot is not jammed; two or more audible
//     transmitters collide into noise; transmitters outside the
//     listener's neighborhood do not collide with it (spatial reuse);
//   - jamming and adversarial injections are global: Carol may position
//     her Byzantine devices anywhere, so the worst case is that every
//     listener is in range of one — the n-uniform threat model carries
//     over unchanged;
//   - on a complete graph (the clique) every transmission is audible,
//     so reception needs no adjacency query at all; the results stay
//     byte-identical to the pre-topology engine (pinned by the engine
//     equivalence tests and the -quick golden).
//
// The engine reads a sparse graph through this interface alone: a
// listen asks AliceHears and Adjacent of the Topology for each record
// transmitted in its slot. Neither sparse kind stores its edges: a grid
// answers from the two cells' coordinates, and a Gilbert graph from the
// two points and the cells they fall in, so a trial pays for the pairs
// it asks about rather than for every pair of the graph.
//
// Construction is deterministic: a Gilbert graph is drawn from the rng
// stream keyed (seed, StreamActor), so a trial's topology is a pure
// function of its engine seed and results stay reproducible across
// worker counts. StreamActor = 3 is reserved for topology construction
// in the engine's actor-ID key space (Alice = 1, adversary = 2, nodes
// = 16+; DESIGN.md §5.1, §9).
package topology

// StreamActor is the reserved rng actor ID for topology construction.
// Engine streams are keyed (seed, actor, ...); actor 3 belongs to the
// topology layer so graph randomness never collides with protocol
// randomness drawn from the same seed.
const StreamActor uint64 = 3

// Topology is an immutable neighborhood graph over Alice and n correct
// nodes. Implementations must be safe for concurrent readers: one
// instance may serve many goroutines' runs at once.
type Topology interface {
	// Name returns the topology kind ("clique", "grid", "gilbert").
	Name() string
	// N returns the number of correct nodes.
	N() int
	// Complete reports that every device hears every other device, so
	// the engine resolves reception without asking for adjacency.
	Complete() bool
	// AliceHears reports whether Alice and the node are in range of each
	// other (audibility is symmetric: it is used both for the node
	// hearing Alice's inform-phase frames and for Alice hearing the
	// node's request-phase NACKs).
	AliceHears(node int) bool
	// Adjacent reports whether listener hears transmissions from the
	// src node. Irreflexive: Adjacent(v, v) is false.
	Adjacent(src, listener int) bool
	// Degree returns the number of correct nodes adjacent to the node
	// (excluding Alice).
	Degree(node int) int
}

// Clique is the paper's single-hop model: one shared channel, every
// device in range of every other. It is the engine's default; being
// complete, it needs no adjacency queries.
type Clique struct{ n int }

// NewClique returns the complete topology over n nodes.
func NewClique(n int) Clique { return Clique{n: n} }

func (c Clique) Name() string             { return "clique" }
func (c Clique) N() int                   { return c.n }
func (c Clique) Complete() bool           { return true }
func (c Clique) AliceHears(int) bool      { return true }
func (c Clique) Adjacent(src, l int) bool { return src != l }
func (c Clique) Degree(int) int           { return c.n - 1 }

// ReachableWithin returns the number of nodes within `hops` edge-hops
// of Alice (an Alice→node edge is one hop, so hops == 0 reaches none),
// or all of Alice's connected component when hops < 0. This is the
// graph-theoretic delivery ceiling: the unmodified ε-BROADCAST protocol
// informs at most the ≤k-hop
// neighborhood of Alice on a sparse topology (nodes informed in the
// final propagation step never relay; DESIGN.md §9), and the multihop
// pipeline exists to push past it.
func ReachableWithin(t Topology, hops int) int {
	if hops == 0 {
		return 0
	}
	n := t.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var frontier []int
	for v := 0; v < n; v++ {
		if t.AliceHears(v) {
			dist[v] = 1
			frontier = append(frontier, v)
		}
	}
	reached := len(frontier)
	for d := 2; len(frontier) > 0 && (hops < 0 || d <= hops); d++ {
		var next []int
		for _, u := range frontier {
			for v := 0; v < n; v++ {
				if dist[v] < 0 && t.Adjacent(u, v) {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		reached += len(next)
		frontier = next
	}
	return reached
}
