// Package multihop extends ε-BROADCAST to multi-hop networks — the open
// question the paper poses in §5 ("whether these resource-competitive
// results have an analogue in multi-hop WSNs") — built entirely on the
// engine's one topology-aware kernel (internal/topology, DESIGN.md §9).
// The package carries no execution code of its own: it is orchestration
// and measurement over engine runs.
//
// Two constructions are provided:
//
// # The cluster pipeline (Run)
//
// A path of H single-hop clusters, each with n correct nodes on its own
// channel — an explicit clique topology cell; spatial reuse keeps
// adjacent clusters from interfering, as in cell-based MAC schemes.
// Cluster 0 is seeded by Alice. When cluster h reaches its (1-ε)
// delivery, one of its informed boundary nodes becomes the sender for
// cluster h+1 — this preserves the authentication story, because m
// carries Alice's tag and therefore any relay of it verifies
// (msg.Relay). The relay sender runs Alice's side of the protocol and
// so inherits her Õ(T^{1/(k+1)}) cost bound against a jammer spending T
// in that cluster.
//
// The resource-competitive consequences measured by experiment E12:
//
//   - latency is additive in hops (benign clusters cost O(first-round)
//     each) and Carol concentrating her whole budget on one cluster buys
//     the same delay she would in a single-hop network — no multi-hop
//     amplification;
//   - per-node cost is independent of H (each node participates in one
//     cluster only);
//   - stranding compounds multiplicatively: each hop can lose an
//     ε-fraction, so the end-to-end guarantee is (1-ε)^H, matching the
//     intuition that almost-everywhere guarantees weaken along paths.
//
// # The lattice wave (RunGrid)
//
// One engine execution on topology.Grid: every node resolves reception
// against its Chebyshev neighborhood and the broadcast crosses the
// lattice as a wave of informed rings. The unmodified single-hop
// protocol carries the wave exactly k hops — nodes informed in the
// final propagation step never relay (core.Params.SendStep) — so the
// ring profile RunGrid reports makes the protocol's single-hop design
// assumption measurable, and the pipeline above remains the
// construction that crosses arbitrarily long paths.
package multihop

import (
	"errors"
	"fmt"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
	"rcbcast/internal/rng"
	"rcbcast/internal/topology"
	"rcbcast/internal/trace"
)

// Options configures a multi-hop execution.
type Options struct {
	// Params configures each cluster's protocol instance (Params.N nodes
	// per cluster). Required; must Validate.
	Params core.Params
	// Hops is the number of clusters in the path (>= 1).
	Hops int
	// Seed drives all randomness; each cluster derives an independent
	// stream.
	Seed uint64
	// StrategyFor selects Carol's strategy per cluster (nil hop values
	// or a nil function mean no adversary in that cluster).
	StrategyFor func(hop int) adversary.Strategy
	// Pool is Carol's energy purse shared across every cluster: she may
	// concentrate it anywhere. nil means unlimited.
	Pool *energy.Pool
	// AllowReactive grants reactive strategies their RSSI view.
	AllowReactive bool
	// MinRelayFrac is the informed fraction a cluster must reach before
	// the pipeline advances (default 1/2: a majority of the cluster can
	// forward m). The pipeline stalls if a cluster falls short.
	MinRelayFrac float64
}

func (o *Options) minRelayFrac() float64 {
	if o.MinRelayFrac > 0 {
		return o.MinRelayFrac
	}
	return 0.5
}

// HopResult summarizes one cluster's broadcast.
type HopResult struct {
	Hop            int
	Informed       int
	InformedFrac   float64
	Slots          int64
	Rounds         int
	SenderCost     int64 // Alice in hop 0; the relay node afterwards
	MaxNodeCost    int64
	MedianNodeCost int64
	AdversarySpent int64
	Completed      bool
}

// Result is the end-to-end outcome.
type Result struct {
	Hops []HopResult
	// Reached reports whether the final cluster met the relay threshold.
	Reached bool
	// StalledAt is the first cluster that failed (-1 if none).
	StalledAt int
	// TotalSlots is the end-to-end latency (clusters run sequentially).
	TotalSlots int64
	// MaxNodeCost is the maximum single-device spend across all clusters
	// including relay senders.
	MaxNodeCost int64
	// AdversarySpent is Carol's total spend across all clusters.
	AdversarySpent int64
	// EndToEndFrac multiplies the per-hop informed fractions — the
	// (1-ε)^H guarantee.
	EndToEndFrac float64
}

// ErrBadHops is returned for a non-positive hop count.
var ErrBadHops = errors.New("multihop: Hops must be >= 1")

// Run executes the cluster pipeline.
func Run(opts Options) (*Result, error) {
	if opts.Hops < 1 {
		return nil, ErrBadHops
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, fmt.Errorf("multihop: %w", err)
	}
	res := &Result{StalledAt: -1, EndToEndFrac: 1}
	for hop := 0; hop < opts.Hops; hop++ {
		var strat adversary.Strategy
		if opts.StrategyFor != nil {
			strat = opts.StrategyFor(hop)
		}
		// Derive an independent seed per cluster so channels do not
		// share randomness.
		seed := rng.Mix(opts.Seed, uint64(hop)+1)
		// Each cluster is one kernel execution on an explicit clique
		// cell — the same code path a plain single-hop run takes, so
		// pipeline results are byte-identical to direct engine runs
		// (pinned by TestPipelineMatchesDirectEngineRuns).
		hopRes, err := engine.Run(engine.Options{
			Params:        opts.Params,
			Topology:      topology.Spec{Kind: "clique"},
			Seed:          seed,
			Strategy:      strat,
			Pool:          opts.Pool,
			AllowReactive: opts.AllowReactive,
		})
		if err != nil {
			return nil, fmt.Errorf("multihop: hop %d: %w", hop, err)
		}
		hr := HopResult{
			Hop:            hop,
			Informed:       hopRes.Informed,
			InformedFrac:   hopRes.InformedFrac(),
			Slots:          hopRes.SlotsSimulated,
			Rounds:         hopRes.Rounds,
			SenderCost:     hopRes.Alice.Cost,
			MaxNodeCost:    hopRes.NodeCost.Max,
			MedianNodeCost: hopRes.NodeCost.Median,
			AdversarySpent: hopRes.AdversarySpent,
			Completed:      hopRes.Completed,
		}
		res.Hops = append(res.Hops, hr)
		res.TotalSlots += hr.Slots
		res.AdversarySpent += hr.AdversarySpent
		res.EndToEndFrac *= hr.InformedFrac
		if hr.MaxNodeCost > res.MaxNodeCost {
			res.MaxNodeCost = hr.MaxNodeCost
		}
		// The relay sender of the next hop is a node of this cluster;
		// its sender-side cost counts against the node cost bound.
		if hr.SenderCost > res.MaxNodeCost && hop > 0 {
			res.MaxNodeCost = hr.SenderCost
		}
		if hr.InformedFrac < opts.minRelayFrac() {
			res.StalledAt = hop
			return res, nil
		}
	}
	res.Reached = true
	return res, nil
}

// GridOptions configures a lattice wave: one kernel execution on
// topology.Grid.
type GridOptions struct {
	// Params is the protocol instance over all Params.N lattice nodes.
	// Required; must Validate.
	Params core.Params
	// Width and Reach shape the lattice (topology.NewGrid defaults:
	// ceil(sqrt(n)) columns, reach 1).
	Width, Reach int
	// Seed drives every random decision.
	Seed uint64
	// Strategy is Carol; nil means no adversary.
	Strategy adversary.Strategy
	// Pool is Carol's energy purse. nil means unlimited.
	Pool *energy.Pool
	// ExtraRounds bounds the run past StartRound (default 3): nodes
	// beyond the k-hop wave never pass the quiet test, so an unbounded
	// lattice run only grinds to the natural round limit.
	ExtraRounds int
}

// GridResult pairs the kernel result with the lattice's wave profile.
type GridResult struct {
	*engine.Result
	// Reachable is Alice's k-hop ball on the lattice — the delivery
	// ceiling of the unmodified single-hop protocol.
	Reachable int
	// RingInformed[d] counts informed nodes at Chebyshev ring d of
	// Alice's corner (ring 0 is her own cell); RingSize[d] is the
	// ring's population. The wave dies past ring k·reach.
	RingInformed, RingSize []int
}

// RunGrid executes the lattice wave on the unified kernel.
func RunGrid(opts GridOptions) (*GridResult, error) {
	params := opts.Params
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("multihop: %w", err)
	}
	extra := opts.ExtraRounds
	if extra <= 0 {
		extra = 3
	}
	if params.MaxRound == 0 {
		params.MaxRound = params.StartRound + extra
	}
	spec := topology.Spec{Kind: "grid", Width: opts.Width, Reach: opts.Reach}
	// The engine's Result carries aggregates only; the per-node informed
	// flags the ring profile needs arrive through the tracer, which the
	// engine serializes deterministically.
	collector := &informedCollector{informed: make([]bool, params.N)}
	res, err := engine.Run(engine.Options{
		Params:   params,
		Topology: spec,
		Seed:     opts.Seed,
		Strategy: opts.Strategy,
		Pool:     opts.Pool,
		Tracer:   collector,
	})
	if err != nil {
		return nil, fmt.Errorf("multihop: %w", err)
	}
	gr := &GridResult{Result: res}
	topo, err := spec.Build(params.N, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("multihop: %w", err)
	}
	grid := topo.(*topology.Grid)
	gr.Reachable = topology.ReachableWithin(grid, params.K)
	for id := 0; id < params.N; id++ {
		d := chebFromOrigin(grid, id)
		for len(gr.RingSize) <= d {
			gr.RingSize = append(gr.RingSize, 0)
			gr.RingInformed = append(gr.RingInformed, 0)
		}
		gr.RingSize[d]++
		if collector.informed[id] {
			gr.RingInformed[d]++
		}
	}
	return gr, nil
}

// chebFromOrigin returns node id's Chebyshev distance from Alice's
// corner cell.
func chebFromOrigin(g *topology.Grid, id int) int {
	x, y := id%g.Width(), id/g.Width()
	if x > y {
		return x
	}
	return y
}

// informedCollector is the tracer RunGrid uses to recover per-node
// informedness from the kernel's deterministic event stream.
type informedCollector struct {
	trace.Nop
	informed []bool
}

func (c *informedCollector) NodeInformed(node int, _ core.Phase) { c.informed[node] = true }
