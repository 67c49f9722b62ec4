package engine

import (
	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/topology"
)

// Scratch recycles a run's working buffers — the per-slot channel
// state, the per-phase transmission records, the per-node states with
// their committed-send slices, the device meters, the adversary history
// and RSSI bitmap, the round schedule, the topology construction /
// CSR adjacency arrays, and the batch kernel's lane (reception bitsets,
// block schedules, reception index) with its cache of trial-invariant
// graphs — across executions. Run takes one from a pool; a tight trial
// loop may instead hand its own to consecutive runs via
// Options.Scratch. Together with the in-place stream/schedule API
// (rng.Stream.Reseed, sampling.SlotSchedule.Reset) this drives the
// steady-state allocation rate to the handful of Result-sized objects a
// run must hand out (pinned by TestSteadyStateAllocs).
//
// A Scratch carries no results between runs — every buffer is reset at
// adoption — so results are byte-identical with and without one (pinned
// by the engine reuse test). It must never be shared by concurrently
// executing runs.
type Scratch struct {
	counts, soloKind []uint8
	dirty            []int32
	txs              []txRec
	nodes            []nodeState
	aliceMeter       *energy.Meter
	outcomes         []adversary.PhaseOutcome
	activity         adversary.Bitmap
	sched            core.Schedule
	topo             *topology.Scratch // created on first sparse run

	// The batch kernel's lane state and its cache of trial-invariant
	// graphs (created on first use), reused across the kernel's trials.
	lane  batchLane
	cache *topology.Cache
}

// cacheGraphs is the topology cache's capacity: the trial-invariant
// graphs of a few sweep points (grid reaches, node counts) that one
// pooled scratch serves in turn.
const cacheGraphs = 4

// NewScratch returns an empty scratch; buffers grow to the sizes the
// runs it serves need.
func NewScratch() *Scratch { return &Scratch{} }

// adoptScratch moves the scratch's buffers (if any) into the run,
// resetting their contents. Node entries keep their meter, the
// capacity of their committed-send slices and their stream/schedule
// pairs (re-keyed in place before every use); every field a trial
// reads before it writes starts zeroed exactly as a fresh allocation
// would.
func (r *run) adoptScratch(n int) {
	sc := r.opts.Scratch
	if sc == nil {
		r.nodes = make([]nodeState, n)
		return
	}
	r.counts = sc.counts[:0]
	r.soloKind = sc.soloKind[:0]
	r.dirty = sc.dirty[:0]
	r.txs = sc.txs[:0]
	r.hist.Outcomes = sc.outcomes[:0]
	r.activity = sc.activity
	r.sched = sc.sched
	if cap(sc.nodes) >= n {
		r.nodes = sc.nodes[:n]
		for i := range r.nodes {
			// Field by field: a whole-struct assignment would copy
			// both rng streams, which every walk re-keys before use.
			// newRunTopo sets id, the meter budget and the scales.
			node := &r.nodes[i]
			node.informed, node.mark = false, 0
			node.terminated, node.dead = false, false
			node.listens, node.noisy = 0, 0
			node.reqQuietAll, node.justInformed = false, false
			node.phaseListens = 0
			node.sendSlots = node.sendSlots[:0]
			node.sendKinds = node.sendKinds[:0]
		}
	} else {
		r.nodes = make([]nodeState, n)
	}
	r.alice.meter = sc.aliceMeter
}

// releaseScratch hands the run's (possibly grown) buffers back to the
// scratch for the next run. Result-bound memory (NodeCosts, recorded
// Phases) is never recycled: it escapes to the caller.
func (r *run) releaseScratch() {
	sc := r.opts.Scratch
	if sc == nil {
		return
	}
	sc.counts, sc.soloKind = r.counts, r.soloKind
	sc.dirty, sc.txs = r.dirty, r.txs
	sc.nodes = r.nodes
	sc.aliceMeter = r.alice.meter
	sc.outcomes = r.hist.Outcomes
	sc.activity = r.activity
	sc.sched = r.sched
}
