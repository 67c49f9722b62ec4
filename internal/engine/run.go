package engine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/msg"
	"rcbcast/internal/rng"
	"rcbcast/internal/sampling"
	"rcbcast/internal/topology"
)

// Stream-key constants. Every random decision is drawn from the stream
// keyed (seed, actor, round, phase ordinal, purpose); the kernel and the
// scalar oracle use the same keys, which is what makes them bit-for-bit
// equivalent.
const (
	actorAlice     uint64 = 1
	actorAdversary uint64 = 2
	actorNodeBase  uint64 = 16

	purpSend   uint64 = 1
	purpListen uint64 = 2
	purpDecoy  uint64 = 3
)

func nodeActor(id int) uint64 { return actorNodeBase + uint64(id) }

// nodeState is one correct node. Only the walker processing it mutates
// it.
type nodeState struct {
	id         int
	meter      *energy.Meter
	informed   bool
	mark       core.InformMark
	terminated bool // clean protocol exit
	dead       bool // budget exhausted

	// request-phase quiet-test counters, reset each round
	listens, noisy int
	// reqQuietAll accumulates the quiet test across g-sweep sub-phases
	reqQuietAll bool
	// justInformed marks nodes informed during the current phase (for
	// deterministic trace emission at phase end)
	justInformed bool
	// phaseListens counts this phase's listen slots (for reporting)
	phaseListens int64

	// §4.2 heterogeneous-estimate multipliers
	listenScale, sendScale float64

	// this phase's committed transmissions, sorted by slot (the scalar
	// loop's; the kernel keeps them in its lane's flat send records)
	sendSlots []int32
	sendKinds []msg.Kind

	// Per-actor stream/schedule pairs, re-keyed in place each phase so
	// the walkers allocate nothing in steady state. Pair A carries the
	// data schedule during the send pass and the listen schedule during
	// the listen pass; pair B carries the decoy schedule.
	streamA, streamB rng.Stream
	schedA, schedB   sampling.SlotSchedule
}

func (n *nodeState) active() bool { return !n.terminated && !n.dead }

type aliceState struct {
	meter          *energy.Meter
	terminated     bool
	dead           bool
	listens, noisy int
	reqQuietAll    bool
	round          int
}

func (a *aliceState) active() bool { return !a.terminated && !a.dead }

// txRec is one committed transmission of the current phase, recorded
// only on sparse topologies, where reception depends on *who* sent.
type txRec struct {
	slot int32
	src  int32 // node id, or txSrcAlice / txSrcAdversary
	kind uint8
}

// Non-node transmission sources. txSrcAlice matches msg.SenderAlice so
// the listener encoding used by observe stays one namespace.
const (
	txSrcAlice     int32 = -1
	txSrcAdversary int32 = -2
)

// run holds the execution state shared by the kernel and the scalar
// oracle.
type run struct {
	opts     *Options
	params   core.Params // copy; run owns it
	strategy adversary.Strategy
	pool     *energy.Pool

	// topo is non-nil only for non-complete topologies. On a complete
	// one (the clique, or any spec whose graph is complete) every
	// transmission is audible: the scalar oracle resolves it from its
	// global counts, byte-identical to the pre-topology engine, and the
	// kernel from a bucket's length. csr is the flattened adjacency view
	// listens resolve against.
	topo topology.Topology
	csr  *topology.CSR

	nodes []nodeState
	alice aliceState
	hist  adversary.History

	// per-slot channel state for the current phase, cleared via dirty
	counts   []uint8 // transmission count, saturating
	soloKind []uint8 // frame kind when counts == 1
	dirty    []int32
	// txs records the phase's transmissions with their sources (sparse
	// topologies only), sorted by slot before the listen pass.
	txs []txRec
	// costSort is summarizeCosts's sort buffer, recycled with the scratch.
	costSort []int64

	// Reusable per-phase state for the single-threaded walkers (Alice,
	// the adversary, the round schedule, the reactive RSSI bitmap) —
	// re-keyed or reset in place so phases allocate nothing.
	aliceStream rng.Stream
	aliceSched  sampling.SlotSchedule
	advStream   rng.Stream
	activity    adversary.Bitmap
	sched       core.Schedule

	slots        int64
	lastRound    int
	totalJams    int64
	totalInjects int64
	phases       []adversary.PhaseOutcome
}

func newRun(opts *Options) (*run, error) {
	return newRunTopo(opts, false)
}

// newRunTopo is newRun with an optional topology cache: the batch
// kernel sets cached, so every trial on its scratch shares one build of
// a trial-invariant (grid) graph from the scratch's cache. Otherwise
// the graph builds into the run's scratch — what a Gilbert graph, fresh
// for every seed, always does. The graphs are byte-identical either
// way.
func newRunTopo(opts *Options, cached bool) (*run, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := &run{
		opts:     opts,
		params:   opts.Params,
		strategy: opts.strategy(),
		pool:     opts.Pool,
	}
	r.adoptScratch(r.params.N)
	if !opts.Topology.IsClique() {
		var topo topology.Topology
		var csr *topology.CSR
		var err error
		if cached && opts.Topology.TrialInvariant() {
			topo, csr, err = r.topoCache().Get(opts.Topology, r.params.N)
		} else {
			topo, err = opts.Topology.BuildInto(r.params.N, opts.Seed, r.topoScratch())
			if err == nil && !topo.Complete() {
				csr = topology.BuildCSR(topo, r.topoScratch())
			}
		}
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if !topo.Complete() {
			// Complete graphs (a reach-covering grid, say) resolve
			// identically as the clique.
			r.topo = topo
			r.csr = csr
		}
	}
	nodeBudget := int64(energy.Unlimited)
	if opts.NodeBudget > 0 {
		nodeBudget = opts.NodeBudget
	}
	aliceBudget := int64(energy.Unlimited)
	if opts.AliceBudget > 0 {
		aliceBudget = opts.AliceBudget
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		n.id = i
		if n.meter == nil {
			n.meter = energy.NewMeter(nodeBudget)
		} else {
			n.meter.Reset(nodeBudget)
		}
		n.listenScale, n.sendScale = 1, 1
		if opts.Perturb != nil {
			n.listenScale, n.sendScale = opts.Perturb(i)
		}
	}
	if r.alice.meter == nil {
		r.alice.meter = energy.NewMeter(aliceBudget)
	} else {
		r.alice.meter.Reset(aliceBudget)
	}
	r.hist.N = r.params.N
	return r, nil
}

// topoScratch returns the topology construction scratch carried by the
// run's engine Scratch (created lazily), or nil — fresh buffers — when
// the run has no scratch.
func (r *run) topoScratch() *topology.Scratch {
	sc := r.opts.Scratch
	if sc == nil {
		return nil
	}
	if sc.topo == nil {
		sc.topo = topology.NewScratch()
	}
	return sc.topo
}

// topoCache returns the trial-invariant graph cache carried by the
// run's engine Scratch (created lazily); only the batch kernel, which
// always runs on a scratch, asks for it.
func (r *run) topoCache() *topology.Cache {
	sc := r.opts.Scratch
	if sc.cache == nil {
		sc.cache = topology.NewCache(cacheGraphs)
	}
	return sc.cache
}

func (r *run) done() bool {
	if r.alice.active() {
		return false
	}
	for i := range r.nodes {
		if r.nodes[i].active() {
			return false
		}
	}
	return true
}

func (r *run) ensureBuffers(length int) {
	if cap(r.counts) < length {
		r.counts = make([]uint8, length)
		r.soloKind = make([]uint8, length)
	}
	r.counts = r.counts[:length]
	r.soloKind = r.soloKind[:length]
}

func (r *run) clearDirty() {
	for _, s := range r.dirty {
		r.counts[s] = 0
		r.soloKind[s] = 0
	}
	r.dirty = r.dirty[:0]
	r.txs = r.txs[:0]
}

// addTx registers one transmission in the current phase's channel
// state. src identifies the transmitter; it matters only on sparse
// topologies, where reception is resolved per listener.
func (r *run) addTx(slot int, kind msg.Kind, src int32) {
	c := r.counts[slot]
	if c == 0 {
		r.soloKind[slot] = uint8(kind)
		r.dirty = append(r.dirty, int32(slot))
	}
	if c < math.MaxUint8 {
		r.counts[slot] = c + 1
	}
	if r.topo != nil {
		r.txs = append(r.txs, txRec{slot: int32(slot), src: src, kind: uint8(kind)})
	}
}

// planNodeSends computes and charges one node's transmissions for the
// phase: relays of m in its assigned propagation step, NACKs when
// uninformed in the request phase, and decoy cover traffic in decoy mode.
// It touches only the node's own state.
func (r *run) planNodeSends(n *nodeState, ph core.Phase) {
	n.sendSlots = n.sendSlots[:0]
	n.sendKinds = n.sendKinds[:0]
	n.phaseListens = 0
	if !n.active() {
		return
	}
	var dataP float64
	var dataKind msg.Kind
	switch ph.Kind {
	case core.PhasePropagate:
		if n.informed && r.params.SendStep(n.mark) == ph.Step {
			dataP = clamp01(ph.NodeSendP * n.sendScale)
			dataKind = msg.KindData
		}
	case core.PhaseRequest:
		if !n.informed {
			dataP = clamp01(ph.NodeSendP * n.sendScale)
			dataKind = msg.KindNack
		}
	}
	decoyP := ph.DecoyP

	ord := uint64(ph.Ordinal)
	round := uint64(ph.Round)
	// The stream/schedule pairs are re-keyed in place on the node's own
	// state: same keyed sequences as freshly derived streams (pinned by
	// the rng value tests), zero steady-state allocation. A p = 0 side
	// never touches its stream, exactly as before.
	var dSlot, cSlot int
	var dOK, cOK bool
	if dataP > 0 {
		n.streamA.Reseed(r.opts.Seed, nodeActor(n.id), round, ord, purpSend)
		n.schedA.Reset(&n.streamA, dataP, ph.Length)
		dSlot, dOK = n.schedA.Next()
	}
	if decoyP > 0 {
		n.streamB.Reseed(r.opts.Seed, nodeActor(n.id), round, ord, purpDecoy)
		n.schedB.Reset(&n.streamB, decoyP, ph.Length)
		cSlot, cOK = n.schedB.Next()
	}

	// Merge the two schedules in slot order; on a tie the data frame wins
	// (one radio, one transmission per slot). Charge in slot order and
	// stop at budget exhaustion.
	for dOK || cOK {
		var slot int
		var kind msg.Kind
		switch {
		case dOK && (!cOK || dSlot <= cSlot):
			slot, kind = dSlot, dataKind
			if cOK && cSlot == dSlot {
				cSlot, cOK = n.schedB.Next()
			}
			dSlot, dOK = n.schedA.Next()
		default:
			slot, kind = cSlot, msg.KindDecoy
			cSlot, cOK = n.schedB.Next()
		}
		if err := n.meter.Charge(energy.Send); err != nil {
			n.dead = true
			return
		}
		n.sendSlots = append(n.sendSlots, int32(slot))
		n.sendKinds = append(n.sendKinds, kind)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// mergeNodeSends folds every node's committed transmissions into the
// shared per-slot channel state and tallies the phase outcome counters.
func (r *run) mergeNodeSends(out *adversary.PhaseOutcome) {
	for i := range r.nodes {
		n := &r.nodes[i]
		for j, slot := range n.sendSlots {
			kind := n.sendKinds[j]
			r.addTx(int(slot), kind, int32(n.id))
			switch kind {
			case msg.KindData:
				out.NodeDataSends++
			case msg.KindNack:
				out.NodeNacks++
			case msg.KindDecoy:
				out.NodeDecoys++
			}
		}
	}
}

// aliceSends commits and charges Alice's inform-phase transmissions.
func (r *run) aliceSends(ph core.Phase, out *adversary.PhaseOutcome) {
	if ph.AliceSendP <= 0 || !r.alice.active() {
		return
	}
	r.aliceStream.Reseed(r.opts.Seed, actorAlice, uint64(ph.Round), uint64(ph.Ordinal), purpSend)
	r.aliceSched.Reset(&r.aliceStream, ph.AliceSendP, ph.Length)
	for {
		slot, ok := r.aliceSched.Next()
		if !ok {
			return
		}
		if err := r.alice.meter.Charge(energy.Send); err != nil {
			r.alice.dead = true
			return
		}
		r.addTx(slot, msg.KindData, txSrcAlice)
		out.AliceSends++
	}
}

// activityBitmap snapshots which slots carry correct-side transmissions —
// the RSSI view granted to reactive strategies. The bitmap is the run's
// reused scratch: valid only for the duration of the PlanReactive call.
func (r *run) activityBitmap(length int) *adversary.Bitmap {
	r.activity.Reset(length)
	for _, s := range r.dirty {
		if r.counts[s] > 0 {
			r.activity.Set(int(s))
		}
	}
	return &r.activity
}

// adversaryPlan obtains, charges, and installs Carol's plan for the phase.
// Jams are charged first, then injections, each truncated in slot order at
// pool exhaustion.
func (r *run) adversaryPlan(ph core.Phase, out *adversary.PhaseOutcome) *adversary.Plan {
	r.advStream.Reseed(r.opts.Seed, actorAdversary, uint64(ph.Round), uint64(ph.Ordinal))
	st := &r.advStream
	var plan *adversary.Plan
	if reactive, ok := r.strategy.(adversary.Reactive); ok && r.opts.AllowReactive {
		plan = reactive.PlanReactive(ph, r.activityBitmap(ph.Length), &r.hist, r.pool, st)
	} else {
		plan = r.strategy.PlanPhase(ph, &r.hist, r.pool, st)
	}
	if plan == nil {
		return nil
	}

	jams := int64(plan.JamCount())
	if r.pool != nil && r.pool.Remaining() < jams {
		jams = plan.TruncateJamsAfter(r.pool.Remaining())
	}
	if r.pool != nil {
		// Cannot fail: jams was clamped to Remaining just above.
		_ = r.pool.Charge(energy.Jam, jams)
	}
	out.JammedSlots = jams
	r.totalJams += jams

	injections := plan.Injections()
	keep := int64(len(injections))
	if r.pool != nil && r.pool.Remaining() < keep {
		keep = plan.TruncateInjectionsAfter(r.pool.Remaining())
	}
	if r.pool != nil {
		_ = r.pool.Charge(energy.Send, keep)
	}
	out.InjectedFrames = keep
	r.totalInjects += keep
	for _, inj := range plan.Injections() {
		r.addTx(inj.Slot, inj.Frame.Kind, txSrcAdversary)
	}
	if jams == 0 && keep == 0 {
		plan.Release()
		return nil
	}
	return plan
}

// observe resolves one listener's perception of a slot, mirroring
// slotsim.Slot.Observe on the engine's compact channel state. The listener
// is assumed not to have transmitted in the slot (walkers enforce that).
// listener is a node id, or msg.SenderAlice for Alice's request-phase
// sampling.
func (r *run) observe(slot, listener int, plan *adversary.Plan) (msg.Kind, outcome) {
	jammed := plan != nil && plan.Jammed(slot) && plan.Disrupts(slot, listener)
	if r.topo != nil {
		return r.observeSparse(slot, listener, jammed)
	}
	c := r.counts[slot]
	switch {
	case c == 0 && !jammed:
		return 0, outcomeSilence
	case c == 1 && !jammed:
		return msg.Kind(r.soloKind[slot]), outcomeReceived
	default:
		return 0, outcomeNoise
	}
}

// observeSparse resolves the listener's perception against its
// neighborhood: exactly one *audible* transmitter delivers, two or more
// collide into noise, and transmitters out of range neither deliver nor
// collide (spatial reuse). Jamming stays global — Carol positions her
// devices at will, so every listener is assumed within range of a
// jammer, preserving the n-uniform threat model (DESIGN.md §9).
func (r *run) observeSparse(slot, listener int, jammed bool) (msg.Kind, outcome) {
	if jammed {
		return 0, outcomeNoise
	}
	if r.counts[slot] == 0 {
		return 0, outcomeSilence
	}
	// Hand-rolled lower-bound search: sort.Search's closure would
	// allocate on every listened slot.
	s := int32(slot)
	lo, hi := 0, len(r.txs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.txs[mid].slot < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	heard := 0
	var kind msg.Kind
	for i := lo; i < len(r.txs) && r.txs[i].slot == s; i++ {
		if !r.audible(r.txs[i].src, listener) {
			continue
		}
		if heard++; heard > 1 {
			return 0, outcomeNoise
		}
		kind = msg.Kind(r.txs[i].kind)
	}
	if heard == 0 {
		return 0, outcomeSilence
	}
	return kind, outcomeReceived
}

// audible reports whether the listener is in range of the transmitter.
// Adversarial transmissions are audible everywhere (worst-case device
// placement); Alice↔node audibility is symmetric. Walkers guarantee a
// node never listens to a slot it transmits in, so src == listener
// cannot occur for node sources. Queries resolve against the flattened
// CSR adjacency rather than the Topology interface: one bounded binary
// search over a compact row instead of a dynamic dispatch per
// transmission record.
func (r *run) audible(src int32, listener int) bool {
	switch {
	case src == txSrcAdversary:
		return true
	case src == txSrcAlice:
		return listener == msg.SenderAlice || r.csr.AliceHears(listener)
	case listener == msg.SenderAlice:
		return r.csr.AliceHears(int(src))
	default:
		return r.csr.Adjacent(int(src), listener)
	}
}

type outcome uint8

const (
	outcomeSilence outcome = iota
	outcomeReceived
	outcomeNoise
)

// walkNodeListens resolves one uninformed node's listening for the phase.
// It reads the shared channel state and plan (both frozen) and mutates
// only the node.
func (r *run) walkNodeListens(n *nodeState, ph core.Phase, plan *adversary.Plan) {
	if !n.active() || n.informed {
		return
	}
	listenP := clamp01(ph.NodeListenP * n.listenScale)
	if listenP <= 0 {
		return
	}
	// Pair A is free again: the send pass finished before any listens.
	n.streamA.Reseed(r.opts.Seed, nodeActor(n.id), uint64(ph.Round), uint64(ph.Ordinal), purpListen)
	n.schedA.Reset(&n.streamA, listenP, ph.Length)
	si := 0
	for {
		slot, ok := n.schedA.Next()
		if !ok || n.informed || n.dead {
			return
		}
		// One radio: a node transmitting in this slot cannot listen.
		for si < len(n.sendSlots) && int(n.sendSlots[si]) < slot {
			si++
		}
		if si < len(n.sendSlots) && int(n.sendSlots[si]) == slot {
			continue
		}
		if err := n.meter.Charge(energy.Listen); err != nil {
			n.dead = true
			return
		}
		n.phaseListens++
		kind, out := r.observe(slot, n.id, plan)
		if ph.Kind == core.PhaseRequest {
			n.listens++
			if out != outcomeSilence {
				n.noisy++
			}
		}
		if out == outcomeReceived && kind == msg.KindData {
			// Only genuinely authentic frames carry KindData (spoofs
			// carry KindSpoof and fail verification; see msg).
			n.informed = true
			n.justInformed = true
			if ph.Kind == core.PhasePropagate {
				n.mark = core.InformMark(ph.Step)
			} else {
				n.mark = core.MarkInformPhase
			}
		}
	}
}

// aliceListens resolves Alice's request-phase sampling.
func (r *run) aliceListens(ph core.Phase, plan *adversary.Plan, out *adversary.PhaseOutcome) {
	if ph.AliceListenP <= 0 || !r.alice.active() {
		return
	}
	r.aliceStream.Reseed(r.opts.Seed, actorAlice, uint64(ph.Round), uint64(ph.Ordinal), purpListen)
	r.aliceSched.Reset(&r.aliceStream, ph.AliceListenP, ph.Length)
	for {
		slot, ok := r.aliceSched.Next()
		if !ok {
			return
		}
		if err := r.alice.meter.Charge(energy.Listen); err != nil {
			r.alice.dead = true
			return
		}
		_, o := r.observe(slot, msg.SenderAlice, plan)
		out.AliceListens++
		r.alice.listens++
		if o != outcomeSilence {
			r.alice.noisy++
		}
	}
}

// endPhase applies the protocol's termination rules at a phase boundary.
// For g-swept phases (§4.2) the quiet test must pass in *every* sub-phase
// — some sub-phase uses a sending scale near the true n, and that one
// shows the real channel load — and propagation senders terminate only at
// their step's final sub-phase.
func (r *run) endPhase(ph core.Phase) {
	switch ph.Kind {
	case core.PhasePropagate:
		if !ph.LastSub {
			return
		}
		for i := range r.nodes {
			n := &r.nodes[i]
			if n.active() && n.informed && r.params.TerminationStep(n.mark) == ph.Step {
				n.terminated = true
			}
		}
	case core.PhaseRequest:
		mayTerminate := r.params.CanTerminate(ph.Round)
		first := ph.Sub <= 1
		for i := range r.nodes {
			n := &r.nodes[i]
			ok := r.params.ShouldTerminateQuiet(n.listens, n.noisy)
			if first {
				n.reqQuietAll = ok
			} else {
				n.reqQuietAll = n.reqQuietAll && ok
			}
			if ph.LastSub && mayTerminate && n.active() && !n.informed && n.reqQuietAll {
				n.terminated = true
			}
			n.listens, n.noisy = 0, 0
		}
		ok := r.params.ShouldTerminateQuiet(r.alice.listens, r.alice.noisy)
		if first {
			r.alice.reqQuietAll = ok
		} else {
			r.alice.reqQuietAll = r.alice.reqQuietAll && ok
		}
		if ph.LastSub && mayTerminate && r.alice.active() && r.alice.reqQuietAll {
			r.alice.terminated = true
			r.alice.round = ph.Round
		}
		r.alice.listens, r.alice.noisy = 0, 0
	}
}

// recordOutcome finalizes the phase's public record for the adaptive
// adversary and, optionally, the Result.
func (r *run) recordOutcome(out adversary.PhaseOutcome) {
	informed, active := 0, 0
	for i := range r.nodes {
		if r.nodes[i].informed {
			informed++
		}
		if r.nodes[i].active() {
			active++
		}
	}
	out.InformedAfter = informed
	out.ActiveAfter = active
	out.AliceActiveAfter = r.alice.active()
	r.hist.Outcomes = append(r.hist.Outcomes, out)
	if r.opts.RecordPhases {
		r.phases = append(r.phases, out)
	}
}

// runPhase executes one phase end to end on the scalar channel state.
func (r *run) runPhase(ph core.Phase) {
	r.ensureBuffers(ph.Length)
	out := adversary.PhaseOutcome{Phase: ph}
	if r.opts.Tracer != nil {
		r.opts.Tracer.PhaseStart(ph)
	}

	// Pass A: transmissions (committed and charged at phase start).
	r.aliceSends(ph, &out)
	for i := range r.nodes {
		r.planNodeSends(&r.nodes[i], ph)
	}
	r.mergeNodeSends(&out)

	// Carol plans (reactive strategies see the activity bitmap).
	plan := r.adversaryPlan(ph, &out)

	// Freeze the sparse transmission records in slot order so listeners
	// can resolve their neighborhoods by binary search.
	// slices.SortStableFunc rather than sort.SliceStable: no reflection
	// swapper, no per-phase closure allocation.
	if r.topo != nil && len(r.txs) > 1 {
		slices.SortStableFunc(r.txs, func(a, b txRec) int { return int(a.slot - b.slot) })
	}

	// Pass B: listens.
	for i := range r.nodes {
		r.walkNodeListens(&r.nodes[i], ph, plan)
		out.NodeListens += r.nodes[i].phaseListens
	}
	r.aliceListens(ph, plan, &out)

	aliceWasActive := r.alice.active()
	terminatedBefore := r.terminatedSet()
	r.endPhase(ph)
	r.emitTrace(ph, aliceWasActive, terminatedBefore)
	r.recordOutcome(out)
	if r.opts.Tracer != nil {
		// recordOutcome computed the informed/active tallies.
		r.opts.Tracer.PhaseEnd(r.hist.Outcomes[len(r.hist.Outcomes)-1])
	}
	r.slots += int64(ph.Length)
	r.lastRound = ph.Round
	r.clearDirty()
	if plan != nil {
		// The phase is fully resolved; recycle the plan's buffers.
		plan.Release()
	}
}

// terminatedSet snapshots which nodes have stopped, so emitTrace can
// report the delta after endPhase. Only allocated when tracing.
func (r *run) terminatedSet() []bool {
	if r.opts.Tracer == nil {
		return nil
	}
	set := make([]bool, len(r.nodes))
	for i := range r.nodes {
		set[i] = r.nodes[i].terminated || r.nodes[i].dead
	}
	return set
}

// emitTrace reports this phase's per-node events in node-id order.
func (r *run) emitTrace(ph core.Phase, aliceWasActive bool, terminatedBefore []bool) {
	t := r.opts.Tracer
	if t == nil {
		// Still clear the per-phase markers.
		for i := range r.nodes {
			r.nodes[i].justInformed = false
		}
		return
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		if n.justInformed {
			t.NodeInformed(n.id, ph)
			n.justInformed = false
		}
		stopped := n.terminated || n.dead
		if stopped && !terminatedBefore[i] {
			t.NodeTerminated(n.id, n.informed, ph)
		}
	}
	if aliceWasActive && r.alice.terminated {
		t.AliceTerminated(ph.Round)
	}
}

// loop drives phases until everyone stops or the round limit is reached;
// phase executes one phase (the batch kernel's lane, or the scalar
// oracle's runPhase). A nil ctx (the plain Run path) skips
// cancellation checks entirely; otherwise ctx is polled at every phase
// boundary and cancellation surfaces as a *PartialRunError.
func (r *run) loop(ctx context.Context, phase func(core.Phase)) error {
	r.sched.Reset(&r.params)
	for {
		if r.done() {
			break
		}
		if ctx != nil {
			select {
			case <-ctx.Done():
				return &PartialRunError{Rounds: r.lastRound, Slots: r.slots, Err: ctx.Err()}
			default:
			}
		}
		ph, ok := r.sched.Next()
		if !ok {
			break
		}
		if ph.Length > r.opts.maxPhaseSlots() {
			return ErrPhaseTooLong
		}
		phase(ph)
	}
	if r.opts.Tracer != nil {
		r.opts.Tracer.Done()
	}
	return nil
}

// result assembles the Result from final state.
func (r *run) result() *Result {
	res := &Result{
		N:                   r.params.N,
		Rounds:              r.lastRound,
		SlotsSimulated:      r.slots,
		NodeCosts:           make([]int64, len(r.nodes)),
		AdversaryJams:       r.totalJams,
		AdversaryInjections: r.totalInjects,
		AdversarySpent:      r.totalJams + r.totalInjects,
		StrategyName:        r.strategy.Name(),
		Phases:              r.phases,
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		res.NodeCosts[i] = n.meter.Spent()
		switch {
		case n.informed:
			res.Informed++
		case n.dead:
			res.Dead++
		case n.terminated:
			res.Stranded++
		}
		if n.active() {
			res.ActiveAtEnd++
		}
	}
	res.Completed = !r.alice.active() && res.ActiveAtEnd == 0
	snap := r.alice.meter.Snapshot()
	res.Alice = AliceStats{
		Sends:      snap.Sends,
		Listens:    snap.Listens,
		Cost:       snap.Spent,
		Terminated: r.alice.terminated,
		Dead:       r.alice.dead,
		Round:      r.alice.round,
	}
	res.NodeCost = summarizeCosts(res.NodeCosts, &r.costSort)
	return res
}

// summarizeCosts summarizes costs, leaving them as they are: min, max
// and mean in one pass, and the upper median, sorted[len/2], selected
// from a copy in *buf, which it grows as needed, so a recycled buffer
// makes it allocation-free.
func summarizeCosts(costs []int64, buf *[]int64) CostSummary {
	if len(costs) == 0 {
		return CostSummary{}
	}
	s := CostSummary{Min: costs[0], Max: costs[0]}
	var sum int64
	for _, c := range costs {
		s.Min, s.Max = min(s.Min, c), max(s.Max, c)
		sum += c
	}
	s.Mean = float64(sum) / float64(len(costs))
	*buf = append((*buf)[:0], costs...)
	s.Median = selectKth(*buf, len(costs)/2)
	return s
}

// selectKth returns the k-th smallest element of a (0-based), the value
// a sorted copy holds at k, reordering a in place: Hoare's FIND, which
// partitions around the current a[k] and keeps the side that holds k.
func selectKth(a []int64, k int) int64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x := a[k]
		i, j := lo, hi
		for i <= j {
			for a[i] < x {
				i++
			}
			for x < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return a[k]
}

// RunScalar executes the protocol on the scalar reference loop: one
// node at a time through the per-slot channel arrays, with scalar
// geometric draws. It is the differential tests' independent oracle for
// the batch kernel that Run executes on, and has no production caller.
// Results are byte-identical to Run's for identical Options; ctx (nil
// skips the checks) is polled at every phase boundary, and
// cancellation returns a *PartialRunError.
func RunScalar(ctx context.Context, opts Options) (*Result, error) {
	r, err := newRun(&opts)
	if err != nil {
		return nil, err
	}
	defer r.releaseScratch()
	if err := r.loop(ctx, r.runPhase); err != nil {
		return nil, err
	}
	return r.result(), nil
}
