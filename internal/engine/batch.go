package engine

import (
	"context"
	"math"
	"slices"

	"rcbcast/internal/adversary"
	"rcbcast/internal/bitset"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/msg"
	"rcbcast/internal/sampling"
	"rcbcast/internal/topology"
)

// The batch kernel.
//
// RunBatch executes a slice of trials one after another, each to
// completion, on one reusable lane. The trials are independent — lanes
// may differ in every Options field — and every Result is
// byte-identical to Run's for the same Options (pinned by the
// differential and fuzz tests). Five things make a lane faster than the
// scalar engine:
//
//   - Block geometric draws. Every schedule a lane walks uses
//     sampling.BlockSchedule, which prefetches its slots in blocks
//     through rng.Stream.GeometricSlots — the draw is the engine's
//     dominant cost and its log/divide tail serializes in the scalar
//     engine. Over-drawing a stream is safe here because the
//     engine re-keys (Reseed) every schedule stream before each use.
//   - Bitset reception. The per-slot channel state is word-packed
//     bitsets plus the solo frame kind, replacing the scalar engine's
//     byte-per-slot counts array; observe checks the jam plan before
//     touching channel state at all. Under heavy jamming the scalar
//     engine misses cache on a counts load per listen just to discard
//     it; the kernel's hot listen path reads only packed bits.
//   - Indexed sparse reception. A phase runs sends, then (on sparse
//     topologies) reception-index construction, then listens. The index
//     pass walks the phase's transmissions through the CSR neighborhood
//     rows exactly once — scattering them into per-listener slot-sorted
//     rows, built only for listeners that actually listen this phase —
//     and the listen walks then merge their ascending sampled slots
//     against the row with monotone cursors: a listen below the next
//     event slot (own send, jam, or audible record) is silence by
//     construction and resolves with one compare, never touching channel
//     state; a prepaid node walk under an untargeted jam settles a
//     whole run of them at once. See buildRecvIndex and
//     walkNodeListensIdx.
//   - Cross-trial topology caching. Lanes resolve their graphs through
//     one topology.Cache: clique and grid specs are trial-invariant, so
//     every trial on a BatchScratch shares a single build and CSR;
//     Gilbert graphs are keyed by seed, so re-runs of a trial reuse
//     theirs.
//   - Unheard phases. A phase that no listener and no reactive strategy
//     can hear — the benign propagate phase once everyone is informed —
//     only draws, charges and counts its sends: no send records, channel
//     bits or reception index. See heard.
//
// The scalar engine (Run / RunContext) is the byte-identity oracle.

// BatchScratch recycles the batch kernel's working state across trials
// and RunBatch calls: the lane's engine Scratch, reception bitsets,
// block schedules and reception index, and the cross-trial topology
// cache. It must never be shared by concurrently executing batches;
// sim's workers pool them.
type BatchScratch struct {
	lane  batchLane
	sc    *Scratch
	cache *topology.Cache
}

// batchCacheGraphs is the topology cache's capacity: enough for a
// sweep's trial-invariant graph plus a few Gilbert builds that a
// differential oracle or a re-run looks up again.
const batchCacheGraphs = 4

// NewBatchScratch returns an empty batch scratch; buffers grow to the
// node counts and phase lengths the runs it serves need.
func NewBatchScratch() *BatchScratch {
	return &BatchScratch{sc: NewScratch(), cache: topology.NewCache(batchCacheGraphs)}
}

// Reception-index packing. A sparse transmission is one uint64 —
// slot<<33 | (src+txpSrcBias)<<2 | (kind-1) — so the per-phase record
// set sorts slot-major with plain slices.Sort (no comparator, no
// stability machinery: records that could swap under an unstable sort
// are either bit-identical or same-slot, and same-slot reception is
// order-blind — a solo record has nothing to swap with and two-plus
// records are noise for every listener however they are ordered).
// Slots are below 2^31 (Options.validate caps MaxPhaseSlots), node ids
// are int32, and msg defines exactly four frame kinds (1–4), so every
// record fits.
const (
	txpSlotShift = 33
	txpSrcShift  = 2
	txpSrcMask   = 1<<31 - 1
	txpKindMask  = 3
	// txpSrcBias shifts txSrcAdversary (-2) to zero so sources pack
	// unsigned.
	txpSrcBias = 2
)

// batchLane is one trial's execution state: its run plus the
// lane-owned reception bitsets, the block-draw schedules its walkers
// reuse (one node is walked to completion before the next, so two
// schedules suffice — data/listen and decoy), and the reception index.
type batchLane struct {
	r           *run
	busy, multi bitset.Set
	blkA, blkB  sampling.BlockSchedule

	// txp holds the phase's packed transmission records (sparse
	// topologies only), slot-sorted before the index build.
	txp []uint64
	// The reception index: listener v's audible transmissions for the
	// current phase occupy rowSlot/rowInfo[rowOff[v]:rowEnd[v]], slots
	// ascending; a collision is two-plus entries with the same slot
	// (adjacent by construction), resolved at lookup. Row n (one past
	// the node ids) is Alice's. Rows are built only for listeners whose
	// lmask bit is set — everyone else's row is empty, and nothing reads
	// it. Adversary injections are audible to every listener and stay
	// out of the rows; they merge at lookup from the slot-sorted
	// advSlot/advKind pair.
	rowOff  []int32
	rowEnd  []int32
	rowSlot []int32
	rowInfo []uint8
	advSlot []int32
	advKind []uint8
	// srcCnt is the index build's per-source transmission tally (index n
	// is Alice's), which lets the count pass walk each active source's
	// CSR row once instead of once per record.
	srcCnt []int32
	// aliceRow lists the scatter targets of Alice's transmissions (the
	// nodes mutually audible with her), rebuilt lazily in each index
	// build that sees an Alice record — cache entries rebuild in place
	// on eviction, so the CSR pointer alone cannot witness staleness.
	aliceRow []int32
	// lmask marks which listeners (index n is Alice) listen in the
	// current phase; the index build skips everyone else's row. The
	// listener set is fixed once sends settle: a walk only mutates its
	// own listener's state, so the mask computed between the send and
	// listen passes is exact.
	lmask []bool
}

// RunBatch executes the trials on the batch kernel, one after another,
// and returns their Results indexed like opts. Every Result is
// byte-identical to Run(opts[i]); the options may differ in every
// field. Strategy and Pool instances carry per-run state and must not
// be shared across entries. A nil scratch allocates fresh working
// state.
func RunBatch(opts []Options, bs *BatchScratch) ([]*Result, error) {
	return RunBatchContext(nil, opts, bs)
}

// RunBatchContext is RunBatch checking ctx once per phase. Cancellation
// returns the running trial's *PartialRunError; no Results accompany it
// (as with RunContext, partial-state invariants do not hold).
func RunBatchContext(ctx context.Context, opts []Options, bs *BatchScratch) ([]*Result, error) {
	if len(opts) == 0 {
		return nil, nil
	}
	if bs == nil {
		bs = NewBatchScratch()
	}
	results := make([]*Result, len(opts))
	for i := range opts {
		res, err := bs.run(ctx, opts[i])
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// run executes one trial on the scratch's lane.
func (bs *BatchScratch) run(ctx context.Context, o Options) (*Result, error) {
	if o.Scratch == nil {
		o.Scratch = bs.sc
	}
	r, err := newRunTopo(&o, bs.cache.Get)
	if err != nil {
		return nil, err
	}
	defer r.releaseScratch()
	l := &bs.lane
	l.r = r
	err = r.loop(ctx, l.phase)
	l.r = nil
	if err != nil {
		return nil, err
	}
	return r.result(), nil
}

// phase mirrors run.runPhase on the kernel's reception state:
// transmissions committed and charged, the adversary's plan fixed, the
// sparse reception index built, then listens resolved and the phase
// settled exactly as run.runPhase settles it. An unheard phase (see
// heard) still draws and charges every send and plans the adversary,
// but commits nothing to the channel and builds no index. The walkers
// share this call's copy of the phase by pointer: a core.Phase is about
// a dozen words, and copying it per node per walk showed in profiles.
func (l *batchLane) phase(phv core.Phase) {
	r := l.r
	ph := &phv
	l.ensureBuffers(ph.Length)
	out := adversary.PhaseOutcome{Phase: phv}
	if r.opts.Tracer != nil {
		r.opts.Tracer.PhaseStart(phv)
	}

	heard := l.heard(ph)
	l.aliceSends(ph, &out, heard)
	for i := range r.nodes {
		l.planNodeSends(&r.nodes[i], ph, &out, heard)
	}
	if heard {
		l.mergeNodeSends(&out)
	}
	plan := l.adversaryPlan(ph, &out, heard)
	if heard && r.topo != nil {
		slices.Sort(l.txp)
		l.buildRecvIndex(ph)
	}

	for i := range r.nodes {
		l.walkNodeListens(&r.nodes[i], ph, plan)
	}
	for i := range r.nodes {
		out.NodeListens += r.nodes[i].phaseListens
	}
	l.aliceListens(ph, plan, &out)

	aliceWasActive := r.alice.active()
	terminatedBefore := r.terminatedSet()
	r.endPhase(phv)
	r.emitTrace(phv, aliceWasActive, terminatedBefore)
	r.recordOutcome(out)
	if r.opts.Tracer != nil {
		r.opts.Tracer.PhaseEnd(r.hist.Outcomes[len(r.hist.Outcomes)-1])
	}
	r.slots += int64(ph.Length)
	r.lastRound = ph.Round
	l.clearDirty()
	if plan != nil {
		plan.Release()
	}
}

// heard reports whether anything can read this phase's channel state:
// an active, uninformed node that may listen, a live Alice who may
// listen, or a reactive strategy, which plans from the busy set. When
// nothing can, the phase's transmissions matter only as counts and
// charges, so the send walkers tally them into the outcome and skip the
// per-send records, the channel bits and the reception index. The
// answer is taken before any sends and cannot turn false-to-true during
// them: sends only ever stop a party (budget death), never inform or
// revive one, so every listen walk of an unheard phase returns at once,
// as the scalar engine's does.
func (l *batchLane) heard(ph *core.Phase) bool {
	r := l.r
	if _, ok := r.strategy.(adversary.Reactive); ok && r.opts.AllowReactive {
		return true
	}
	if ph.AliceListenP > 0 && r.alice.active() {
		return true
	}
	for i := range r.nodes {
		nd := &r.nodes[i]
		if nd.active() && !nd.informed && clamp01(ph.NodeListenP*nd.listenScale) > 0 {
			return true
		}
	}
	return false
}

// ensureBuffers sizes the lane's per-slot reception state. Sparse lanes
// need only the busy prescreen bitset (their listener-resolved state
// lives in the reception index); dense lanes add the multi bitset and
// the solo-kind bytes, read only on an actual solo reception. Resize
// keeps contents, which are all-zero between phases by the
// dirty-clearing discipline. The scalar counts array is never touched
// by the batch kernel.
func (l *batchLane) ensureBuffers(length int) {
	r := l.r
	l.busy.Resize(length)
	if r.topo != nil {
		return
	}
	resize(&r.soloKind, length)
	l.multi.Resize(length)
}

// resize sets *s to length n, reallocating (zeroed) only when its
// capacity is short; otherwise the contents within n are kept.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// clearDirty restores the all-zero between-phases channel state. Sparse
// lanes write only the busy bits (their listener-resolved state lives in
// the reception index), so one word-parallel reset suffices; the dense
// path clears multi against busy in one AndNot pass — collisions are a
// subset of traffic — and picks whole-array or per-dirty-slot soloKind
// clearing by how much of the phase was touched.
func (l *batchLane) clearDirty() {
	r := l.r
	if r.topo != nil {
		l.busy.Reset(l.busy.Len())
		l.txp = l.txp[:0]
		return
	}
	l.multi.AndNot(&l.busy)
	l.busy.Reset(l.busy.Len())
	if len(r.dirty)*8 >= len(r.soloKind) {
		clear(r.soloKind)
	} else {
		for _, s := range r.dirty {
			r.soloKind[s] = 0
		}
	}
	r.dirty = r.dirty[:0]
}

// addTx mirrors run.addTx on the batch kernel's reception state. Dense
// lanes keep the busy/multi/soloKind encoding (reception distinguishes
// only zero, one, and many). Sparse lanes set just the busy prescreen
// bit — their reception is listener-relative — and record the
// transmission packed for the index build.
func (l *batchLane) addTx(slot int, kind msg.Kind, src int32) {
	r := l.r
	if r.topo == nil {
		if !l.busy.Get(slot) {
			l.busy.Set(slot)
			r.soloKind[slot] = uint8(kind)
			r.dirty = append(r.dirty, int32(slot))
		} else {
			l.multi.Set(slot)
		}
		return
	}
	l.busy.Set(slot)
	l.txp = append(l.txp,
		uint64(slot)<<txpSlotShift|
			uint64(src+txpSrcBias)<<txpSrcShift|
			uint64(kind-1))
}

// buildRecvIndex scatters the phase's slot-sorted transmission records
// through the CSR neighborhood rows into per-listener reception rows —
// the phase's one CSR traversal. Counting-sort construction: a
// per-source tally sizes each listener's row with one walk of each
// active source's row (not one per record), a prefix sum lays the rows
// out back-to-back in one entry array, and a fill pass in record order
// — so rows come out slot-ascending — writes the entries. Collisions
// stay as adjacent same-slot entries; the lookup resolves them with one
// extra compare, which keeps the fill pass cheap. Rows are built only
// for listeners the phase's lmask marks as listening — informed nodes
// never listen, so late-trial phases scatter to a shrinking set — and
// adversary records, audible to every listener, stay out of the rows
// (they would turn the index dense) and merge at lookup from the
// slot-sorted advSlot/advKind side arrays.
func (l *batchLane) buildRecvIndex(ph *core.Phase) {
	r := l.r
	n := len(r.nodes)
	srcCnt := resize(&l.srcCnt, n+1)
	clear(srcCnt)
	lm := resize(&l.lmask, n+1)
	for i := range r.nodes {
		nd := &r.nodes[i]
		lm[nd.id] = nd.active() && !nd.informed &&
			clamp01(ph.NodeListenP*nd.listenScale) > 0
	}
	lm[n] = ph.AliceListenP > 0 && r.alice.active()
	l.advSlot = l.advSlot[:0]
	l.advKind = l.advKind[:0]
	for _, p := range l.txp {
		src := int32(p>>txpSrcShift&txpSrcMask) - txpSrcBias
		switch {
		case src >= 0:
			srcCnt[src]++
		case src == txSrcAlice:
			srcCnt[n]++
		}
	}
	cnt := resize(&l.rowEnd, n+1) // counts now, fill cursors after the prefix sum
	clear(cnt)
	for u := 0; u < n; u++ {
		c := srcCnt[u]
		if c == 0 {
			continue
		}
		for _, v := range r.csr.Row(u) {
			if lm[v] {
				cnt[v] += c
			}
		}
		if lm[n] && r.csr.AliceHears(u) {
			cnt[n] += c
		}
	}
	if ac := srcCnt[n]; ac > 0 {
		l.aliceRow = r.csr.AppendAliceAudible(l.aliceRow[:0])
		for _, v := range l.aliceRow {
			if lm[v] {
				cnt[v] += ac
			}
		}
		if lm[n] {
			cnt[n] += ac // Alice hears her own transmissions
		}
	}
	off := resize(&l.rowOff, n+2)
	off[0] = 0
	for v := 0; v <= n; v++ {
		off[v+1] = off[v] + cnt[v]
	}
	total := int(off[n+1])
	resize(&l.rowSlot, total)
	resize(&l.rowInfo, total)
	copy(l.rowEnd, off[:n+1])
	for _, p := range l.txp {
		slot := int32(p >> txpSlotShift)
		src := int32(p>>txpSrcShift&txpSrcMask) - txpSrcBias
		kind := uint8(p&txpKindMask) + 1
		switch {
		case src >= 0:
			for _, v := range r.csr.Row(int(src)) {
				if lm[v] {
					l.scatter(v, slot, kind)
				}
			}
			if lm[n] && r.csr.AliceHears(int(src)) {
				l.scatter(int32(n), slot, kind)
			}
		case src == txSrcAlice:
			if lm[n] {
				l.scatter(int32(n), slot, kind)
			}
			for _, v := range l.aliceRow {
				if lm[v] {
					l.scatter(v, slot, kind)
				}
			}
		default:
			l.advSlot = append(l.advSlot, slot)
			l.advKind = append(l.advKind, kind)
		}
	}
}

// scatter appends one audible transmission to listener row v — three
// stores, no branches; rows inherit slot order from the sorted record
// walk driving the fill pass.
func (l *batchLane) scatter(v, slot int32, kind uint8) {
	e := l.rowEnd[v]
	l.rowSlot[e] = slot
	l.rowInfo[e] = kind
	l.rowEnd[v] = e + 1
}

// observe mirrors run.observe on a dense lane with the load order
// inverted: the jam plan is consulted before any channel state, so a
// jammed listen — the common case under the strategies that matter —
// resolves without touching the per-slot arrays at all. The outputs are
// identical for every input: jammed slots are noise in both kernels
// regardless of traffic. Sparse lanes never observe: their listens
// resolve through the reception index (walkNodeListensIdx,
// aliceListensIdx).
func (l *batchLane) observe(slot, listener int, plan *adversary.Plan) (msg.Kind, outcome) {
	if plan != nil && plan.Jammed(slot) && plan.Disrupts(slot, listener) {
		return 0, outcomeNoise
	}
	if !l.busy.Get(slot) {
		return 0, outcomeSilence
	}
	if l.multi.Get(slot) {
		return 0, outcomeNoise
	}
	return msg.Kind(l.r.soloKind[slot]), outcomeReceived
}

// planNodeSends mirrors run.planNodeSends walking the lane's block
// schedules: same streams, same keyed draws, same merge and charging
// order, slot sequences pinned identical by the sampling differential
// tests. In an unheard phase (!heard) the sends are tallied into out as
// they are charged instead of recorded for mergeNodeSends, so a node
// that dies mid-walk has tallied exactly the sends the scalar engine
// merges.
func (l *batchLane) planNodeSends(n *nodeState, ph *core.Phase, out *adversary.PhaseOutcome, heard bool) {
	r := l.r
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
	var dSlot, cSlot int
	var dOK, cOK bool
	if dataP > 0 {
		n.streamA.Reseed(r.opts.Seed, nodeActor(n.id), round, ord, purpSend)
		l.blkA.Reset(&n.streamA, dataP, ph.Length)
		dSlot, dOK = l.blkA.Next()
	}
	if decoyP > 0 {
		n.streamB.Reseed(r.opts.Seed, nodeActor(n.id), round, ord, purpDecoy)
		l.blkB.Reset(&n.streamB, decoyP, ph.Length)
		cSlot, cOK = l.blkB.Next()
	}

	// When the meter covers the phase's worst case (a data and a decoy
	// stream can emit at most 2·Length sends), no send can exhaust it
	// mid-walk, so the per-send charges fold into one ChargeN at the
	// end — Meter charges are pure accumulation, so the final state is
	// identical. Otherwise take the scalar per-send path, whose
	// mid-walk death is observable.
	prepaid := n.meter.CanAfford(2 * int64(ph.Length))
	sends := int64(0)
	if !heard && prepaid && !cOK {
		// Unheard, prepaid and without decoys, the walk's only effect is
		// the data schedule's length: count it a block at a time.
		if dOK {
			sends = 1
			for blk := l.blkA.Take(); len(blk) > 0; blk = l.blkA.Take() {
				sends += int64(len(blk))
			}
		}
		_ = n.meter.ChargeN(energy.Send, sends)
		countSend(out, dataKind, int(sends))
		return
	}
	for dOK || cOK {
		var slot int
		var kind msg.Kind
		switch {
		case dOK && (!cOK || dSlot <= cSlot):
			slot, kind = dSlot, dataKind
			if cOK && cSlot == dSlot {
				cSlot, cOK = l.blkB.Next()
			}
			dSlot, dOK = l.blkA.Next()
		default:
			slot, kind = cSlot, msg.KindDecoy
			cSlot, cOK = l.blkB.Next()
		}
		if prepaid {
			sends++
		} else if err := n.meter.Charge(energy.Send); err != nil {
			n.dead = true
			return
		}
		if heard {
			n.sendSlots = append(n.sendSlots, int32(slot))
			n.sendKinds = append(n.sendKinds, kind)
		} else {
			countSend(out, kind, 1)
		}
	}
	if prepaid {
		_ = n.meter.ChargeN(energy.Send, sends)
	}
}

// mergeNodeSends mirrors run.mergeNodeSends through the lane's addTx.
func (l *batchLane) mergeNodeSends(out *adversary.PhaseOutcome) {
	r := l.r
	for i := range r.nodes {
		n := &r.nodes[i]
		for j, slot := range n.sendSlots {
			kind := n.sendKinds[j]
			l.addTx(int(slot), kind, int32(n.id))
			countSend(out, kind, 1)
		}
	}
}

// countSend tallies k node transmissions of one kind into the phase
// outcome.
func countSend(out *adversary.PhaseOutcome, kind msg.Kind, k int) {
	switch kind {
	case msg.KindData:
		out.NodeDataSends += k
	case msg.KindNack:
		out.NodeNacks += k
	case msg.KindDecoy:
		out.NodeDecoys += k
	}
}

// aliceSends mirrors run.aliceSends on a block schedule; an unheard
// phase only counts and charges her sends.
func (l *batchLane) aliceSends(ph *core.Phase, out *adversary.PhaseOutcome, heard bool) {
	r := l.r
	if ph.AliceSendP <= 0 || !r.alice.active() {
		return
	}
	r.aliceStream.Reseed(r.opts.Seed, actorAlice, uint64(ph.Round), uint64(ph.Ordinal), purpSend)
	l.blkA.Reset(&r.aliceStream, ph.AliceSendP, ph.Length)
	prepaid := r.alice.meter.CanAfford(int64(ph.Length))
	sends := int64(0)
	for {
		slot, ok := l.blkA.Next()
		if !ok {
			break
		}
		if prepaid {
			sends++
		} else if err := r.alice.meter.Charge(energy.Send); err != nil {
			r.alice.dead = true
			return
		}
		if heard {
			l.addTx(slot, msg.KindData, txSrcAlice)
		}
		out.AliceSends++
	}
	if prepaid {
		_ = r.alice.meter.ChargeN(energy.Send, sends)
	}
}

// adversaryPlan mirrors run.adversaryPlan; the reactive RSSI view is
// one word-level union of the busy set instead of a per-dirty-slot
// loop (every busy slot carries correct-side traffic at plan time, so
// the sets are equal). An unheard phase plans and charges as usual but
// puts no injection on the channel.
func (l *batchLane) adversaryPlan(ph *core.Phase, out *adversary.PhaseOutcome, heard bool) *adversary.Plan {
	r := l.r
	r.advStream.Reseed(r.opts.Seed, actorAdversary, uint64(ph.Round), uint64(ph.Ordinal))
	st := &r.advStream
	var plan *adversary.Plan
	if reactive, ok := r.strategy.(adversary.Reactive); ok && r.opts.AllowReactive {
		r.activity.Reset(ph.Length)
		r.activity.OrBits(&l.busy)
		plan = reactive.PlanReactive(*ph, &r.activity, &r.hist, r.pool, st)
	} else {
		plan = r.strategy.PlanPhase(*ph, &r.hist, r.pool, st)
	}
	if plan == nil {
		return nil
	}

	jams := int64(plan.JamCount())
	if r.pool != nil && r.pool.Remaining() < jams {
		jams = plan.TruncateJamsAfter(r.pool.Remaining())
	}
	if r.pool != nil {
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
	if heard {
		for _, inj := range plan.Injections() {
			l.addTx(inj.Slot, inj.Frame.Kind, txSrcAdversary)
		}
	}
	if jams == 0 && keep == 0 {
		plan.Release()
		return nil
	}
	return plan
}

// walkNodeListens mirrors run.walkNodeListens on a block schedule and
// the lane's observe. Sparse lanes dispatch to the event-skip loop over
// the reception index instead.
func (l *batchLane) walkNodeListens(n *nodeState, ph *core.Phase, plan *adversary.Plan) {
	r := l.r
	if !n.active() || n.informed {
		return
	}
	listenP := clamp01(ph.NodeListenP * n.listenScale)
	if listenP <= 0 {
		return
	}
	n.streamA.Reseed(r.opts.Seed, nodeActor(n.id), uint64(ph.Round), uint64(ph.Ordinal), purpListen)
	l.blkA.Reset(&n.streamA, listenP, ph.Length)
	if r.topo != nil {
		l.walkNodeListensIdx(n, ph, plan)
		return
	}
	// A meter that covers every slot of the phase cannot exhaust
	// mid-walk, so the per-listen charges fold into one ChargeN —
	// charges are pure accumulation, so the final meter state is
	// identical. Otherwise keep the scalar per-listen path, whose
	// mid-walk death is observable.
	prepaid := n.meter.CanAfford(int64(ph.Length))
	listens := int64(0)
	si := 0
	// Consume whole draw blocks (Take) instead of a call per event; the
	// scalar loop's informed/dead checks before each event become
	// labeled breaks right after the state changes, which is the same
	// exit point — nothing else mutates them mid-walk.
outer:
	for {
		blk := l.blkA.Take()
		if len(blk) == 0 {
			break
		}
		for _, s32 := range blk {
			slot := int(s32)
			for si < len(n.sendSlots) && int(n.sendSlots[si]) < slot {
				si++
			}
			if si < len(n.sendSlots) && int(n.sendSlots[si]) == slot {
				continue
			}
			if prepaid {
				listens++
			} else if err := n.meter.Charge(energy.Listen); err != nil {
				n.dead = true
				break outer
			}
			n.phaseListens++
			kind, out := l.observe(slot, n.id, plan)
			if ph.Kind == core.PhaseRequest {
				n.listens++
				if out != outcomeSilence {
					n.noisy++
				}
			}
			if out == outcomeReceived && kind == msg.KindData {
				n.informed = true
				n.justInformed = true
				if ph.Kind == core.PhasePropagate {
					n.mark = core.InformMark(ph.Step)
				} else {
					n.mark = core.MarkInformPhase
				}
				break outer
			}
		}
	}
	if prepaid {
		_ = n.meter.ChargeN(energy.Listen, listens)
	}
}

// walkNodeListensIdx is the listen walk over a built reception index.
// The sampled slots ascend, so the walk keeps monotone cursors into the
// node's own reception row, the adversary records, and its send slots,
// and maintains nextEvent — the earliest upcoming slot in any of them.
// A jammed-and-disrupted listen short-circuits to noise on the plan's
// bit test alone, exactly as observe orders it (under a phase-wide jam
// every slot would be an "event"; the bitmap test keeps those listens
// as cheap as before), and steps the cursors past any event it covers. Below that, a listen before nextEvent is not the
// node's own send and has no audible record: it is silence by
// construction and settles with one compare, no channel state touched.
// Only event slots pay for full resolution. Every per-listen effect —
// charge order, tallies, the informed break — is the scalar walk's, so
// outcomes stay byte-identical.
//
// A quiet walk settles each run of drawn slots below nextEvent at once
// (quietRun): prepaid, nothing can fail mid-run, and with every jam
// disrupting every listener a quiet listen is noise exactly when the
// jam mask marks its slot, so the run adds its length to the listen
// tallies and its jam bits to the noise tally — no per-listen Jammed
// branch, which under a random jam is a coin flip. Event slots, unpaid
// walks, targeted plans and plans shorter than the phase (a custom
// strategy may return one; past its end nothing is jammed) keep the
// per-listen path.
func (l *batchLane) walkNodeListensIdx(n *nodeState, ph *core.Phase, plan *adversary.Plan) {
	lo, hi := l.rowOff[n.id], l.rowEnd[n.id]
	rs := l.rowSlot[lo:hi]
	ri := l.rowInfo[lo:hi]
	as := l.advSlot
	ak := l.advKind
	ss := n.sendSlots
	isReq := ph.Kind == core.PhaseRequest

	prepaid := n.meter.CanAfford(int64(ph.Length))
	// The walk's per-listen tallies accumulate in locals and flush once
	// at exit (every break lands past the loop) — the scalar walk's
	// per-listen field updates are pure accumulation, so the final state
	// is identical and the hot loop keeps its counters in registers.
	listens := int64(0)
	var phaseL int64
	var reqL, reqNoisy int
	var si, rc, ac int
	nextEvent := math.MaxInt
	if len(ss) > 0 {
		nextEvent = int(ss[0])
	}
	if len(rs) > 0 && int(rs[0]) < nextEvent {
		nextEvent = int(rs[0])
	}
	if len(as) > 0 && int(as[0]) < nextEvent {
		nextEvent = int(as[0])
	}
	quiet := prepaid
	var jam []uint64 // only request phases tally noise
	if quiet && plan != nil {
		words, ok := adversary.UntargetedJams(plan, ph.Length)
		quiet = ok
		if isReq {
			jam = words
		}
	}
outer:
	for {
		blk := l.blkA.Take()
		if len(blk) == 0 {
			break
		}
		for i := 0; i < len(blk); i++ {
			if quiet && int(blk[i]) < nextEvent {
				j, jammed := quietRun(blk, i, nextEvent, jam)
				k := j - i
				listens += int64(k)
				phaseL += int64(k)
				if isReq {
					reqL += k
					reqNoisy += jammed
				}
				if j == len(blk) {
					break
				}
				i = j
			}
			s32 := blk[i]
			slot := int(s32)
			if plan != nil && plan.Jammed(slot) {
				// Own sends are skipped before any observation, jammed
				// or not.
				for si < len(ss) && int(ss[si]) < slot {
					si++
				}
				if si < len(ss) && int(ss[si]) == slot {
					continue
				}
				if plan.Disrupts(slot, n.id) {
					if prepaid {
						listens++
					} else if err := n.meter.Charge(energy.Listen); err != nil {
						n.dead = true
						break outer
					}
					phaseL++
					if isReq {
						reqL++
						reqNoisy++
					}
					if slot >= nextEvent {
						// Step past the event it covers, so the listens
						// after it still settle as quiet runs.
						si, rc, ac, nextEvent = stepPast(ss, rs, as, si, rc, ac, s32)
					}
					continue
				}
				// Jammed but not disrupted for this listener: the slot
				// resolves audibly below, like any other.
			}
			if slot < nextEvent {
				// Quiet listen: silence, charged and counted only.
				if prepaid {
					listens++
				} else if err := n.meter.Charge(energy.Listen); err != nil {
					n.dead = true
					break outer
				}
				phaseL++
				if isReq {
					reqL++
				}
				continue
			}
			// Event slot: advance the cursors to it and resolve fully.
			for si < len(ss) && int(ss[si]) < slot {
				si++
			}
			for rc < len(rs) && rs[rc] < s32 {
				rc++
			}
			for ac < len(as) && as[ac] < s32 {
				ac++
			}
			isSend := si < len(ss) && int(ss[si]) == slot
			var kind msg.Kind
			heard := 0
			if rc < len(rs) && rs[rc] == s32 {
				if rc+1 < len(rs) && rs[rc+1] == s32 {
					heard = 2
				} else {
					heard = 1
					kind = msg.Kind(ri[rc])
				}
			}
			for j := ac; heard < 2 && j < len(as) && as[j] == s32; j++ {
				if heard++; heard == 1 {
					kind = msg.Kind(ak[j])
				}
			}
			si, rc, ac, nextEvent = stepPast(ss, rs, as, si, rc, ac, s32)
			if isSend {
				continue
			}
			if prepaid {
				listens++
			} else if err := n.meter.Charge(energy.Listen); err != nil {
				n.dead = true
				break outer
			}
			phaseL++
			if isReq {
				reqL++
				if heard != 0 {
					reqNoisy++
				}
			}
			if heard == 1 && kind == msg.KindData {
				n.informed = true
				n.justInformed = true
				if ph.Kind == core.PhasePropagate {
					n.mark = core.InformMark(ph.Step)
				} else {
					n.mark = core.MarkInformPhase
				}
				break outer
			}
		}
	}
	n.phaseListens += phaseL
	n.listens += reqL
	n.noisy += reqNoisy
	if prepaid {
		_ = n.meter.ChargeN(energy.Listen, listens)
	}
}

// stepPast steps the walk's cursors into its send slots ss, reception
// row rs and adversary records as past slot, and returns them with the
// refreshed nextEvent: the earliest slot still ahead in any of them.
func stepPast(ss, rs, as []int32, si, rc, ac int, slot int32) (int, int, int, int) {
	for si < len(ss) && ss[si] <= slot {
		si++
	}
	for rc < len(rs) && rs[rc] <= slot {
		rc++
	}
	for ac < len(as) && as[ac] <= slot {
		ac++
	}
	nextEvent := math.MaxInt
	if si < len(ss) {
		nextEvent = int(ss[si])
	}
	if rc < len(rs) && int(rs[rc]) < nextEvent {
		nextEvent = int(rs[rc])
	}
	if ac < len(as) && int(as[ac]) < nextEvent {
		nextEvent = int(as[ac])
	}
	return si, rc, ac, nextEvent
}

// quietRun returns the end j of the run blk[i:j] of slots below
// nextEvent and how many of them the jam mask jam marks; a nil jam
// counts none. Slots ascend, so the run is a prefix of blk[i:].
func quietRun(blk []int32, i, nextEvent int, jam []uint64) (j, jammed int) {
	j = i
	if jam == nil {
		for j < len(blk) && int(blk[j]) < nextEvent {
			j++
		}
		return j, 0
	}
	for ; j < len(blk) && int(blk[j]) < nextEvent; j++ {
		s := uint(blk[j])
		jammed += int(jam[s>>6] >> (s & 63) & 1)
	}
	return j, jammed
}

// aliceListens mirrors run.aliceListens on a block schedule, with the
// same event-skip dispatch as the node walks.
func (l *batchLane) aliceListens(ph *core.Phase, plan *adversary.Plan, out *adversary.PhaseOutcome) {
	r := l.r
	if ph.AliceListenP <= 0 || !r.alice.active() {
		return
	}
	r.aliceStream.Reseed(r.opts.Seed, actorAlice, uint64(ph.Round), uint64(ph.Ordinal), purpListen)
	l.blkA.Reset(&r.aliceStream, ph.AliceListenP, ph.Length)
	if r.topo != nil {
		l.aliceListensIdx(ph, plan, out)
		return
	}
	prepaid := r.alice.meter.CanAfford(int64(ph.Length))
	listens := int64(0)
outer:
	for {
		blk := l.blkA.Take()
		if len(blk) == 0 {
			break
		}
		for _, s32 := range blk {
			slot := int(s32)
			if prepaid {
				listens++
			} else if err := r.alice.meter.Charge(energy.Listen); err != nil {
				r.alice.dead = true
				break outer
			}
			_, o := l.observe(slot, msg.SenderAlice, plan)
			out.AliceListens++
			r.alice.listens++
			if o != outcomeSilence {
				r.alice.noisy++
			}
		}
	}
	if prepaid {
		_ = r.alice.meter.ChargeN(energy.Listen, listens)
	}
}

// aliceListensIdx is Alice's event-skip listen walk over row n of the
// reception index. She has no send slots to skip and never acts on the
// received kind — her tally only distinguishes silence from noise — so
// event resolution reduces to: disrupted jam, or any audible record at
// the slot. She listens only in request phases, O(log n) times each, a
// small share of the listen work, so her walk keeps the per-listen path
// and settles no quiet runs.
func (l *batchLane) aliceListensIdx(ph *core.Phase, plan *adversary.Plan, out *adversary.PhaseOutcome) {
	r := l.r
	n := len(r.nodes)
	lo, hi := l.rowOff[n], l.rowEnd[n]
	rs := l.rowSlot[lo:hi]
	as := l.advSlot

	prepaid := r.alice.meter.CanAfford(int64(ph.Length))
	// Tallies accumulate in locals and flush at exit, as in the node
	// walk.
	listens := int64(0)
	var heardL, noisyL int
	var rc, ac int
	nextEvent := math.MaxInt
	if len(rs) > 0 {
		nextEvent = int(rs[0])
	}
	if len(as) > 0 && int(as[0]) < nextEvent {
		nextEvent = int(as[0])
	}
outer:
	for {
		blk := l.blkA.Take()
		if len(blk) == 0 {
			break
		}
		for _, s32 := range blk {
			slot := int(s32)
			noisy := false
			if plan != nil && plan.Jammed(slot) && plan.Disrupts(slot, msg.SenderAlice) {
				noisy = true
			} else if slot >= nextEvent {
				for rc < len(rs) && rs[rc] < s32 {
					rc++
				}
				for ac < len(as) && as[ac] < s32 {
					ac++
				}
				noisy = (rc < len(rs) && rs[rc] == s32) ||
					(ac < len(as) && as[ac] == s32)
				for rc < len(rs) && rs[rc] == s32 {
					rc++
				}
				for ac < len(as) && as[ac] == s32 {
					ac++
				}
				nextEvent = math.MaxInt
				if rc < len(rs) {
					nextEvent = int(rs[rc])
				}
				if ac < len(as) && int(as[ac]) < nextEvent {
					nextEvent = int(as[ac])
				}
			}
			if prepaid {
				listens++
			} else if err := r.alice.meter.Charge(energy.Listen); err != nil {
				r.alice.dead = true
				break outer
			}
			heardL++
			if noisy {
				noisyL++
			}
		}
	}
	out.AliceListens += int64(heardL)
	r.alice.listens += heardL
	r.alice.noisy += noisyL
	if prepaid {
		_ = r.alice.meter.ChargeN(energy.Listen, listens)
	}
}
