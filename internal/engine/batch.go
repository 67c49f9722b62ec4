package engine

import (
	"context"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"rcbcast/internal/adversary"
	"rcbcast/internal/bitset"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/msg"
	"rcbcast/internal/rng"
	"rcbcast/internal/sampling"
)

// The batch kernel.
//
// Run and RunContext execute one trial, and RunBatch a slice of trials
// one after another, each to completion on one reusable lane. The
// trials are independent — lanes may differ in every Options field —
// and every Result is byte-identical to the scalar oracle's (RunScalar)
// for the same Options (pinned by the differential, trace and fuzz
// tests). Four things make a lane faster than the scalar loop:
//
//   - Lane-parallel listen draws. The draw is the engine's dominant
//     cost, and its log/divide tail serializes in the scalar engine.
//     Node listen walks — every listened slot is a draw, and they are
//     most of the draws — run eight at a time, one per lane of
//     rng.Lanes, whose one AVX-512 call advances all eight listen
//     streams a block (listenPass). Send walks, Alice's walks and the
//     last stragglers of a listen pass use sampling.BlockSchedule,
//     which prefetches one stream's slots in blocks through
//     rng.Stream.GeometricSlots. Over-drawing a stream is safe here
//     because the engine re-keys (Reseed) every schedule stream before
//     each use.
//   - Pull reception, one path for every topology. A phase runs sends,
//     then buckets its transmissions by slot, then listens. The only
//     per-slot channel state is a busy bitset, in place of the scalar
//     engine's byte-per-slot counts. The bucket pass (bucketTx)
//     counting-sorts the phase's records by the rank of their slot among
//     the busy slots, and a listen resolves by asking what its listener
//     hears (observe): its own send is skipped, a disrupting jam is
//     noise before any channel state is read, a slot with no traffic is
//     silence, and only a busy slot is heard out from its bucket (hear).
//     The clique is the complete topology, on which every record is
//     audible and a bucket's length decides.
//   - Quiet listens by mask. Under an untargeted plan covering the
//     phase, a prepaid node walk settles a drawn block with popcounts:
//     one rng.Lanes.Bits call per Draw (an AVX-512 gather) reads the
//     phase's hot (busy, unjammed) mask, and in request phases its jam
//     mask, at every lane's slots, and only hot slots are heard out one
//     at a time (feedQuiet).
//   - Unheard phases. A phase that no listener and no reactive strategy
//     can hear — the benign propagate phase once everyone is informed —
//     only draws, charges and counts its sends: no send records, channel
//     bits or buckets. See heard.
//
// The scalar loop (RunScalar) is the byte-identity oracle.

// BatchScratch recycles the batch kernel's working state across trials
// and RunBatch calls: one engine Scratch, which carries the lane's
// busy bitset, block schedules and transmission buckets next to the
// per-run buffers and the topology construction scratch. It must never
// be shared by concurrently executing batches.
type BatchScratch struct{ sc *Scratch }

// NewBatchScratch returns an empty batch scratch; buffers grow to the
// node counts and phase lengths the runs it serves need.
func NewBatchScratch() *BatchScratch { return &BatchScratch{sc: NewScratch()} }

// batchLane is one trial's execution state: its run plus the
// lane-owned busy bitset, the phase's send records, the draw
// schedules its walkers reuse, and the transmission buckets. Send walks and
// Alice's walks run one at a time on two block schedules (data and
// decoy); node listen walks run eight at a time, one per draw lane (see
// listenPass), and a walk that leaves the lanes finishes on blkA.
type batchLane struct {
	r          *run
	busy       bitset.Set
	blkA, blkB sampling.BlockSchedule
	draws      rng.Lanes
	walks      [8]listenWalk

	// The phase's committed node transmissions (heard phases only), node
	// by node in id order: node i's occupy sendSlot/sendKind[sendOff[i]:
	// sendOff[i+1]], slots ascending. One buffer for every node keeps
	// their high-water mark in one place.
	sendSlot []int32
	sendKind []msg.Kind
	sendOff  []int32
	// The listen pass's view of the plan: whether quiet walks may settle
	// by mask (no targeting predicate, a plan covering the phase), the hot
	// slots a quiet walk must hear out (busy and unjammed) and the jam
	// words request-phase walks count noise from.
	quietOK bool
	hot     []uint64
	jam     []uint64
	seen    quietSeen

	// The phase's transmissions (heard phases only): txs as committed,
	// then bucketed by slot (see bucketTx) — the records of the busy slot
	// of rank k occupy txb[txStart[k]:txStart[k+1]], and rank[w] counts
	// the busy slots in the busy words before word w.
	txs, txb []txRec
	txStart  []int32
	rank     []int32
}

// quietSeen counts the quiet walks' rarer cases, so the differential
// tests can prove their rows reach them: a drawn own send on a hot slot,
// a request-phase walk informed at a hot slot past jammed listens of its
// block, and a block masked in Go (a straggler's or a p >= 1 walk's,
// off the draw lanes).
type quietSeen struct{ hotSends, informAfterJam, goMasks int }

// scratches recycles the kernel's working state across Run calls that
// bring no Options.Scratch. Results are byte-identical with and without
// reuse (the scratch tests pin that).
var scratches scratchList

// scratchList is a free list of idle scratches, most recently returned
// first, holding at most GOMAXPROCS of them. It is not a sync.Pool: a
// pool keeps one scratch per P and drops idle ones at every GC, so a
// worker that moved to another P, or sat across two collections, got a
// cold scratch and regrew its buffers (about 330 KB for a Gilbert graph
// at n=256), and how many scratches a process held followed GC timing
// and scheduling. Here k concurrent runs (k <= GOMAXPROCS) build k
// scratches once and keep them; a caller that wants the memory back
// passes its own Options.Scratch.
type scratchList struct {
	mu   sync.Mutex
	idle []*Scratch
}

func (l *scratchList) get() *Scratch {
	l.mu.Lock()
	n := len(l.idle)
	if n == 0 {
		l.mu.Unlock()
		return NewScratch()
	}
	sc := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	l.mu.Unlock()
	return sc
}

func (l *scratchList) put(sc *Scratch) {
	l.mu.Lock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, sc)
	}
	l.mu.Unlock()
}

// Run executes the protocol on the batch kernel.
func Run(opts Options) (*Result, error) { return RunContext(nil, opts) }

// RunContext is Run checking ctx at every phase boundary (a nil ctx
// skips the checks). Cancellation returns a *PartialRunError; a run that
// completes before the context fires returns its Result exactly as Run
// would.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	if opts.Scratch == nil {
		sc := scratches.get()
		defer scratches.put(sc)
		opts.Scratch = sc
	}
	return runKernel(ctx, opts)
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
	for i, o := range opts {
		if o.Scratch == nil {
			o.Scratch = bs.sc
		}
		res, err := runKernel(ctx, o)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// runKernel executes one trial on the lane of o.Scratch, which must be
// non-nil.
func runKernel(ctx context.Context, o Options) (*Result, error) {
	r, err := newRun(&o)
	if err != nil {
		return nil, err
	}
	defer r.releaseScratch()
	l := &o.Scratch.lane
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
// transmissions bucketed by slot, then listens resolved and the
// phase settled exactly as run.runPhase settles it. An unheard phase
// (see heard) still draws and charges every send and plans the
// adversary, but commits nothing to the channel and buckets nothing. The walkers
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
	l.sendSlot, l.sendKind = l.sendSlot[:0], l.sendKind[:0]
	off := resize(&l.sendOff, len(r.nodes)+1)
	for i := range r.nodes {
		off[i] = int32(len(l.sendSlot))
		l.planNodeSends(&r.nodes[i], ph, &out, heard)
	}
	off[len(r.nodes)] = int32(len(l.sendSlot))
	if heard {
		l.mergeNodeSends(&out)
	}
	plan := l.adversaryPlan(ph, &out, heard)
	if heard {
		l.bucketTx()
	}

	l.listenPass(ph, plan)
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
// per-send records, the channel bits and the buckets. The
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

// ensureBuffers sizes the lane's per-slot reception state: the busy
// bitset alone, since who sent lives in the bucketed transmissions.
// Resize keeps contents, which are all-zero between phases (clearDirty).
// The scalar oracle's counts array is never touched by the batch kernel.
func (l *batchLane) ensureBuffers(length int) { l.busy.Resize(length) }

// resize sets *s to length n, keeping the backing array's contents
// within n (zero past its old capacity). A short capacity grows by
// append's policy rather than to exactly n, so a high-water mark that
// creeps up trial by trial (a phase's transmission count)
// reallocates a few times, not at every new peak.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = slices.Grow(*s, n-len(*s))
	}
	*s = (*s)[:n]
	return *s
}

// clearDirty restores the all-zero between-phases channel state: the
// busy bits are the only per-slot state (who sent lives in the
// transmission records), so one word-parallel reset suffices.
func (l *batchLane) clearDirty() {
	l.busy.Reset(l.busy.Len())
	l.txs = l.txs[:0]
}

// addTx mirrors run.addTx on the batch kernel's reception state: it sets
// the busy bit and records the transmission with its source, for
// bucketTx. Reception is listener-relative on every topology but the
// complete one, so the records keep who sent.
func (l *batchLane) addTx(slot int, kind msg.Kind, src int32) {
	l.busy.Set(slot)
	l.txs = append(l.txs, txRec{slot: int32(slot), src: src, kind: uint8(kind)})
}

// bucketTx counting-sorts the phase's transmissions into txb by the
// rank of their slot among the busy slots: the rank of slot s is the
// popcount of the busy words before its word (rank) plus that of the
// busy bits below it in its own word. This costs O(records +
// length/64), and a listen finds its slot's bucket with two popcounts
// (slotRank). Order within a bucket is immaterial: a solo record
// has nothing to swap with, and two-plus audible records are noise
// however they are ordered.
func (l *batchLane) bucketTx() {
	busy := l.busy.Words()
	rank := resize(&l.rank, len(busy))
	busySlots := int32(0)
	for w, word := range busy {
		rank[w] = busySlots
		busySlots += int32(bits.OnesCount64(word))
	}
	// Count each bucket into its end, then fill it downwards: the end
	// cursors finish as the bucket starts, and txStart[busySlots] as
	// the total.
	start := resize(&l.txStart, int(busySlots)+1)
	clear(start)
	for _, tx := range l.txs {
		start[l.slotRank(int(tx.slot))]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	txb := resize(&l.txb, len(l.txs))
	for _, tx := range l.txs {
		k := l.slotRank(int(tx.slot))
		start[k]--
		txb[start[k]] = tx
	}
}

// slotRank returns the rank of busy slot s among the phase's busy slots.
func (l *batchLane) slotRank(s int) int32 {
	w := s >> 6
	return l.rank[w] + int32(bits.OnesCount64(l.busy.Words()[w]&(1<<(s&63)-1)))
}

// observe mirrors run.observe with the jam plan consulted before any
// channel state, so a jammed listen — the common case under the
// strategies that matter — resolves without touching the busy bits or
// the buckets; then an idle slot is silence, and only a busy slot is
// heard out. The outputs equal the scalar oracle's for every input:
// jammed slots are noise in both regardless of traffic.
func (l *batchLane) observe(slot, listener int, plan *adversary.Plan) (msg.Kind, outcome) {
	if plan != nil && plan.Jammed(slot) && plan.Disrupts(slot, listener) {
		return 0, outcomeNoise
	}
	if !l.busy.Get(slot) {
		return 0, outcomeSilence
	}
	return l.hear(slot, listener)
}

// hear resolves the listener's perception of an undisrupted busy slot.
// On a complete topology every record is audible, so the bucket's
// length decides: one record delivers, two or more collide, as in the
// scalar oracle's counts. Otherwise it walks the slot's bucket as
// run.observeSparse walks the slot's records, under run.audible's
// rules, and stops at the second audible one.
func (l *batchLane) hear(slot, listener int) (msg.Kind, outcome) {
	k := l.slotRank(slot)
	recs := l.txb[l.txStart[k]:l.txStart[k+1]]
	if l.r.topo == nil {
		if len(recs) > 1 {
			return 0, outcomeNoise
		}
		return msg.Kind(recs[0].kind), outcomeReceived
	}
	heard := 0
	var kind msg.Kind
	for _, tx := range recs {
		if !l.r.audible(tx.src, listener) {
			continue
		}
		if heard++; heard > 1 {
			return 0, outcomeNoise
		}
		kind = msg.Kind(tx.kind)
	}
	if heard == 0 {
		return 0, outcomeSilence
	}
	return kind, outcomeReceived
}

// planNodeSends mirrors run.planNodeSends walking the lane's block
// schedules: same streams, same keyed draws, same merge and charging
// order, slot sequences pinned identical by the sampling differential
// tests. A heard phase appends the node's sends to the lane's send
// records (the caller plans nodes in id order and brackets each with
// sendOff); in an unheard phase (!heard) they are tallied into out as
// they are charged instead, so a node that dies mid-walk has tallied
// exactly the sends the scalar engine merges.
func (l *batchLane) planNodeSends(n *nodeState, ph *core.Phase, out *adversary.PhaseOutcome, heard bool) {
	r := l.r
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
			l.sendSlot = append(l.sendSlot, int32(slot))
			l.sendKind = append(l.sendKind, kind)
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
	for i := range l.r.nodes {
		for j := l.sendOff[i]; j < l.sendOff[i+1]; j++ {
			kind := l.sendKind[j]
			l.addTx(int(l.sendSlot[j]), kind, int32(i))
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

// laneMinLive is the fewest live lanes worth a lane-kernel call once no
// listener is left to fill the lanes: the call costs the same however
// many lanes are live, and on an AVX-512 Xeon (BenchmarkLaneDraw
// against BenchmarkGeometricBlock8, same invocation, ten runs at
// GOMAXPROCS=1) a full call costs as much as drawing the same blocks
// for about three lanes on the single-stream kernel (median 3.15, nine
// of ten runs within 3.0–3.3; 3.55 before both kernels' log lost its
// divide). Below it the stragglers finish one at a time on blkA.
const laneMinLive = 3

// listenWalk is one node's listen walk, resumable: it is fed its drawn
// slots a block at a time (feed) and settles its tallies at the end
// (finishWalk), so its cursor and tallies live here between blocks.
type listenWalk struct {
	n              *nodeState
	p              float64 // the walk's listen probability
	ss             []int32 // the node's own send slots
	si             int     // the cursor into ss
	prepaid, quiet bool
	listens        int64 // prepaid listens, charged at the end
	phaseL         int64
	reqL, reqNoisy int
}

// listenPass runs every node's listen walk: mirrors of run.walkNodeListens
// on the lane's channel state, fed from the draw lanes. Each listener
// (in id order) takes a free lane, with its listen stream re-keyed in
// place; one Lanes.Draw then advances every live lane's schedule a block,
// one Lanes.Bits (two in a request phase) reads the hot (and jam) mask at
// every lane's new slots when quiet walks may settle, and each walk is
// fed its block, and a lane whose walk ends (informed, dead or its
// schedule exhausted) takes the next listener. Walks touch only their
// own node and meter, and the plan and channel state are
// read-only here, so interleaving them is unobservable: every Result
// stays byte-identical to the scalar oracle's, which walks node by node.
// Once no listener is left and fewer than laneMinLive lanes are live,
// the rest finish one at a time on the single-stream block schedule. A
// walk with p >= 1 listens every slot without drawing and never enters
// a lane.
func (l *batchLane) listenPass(ph *core.Phase, plan *adversary.Plan) {
	r := l.r
	l.viewPlan(ph, plan)
	next := 0
	for {
		for free := ^l.draws.Live(); free != 0 && next < len(r.nodes); next++ {
			n := &r.nodes[next]
			if !n.active() || n.informed {
				continue
			}
			p := clamp01(ph.NodeListenP * n.listenScale)
			if p <= 0 {
				continue
			}
			n.streamA.Reseed(r.opts.Seed, nodeActor(n.id), uint64(ph.Round), uint64(ph.Ordinal), purpListen)
			j := bits.TrailingZeros8(free)
			w := &l.walks[j]
			l.startWalk(w, n, p, ph)
			if p >= 1 {
				l.blkA.Reset(&n.streamA, p, ph.Length)
				l.walkBlock(w, ph, plan)
				continue
			}
			l.draws.Start(j, &n.streamA, p, ph.Length)
			free &^= 1 << j
		}
		live := l.draws.Live()
		if live == 0 {
			return
		}
		if next == len(r.nodes) && bits.OnesCount8(live) < laneMinLive {
			for m := live; m != 0; m &= m - 1 {
				j := bits.TrailingZeros8(m)
				w := &l.walks[j]
				l.blkA.Resume(&w.n.streamA, w.p, ph.Length, l.draws.Handoff(j, &w.n.streamA))
				l.walkBlock(w, ph, plan)
			}
			return
		}
		ended := l.draws.Draw()
		var hot, jam [8]uint16
		if l.quietOK {
			l.draws.Bits(l.hot, &hot)
			if l.jam != nil {
				l.draws.Bits(l.jam, &jam)
			}
		}
		for m := live; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			w := &l.walks[j]
			var stop bool
			if w.quiet {
				stop = l.feedQuiet(w, l.draws.Slots(j), uint32(hot[j]), uint32(jam[j]), ph)
			} else {
				stop = l.feed(w, l.draws.Slots(j), ph, plan)
			}
			if stop || ended&(1<<j) != 0 {
				l.finishWalk(w)
				l.draws.Stop(j)
			}
		}
	}
}

// viewPlan sets the listen pass's view of the plan: quietOK, the
// request-phase jam words and, when quiet walks may settle by mask, the
// hot mask. Such a plan's jams disrupt every listener, so a busy jammed
// slot is noise like an idle jammed one, and only busy unjammed slots
// are hot.
func (l *batchLane) viewPlan(ph *core.Phase, plan *adversary.Plan) {
	l.quietOK, l.jam = true, nil
	var jam []uint64
	if plan != nil {
		jam, l.quietOK = adversary.UntargetedJams(plan, ph.Length)
		if ph.Kind == core.PhaseRequest { // only request phases tally noise
			l.jam = jam
		}
	}
	if !l.quietOK {
		return
	}
	busy := l.busy.Words()
	hot := resize(&l.hot, len(busy))
	copy(hot, busy)
	if jam != nil {
		for w := range hot {
			hot[w] &^= jam[w]
		}
	}
}

// startWalk sets w up for n's listen walk at probability p: no slot fed
// yet, and the node's send slots. A meter that covers every slot of the
// phase cannot exhaust mid-walk, so the per-listen charges fold into one
// ChargeN at the end — charges are pure accumulation, so the final meter
// state is identical. Otherwise the walk keeps the scalar per-listen
// path, whose mid-walk death is observable.
func (l *batchLane) startWalk(w *listenWalk, n *nodeState, p float64, ph *core.Phase) {
	// Field by field: a whole-struct literal compiles to a block copy
	// (runtime.duffcopy), which showed in profiles.
	w.n, w.p = n, p
	w.ss, w.si = l.sendSlot[l.sendOff[n.id]:l.sendOff[n.id+1]], 0
	w.prepaid = n.meter.CanAfford(int64(ph.Length))
	w.quiet = w.prepaid && l.quietOK
	w.listens, w.phaseL = 0, 0
	w.reqL, w.reqNoisy = 0, 0
}

// walkBlock runs w to its end on blkA.
func (l *batchLane) walkBlock(w *listenWalk, ph *core.Phase, plan *adversary.Plan) {
	for blk := l.blkA.Take(); len(blk) > 0; blk = l.blkA.Take() {
		if l.feed(w, blk, ph, plan) {
			break
		}
	}
	l.finishWalk(w)
}

// feed walks the next drawn slots of w and reports whether the walk is
// over: its node informed or dead. A quiet walk's block here is a
// BlockSchedule refill (at most 32 slots), so its hot and jam masks are
// built here, one bit test per slot; listenPass gathers the masks of
// the draw lanes' blocks itself.
func (l *batchLane) feed(w *listenWalk, blk []int32, ph *core.Phase, plan *adversary.Plan) bool {
	if w.quiet {
		l.seen.goMasks++
		var jam uint32
		if l.jam != nil {
			jam = rng.SlotBits(l.jam, blk)
		}
		return l.feedQuiet(w, blk, rng.SlotBits(l.hot, blk), jam, ph)
	}
	return l.feedEach(w, blk, ph, plan)
}

// finishWalk settles w's tallies into its node and charges its prepaid
// listens.
func (l *batchLane) finishWalk(w *listenWalk) {
	n := w.n
	n.phaseListens += w.phaseL
	n.listens += w.reqL
	n.noisy += w.reqNoisy
	if w.prepaid {
		_ = n.meter.ChargeN(energy.Listen, w.listens)
	}
}

// inform marks n informed by a data reception in ph.
func inform(n *nodeState, ph *core.Phase) {
	n.informed = true
	n.justInformed = true
	if ph.Kind == core.PhasePropagate {
		n.mark = core.InformMark(ph.Step)
	} else {
		n.mark = core.MarkInformPhase
	}
}

// feedEach is a walk over one block one listen at a time, in the scalar
// loop's steps: own send skipped before any observation, jammed or not;
// charge; observe; tallies; the informed exit, taken right after the
// state changes, which is the scalar loop's exit point — nothing else
// mutates a node mid-walk. Quiet walks settle by mask instead
// (feedQuiet); this path serves the rest: unpaid walks (a charge can
// fail mid-block), targeted plans and plans shorter than the phase (a
// custom strategy may return one; past its end nothing is jammed).
//
// The cursor and tallies load into locals on entry and store back on
// exit, so the hot loop keeps them in registers.
func (l *batchLane) feedEach(w *listenWalk, blk []int32, ph *core.Phase, plan *adversary.Plan) (stop bool) {
	n, ss := w.n, w.ss
	isReq := ph.Kind == core.PhaseRequest
	prepaid := w.prepaid
	listens, phaseL, reqL, reqNoisy := w.listens, w.phaseL, w.reqL, w.reqNoisy
	si := w.si
	for _, s32 := range blk {
		slot := int(s32)
		for si < len(ss) && int(ss[si]) < slot {
			si++
		}
		if si < len(ss) && int(ss[si]) == slot {
			continue
		}
		if prepaid {
			listens++
		} else if err := n.meter.Charge(energy.Listen); err != nil {
			n.dead = true
			stop = true
			break
		}
		phaseL++
		kind, out := l.observe(slot, n.id, plan)
		if isReq {
			reqL++
			if out != outcomeSilence {
				reqNoisy++
			}
		}
		if out == outcomeReceived && kind == msg.KindData {
			inform(n, ph)
			stop = true
			break
		}
	}
	w.listens, w.phaseL, w.reqL, w.reqNoisy = listens, phaseL, reqL, reqNoisy
	w.si = si
	return stop
}

// feedQuiet is a quiet walk over one block of at most 32 slots, given
// the block's hot and jam masks (bit i for blk[i]; jam is zero outside
// request phases, the only ones that count noise). The walk is prepaid, so nothing can fail
// mid-block, and every jam disrupts every listener, so a listen that is
// neither hot nor an own send is noise exactly when its jam bit is set.
// The own sends the block hits come off the listen mask first (one
// radio: skipped before any observation, jammed or not, and not
// charged); then each stretch of listens up to and including the next
// hot one settles with two popcounts, and only the hot slot — unjammed
// by construction — is heard out. The informed exit follows the hot
// slot that informs, with the stretch before it counted, exactly where
// the per-listen walk stops.
func (l *batchLane) feedQuiet(w *listenWalk, blk []int32, hot, jam uint32, ph *core.Phase) (stop bool) {
	if len(blk) == 0 {
		return false
	}
	listen := uint32(1)<<len(blk) - 1
	ss, si := w.ss, w.si
	for i, last := 0, blk[len(blk)-1]; si < len(ss) && ss[si] <= last; si++ {
		for blk[i] < ss[si] {
			i++
		}
		if blk[i] == ss[si] {
			listen &^= 1 << i
		}
	}
	w.si = si
	if hot&^listen != 0 {
		l.seen.hotSends++
	}
	hot &= listen
	isReq := ph.Kind == core.PhaseRequest
	for hot != 0 {
		i := bits.TrailingZeros32(hot)
		upto := uint32(2)<<i - 1 // blk[0..i]
		w.settle(listen&upto, jam, isReq)
		kind, out := l.hear(int(blk[i]), w.n.id)
		if isReq && out != outcomeSilence {
			w.reqNoisy++
		}
		if out == outcomeReceived && kind == msg.KindData {
			if isReq && listen&upto&jam != 0 {
				l.seen.informAfterJam++
			}
			inform(w.n, ph)
			return true
		}
		listen &^= upto
		hot &^= upto
	}
	w.settle(listen, jam, isReq)
	return false
}

// settle tallies the prepaid listens of mask m, of which the jam mask's
// are noise in a request phase.
func (w *listenWalk) settle(m, jam uint32, isReq bool) {
	k := bits.OnesCount32(m)
	w.listens += int64(k)
	w.phaseL += int64(k)
	if isReq {
		w.reqL += k
		w.reqNoisy += bits.OnesCount32(m & jam)
	}
}

// aliceListens mirrors run.aliceListens on a block schedule, resolving
// each listen through observe. She
// listens only in request phases, O(log n) times each, a small share of
// the listen work, so her walk keeps the per-listen path.
func (l *batchLane) aliceListens(ph *core.Phase, plan *adversary.Plan, out *adversary.PhaseOutcome) {
	r := l.r
	if ph.AliceListenP <= 0 || !r.alice.active() {
		return
	}
	r.aliceStream.Reseed(r.opts.Seed, actorAlice, uint64(ph.Round), uint64(ph.Ordinal), purpListen)
	l.blkA.Reset(&r.aliceStream, ph.AliceListenP, ph.Length)
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
