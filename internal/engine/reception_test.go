package engine

import (
	"slices"
	"testing"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/msg"
	"rcbcast/internal/topology"
)

// pathTopo is the 4-node path 0-1-2-3 with Alice audible to node 0
// only: small enough to name every listener's audience by hand.
type pathTopo struct{}

func (pathTopo) Name() string                    { return "path" }
func (pathTopo) N() int                          { return 4 }
func (pathTopo) Complete() bool                  { return false }
func (pathTopo) AliceHears(node int) bool        { return node == 0 }
func (pathTopo) Adjacent(src, listener int) bool { return src-listener == 1 || listener-src == 1 }
func (pathTopo) Degree(node int) int {
	if node == 0 || node == 3 {
		return 1
	}
	return 2
}

// receptionFixture is one request phase of length 10 on a topology —
// pathTopo, or the complete topology when topo is nil — put on both the
// scalar run's channel state and a kernel lane's, with slots 4, 7 and 8
// jammed:
//
//	slot 0: node 3 NACK
//	slot 1: node 1 data, node 3 NACK
//	slot 2: node 0 NACK, node 2 NACK
//	slot 3: adversary spoof, node 3 NACK
//	slot 4: node 2 NACK (jammed)
//	slot 5: Alice data
//	slot 6: idle
//	slot 7: node 1 NACK (jammed)
//	slot 8: node 3 NACK (jammed)
//	slot 9: idle
type receptionFixture struct {
	r    *run
	l    *batchLane
	plan *adversary.Plan
	ph   core.Phase
}

func newReceptionFixture(t *testing.T, topo topology.Topology) *receptionFixture {
	t.Helper()
	const length = 10
	r := &run{opts: &Options{}, nodes: make([]nodeState, 4), topo: topo}
	for i := range r.nodes {
		r.nodes[i].id = i
		r.nodes[i].listenScale, r.nodes[i].sendScale = 1, 1
	}
	r.ensureBuffers(length)
	l := &batchLane{r: r}
	l.ensureBuffers(length)
	txs := []txRec{
		{slot: 5, src: txSrcAlice, kind: uint8(msg.KindData)},
		{slot: 2, src: 0, kind: uint8(msg.KindNack)},
		{slot: 1, src: 1, kind: uint8(msg.KindData)},
		{slot: 7, src: 1, kind: uint8(msg.KindNack)},
		{slot: 2, src: 2, kind: uint8(msg.KindNack)},
		{slot: 4, src: 2, kind: uint8(msg.KindNack)},
		{slot: 0, src: 3, kind: uint8(msg.KindNack)},
		{slot: 1, src: 3, kind: uint8(msg.KindNack)},
		{slot: 3, src: 3, kind: uint8(msg.KindNack)},
		{slot: 8, src: 3, kind: uint8(msg.KindNack)},
		{slot: 3, src: txSrcAdversary, kind: uint8(msg.KindSpoof)},
	}
	// The lane's send records bracket each node's ascending send slots,
	// as mergeNodeSends leaves them.
	l.sendOff = make([]int32, len(r.nodes)+1)
	for id := range r.nodes {
		l.sendOff[id] = int32(len(l.sendSlot))
		for _, tx := range txs {
			if tx.src == int32(id) {
				l.sendSlot = append(l.sendSlot, tx.slot)
				l.sendKind = append(l.sendKind, msg.Kind(tx.kind))
			}
		}
	}
	l.sendOff[len(r.nodes)] = int32(len(l.sendSlot))
	for _, tx := range txs {
		r.addTx(int(tx.slot), msg.Kind(tx.kind), tx.src)
		l.addTx(int(tx.slot), msg.Kind(tx.kind), tx.src)
	}
	slices.SortStableFunc(r.txs, func(a, b txRec) int { return int(a.slot - b.slot) })
	l.bucketTx()
	plan := adversary.NewPlan(length)
	plan.Jam(4)
	plan.Jam(7)
	plan.Jam(8)
	return &receptionFixture{r: r, l: l, plan: plan, ph: core.Phase{Kind: core.PhaseRequest, Length: length}}
}

// TestSparseReceptionCases pins the kernel's pull reception on a
// hand-made sparse topology: each listen resolves against its slot's
// bucket of transmissions under the audibility rules, agreeing with the
// scalar oracle's lookup.
func TestSparseReceptionCases(t *testing.T) {
	f := newReceptionFixture(t, pathTopo{})
	for _, tc := range []struct {
		name     string
		slot     int
		listener int
		kind     msg.Kind
		out      outcome
	}{
		{"only record inaudible is silence", 0, 0, 0, outcomeSilence},
		{"audible record next to an inaudible one", 1, 0, msg.KindData, outcomeReceived},
		{"two audible records are noise", 2, 1, 0, outcomeNoise},
		{"one of two records audible", 2, 3, msg.KindNack, outcomeReceived},
		{"injection next to an inaudible node record", 3, 0, msg.KindSpoof, outcomeReceived},
		{"injection next to an audible node record", 3, 2, 0, outcomeNoise},
		{"node hears Alice", 5, 0, msg.KindData, outcomeReceived},
		{"node out of Alice's range", 5, 1, 0, outcomeSilence},
		{"idle slot", 6, 2, 0, outcomeSilence},
		{"jammed busy slot, record inaudible", 8, 0, 0, outcomeNoise},
		{"jammed busy slot, record audible", 7, 2, 0, outcomeNoise},
		{"Alice cannot hear node 3", 0, msg.SenderAlice, 0, outcomeSilence},
		{"Alice hears neither record", 1, msg.SenderAlice, 0, outcomeSilence},
		{"Alice hears node 0 only", 2, msg.SenderAlice, msg.KindNack, outcomeReceived},
		{"Alice hears her own transmission", 5, msg.SenderAlice, msg.KindData, outcomeReceived},
	} {
		kind, out := f.l.observe(tc.slot, tc.listener, f.plan)
		if kind != tc.kind || out != tc.out {
			t.Errorf("%s: slot %d listener %d: kernel %v/%v, want %v/%v", tc.name, tc.slot, tc.listener, out, kind, tc.out, tc.kind)
		}
		if kind, out := f.r.observe(tc.slot, tc.listener, f.plan); kind != tc.kind || out != tc.out {
			t.Errorf("%s: slot %d listener %d: scalar %v/%v, want %v/%v", tc.name, tc.slot, tc.listener, out, kind, tc.out, tc.kind)
		}
	}
}

// TestCompleteReceptionCases pins the kernel's reception on the
// complete topology, where every record is audible and a bucket's
// length alone decides: the named cases resolve as the global channel
// does, and every slot agrees with the scalar oracle's counts for every
// listener, Alice included.
func TestCompleteReceptionCases(t *testing.T) {
	f := newReceptionFixture(t, nil)
	for _, tc := range []struct {
		name     string
		slot     int
		listener int
		kind     msg.Kind
		out      outcome
	}{
		{"solo frame", 0, 0, msg.KindNack, outcomeReceived},
		{"two-node collision", 1, 0, 0, outcomeNoise},
		{"injection colliding with a node", 3, 0, 0, outcomeNoise},
		{"node hears Alice", 5, 1, msg.KindData, outcomeReceived},
		{"Alice hears her own frame", 5, msg.SenderAlice, msg.KindData, outcomeReceived},
		{"Alice hears a node", 0, msg.SenderAlice, msg.KindNack, outcomeReceived},
		{"idle slot", 6, 2, 0, outcomeSilence},
		{"busy jammed slot", 7, 0, 0, outcomeNoise},
		{"idle jammed slot", 9, 0, 0, outcomeSilence},
	} {
		if kind, out := f.l.observe(tc.slot, tc.listener, f.plan); kind != tc.kind || out != tc.out {
			t.Errorf("%s: slot %d listener %d: kernel %v/%v, want %v/%v", tc.name, tc.slot, tc.listener, out, kind, tc.out, tc.kind)
		}
	}
	for slot := 0; slot < f.ph.Length; slot++ {
		for listener := msg.SenderAlice; listener < len(f.r.nodes); listener++ {
			kind, out := f.l.observe(slot, listener, f.plan)
			wantKind, wantOut := f.r.observe(slot, listener, f.plan)
			if kind != wantKind || out != wantOut {
				t.Errorf("slot %d listener %d: kernel %v/%v, scalar %v/%v", slot, listener, out, kind, wantOut, wantKind)
			}
		}
	}
}

// TestSparseReceptionOwnSends: node 1's request-phase walk over slots
// 0, 1, 6, 7 and 8 hears silence at 0 (node 3 is out of range) and 6,
// skips its own sends at 1 and at the jammed 7 uncharged, and hears
// the jam at 8, busy with node 3's NACK — on the quiet path (prepaid,
// untargeted jam), the per-listen path (a meter short of the phase)
// and under a targeting predicate.
func TestSparseReceptionOwnSends(t *testing.T) { receptionOwnSends(t, pathTopo{}, 1) }

// TestCompleteReceptionOwnSends is TestSparseReceptionOwnSends on the
// complete topology, where node 3's NACK at slot 0 is heard: noise to
// the request-phase tally, like the jam at 8.
func TestCompleteReceptionOwnSends(t *testing.T) { receptionOwnSends(t, nil, 2) }

// receptionOwnSends runs node 1's walk over slots 0, 1, 6, 7 and 8 of
// the reception fixture on topo, on the quiet path, the per-listen path
// and under a targeting predicate: three listens, wantNoisy of them
// noise, and the own sends at 1 and 7 skipped uncharged.
func receptionOwnSends(t *testing.T, topo topology.Topology, wantNoisy int) {
	for _, tc := range []struct {
		name     string
		budget   int64
		targeted bool
	}{
		{"quiet", energy.Unlimited, false},
		{"unpaid", 6, false},
		{"targeted", energy.Unlimited, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newReceptionFixture(t, topo)
			if tc.targeted {
				f.plan.SetDisrupt(func(_, listener int) bool { return listener != 2 })
			}
			n := &f.r.nodes[1]
			n.meter = energy.NewMeter(tc.budget)
			f.l.viewPlan(&f.ph, f.plan)
			var w listenWalk
			f.l.startWalk(&w, n, 0.5, &f.ph)
			if want := !tc.targeted && tc.budget == energy.Unlimited; w.quiet != want {
				t.Fatalf("walk quiet = %v, want %v", w.quiet, want)
			}
			if f.l.feed(&w, []int32{0, 1, 6, 7, 8}, &f.ph, f.plan) {
				t.Fatal("walk ended early")
			}
			f.l.finishWalk(&w)
			if n.phaseListens != 3 || n.listens != 3 || n.noisy != wantNoisy || n.informed {
				t.Fatalf("listens %d/%d, noisy %d, informed %v; want 3/3, %d, false", n.phaseListens, n.listens, n.noisy, n.informed, wantNoisy)
			}
			if got := n.meter.SpentOn(energy.Listen); got != 3 {
				t.Fatalf("charged %d listens, want 3", got)
			}
		})
	}
}

// TestAliceAudience pins the quiet walks of listeners out of Alice's
// range on pathTopo (Alice audible to node 0 alone), in an unjammed
// inform phase with Alice's frames at slots 2 and 5 and node 2's data
// at 2. Node 1 cannot hear Alice, so its walk settles by the hot slots
// holding someone else's record — slot 2 alone: at the Alice-only slot
// 5 it listens to silence, and at 2 it hears node 2's solo audible
// frame next to Alice's and is informed. Node 0 hears Alice, and every
// listen agrees with the scalar oracle.
func TestAliceAudience(t *testing.T) {
	const length = 10
	r := &run{opts: &Options{}, nodes: make([]nodeState, 4), topo: pathTopo{}}
	for i := range r.nodes {
		r.nodes[i].id = i
		r.nodes[i].listenScale, r.nodes[i].sendScale = 1, 1
		r.nodes[i].meter = energy.NewMeter(energy.Unlimited)
	}
	r.ensureBuffers(length)
	l := &batchLane{r: r}
	l.ensureBuffers(length)
	// Alice's records come first, as aliceSends commits them.
	txs := []txRec{
		{slot: 2, src: txSrcAlice, kind: uint8(msg.KindData)},
		{slot: 5, src: txSrcAlice, kind: uint8(msg.KindData)},
		{slot: 2, src: 2, kind: uint8(msg.KindData)},
	}
	l.sendSlot, l.sendKind = []int32{2}, []msg.Kind{msg.KindData}
	l.sendOff = []int32{0, 0, 0, 1, 1}
	for _, tx := range txs {
		r.addTx(int(tx.slot), msg.Kind(tx.kind), tx.src)
		l.addTx(int(tx.slot), msg.Kind(tx.kind), tx.src)
	}
	slices.SortStableFunc(r.txs, func(a, b txRec) int { return int(a.slot - b.slot) })
	l.bucketTx()
	ph := core.Phase{Kind: core.PhaseInform, Length: length}
	l.viewPlan(&ph, nil)
	if !l.audience || !l.nodesHot || l.hotNodes[0] != 1<<2 {
		t.Fatalf("audience %v, nodes hot %v, hotNodes %#x; want true, true, 0x4", l.audience, l.nodesHot, l.hotNodes)
	}
	for _, tc := range []struct {
		name           string
		slot, listener int
		kind           msg.Kind
		out            outcome
	}{
		{"deaf listener, solo audible node frame next to Alice's", 2, 1, msg.KindData, outcomeReceived},
		{"deaf listener, Alice-only slot", 5, 1, 0, outcomeSilence},
		{"Alice's audience, node frame out of range", 2, 0, msg.KindData, outcomeReceived},
		{"Alice's audience, Alice-only slot", 5, 0, msg.KindData, outcomeReceived},
	} {
		kind, out := l.observe(tc.slot, tc.listener, nil)
		if kind != tc.kind || out != tc.out {
			t.Errorf("%s: kernel %v/%v, want %v/%v", tc.name, out, kind, tc.out, tc.kind)
		}
		if kind, out := r.observe(tc.slot, tc.listener, nil); kind != tc.kind || out != tc.out {
			t.Errorf("%s: scalar %v/%v, want %v/%v", tc.name, out, kind, tc.out, tc.kind)
		}
	}

	var w listenWalk
	deaf := &r.nodes[1]
	l.startWalk(&w, deaf, 0.5, &ph)
	if !w.quiet || !w.aliceDeaf {
		t.Fatalf("node 1's walk: quiet %v, deaf %v; want both", w.quiet, w.aliceDeaf)
	}
	if l.feed(&w, []int32{3, 5}, &ph, nil) {
		t.Fatal("node 1 informed at the Alice-only slot")
	}
	if l.seen.deafHears != 0 {
		t.Fatal("node 1 heard out the Alice-only slot")
	}
	if !l.feed(&w, []int32{2, 7}, &ph, nil) {
		t.Fatal("node 1 not informed by node 2's frame")
	}
	l.finishWalk(&w)
	if !deaf.informed || deaf.phaseListens != 3 || l.seen.deafHears != 1 {
		t.Fatalf("node 1: informed %v, %d listens, %d deaf hears; want true, 3, 1", deaf.informed, deaf.phaseListens, l.seen.deafHears)
	}

	near := &r.nodes[0]
	l.startWalk(&w, near, 0.5, &ph)
	if w.aliceDeaf {
		t.Fatal("node 0's walk marked deaf to Alice")
	}
	if l.feed(&w, []int32{1}, &ph, nil) || !l.feed(&w, []int32{5}, &ph, nil) {
		t.Fatal("node 0 not informed by Alice's solo frame")
	}
	l.finishWalk(&w)
	if !near.informed || near.phaseListens != 2 {
		t.Fatalf("node 0: informed %v, %d listens; want true, 2", near.informed, near.phaseListens)
	}
}
