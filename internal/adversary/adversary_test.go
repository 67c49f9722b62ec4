package adversary

import (
	"testing"

	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/msg"
	"rcbcast/internal/rng"
)

func phaseFor(t *testing.T, kind core.PhaseKind) (core.Phase, *core.Params) {
	t.Helper()
	p := core.PracticalParams(1024, 2)
	for _, ph := range p.Round(8) {
		if ph.Kind == kind {
			return ph, &p
		}
	}
	t.Fatalf("no %v phase", kind)
	return core.Phase{}, nil
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap: len=%d count=%d", b.Len(), b.Count())
	}
	for _, s := range []int{0, 63, 64, 129} {
		b.Set(s)
		if !b.Get(s) {
			t.Fatalf("slot %d not set", s)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 3 {
		t.Fatal("clear failed")
	}
	// Out of range is a no-op, not a panic.
	b.Set(-1)
	b.Set(130)
	if b.Count() != 3 {
		t.Fatal("out-of-range Set must be ignored")
	}
	if b.Get(-1) || b.Get(999) {
		t.Fatal("out-of-range Get must be false")
	}
}

func TestPlanJamAndDisrupt(t *testing.T) {
	p := NewPlan(100)
	p.JamRange(10, 20)
	if p.JamCount() != 10 {
		t.Fatalf("JamCount = %d, want 10", p.JamCount())
	}
	if !p.Jammed(10) || p.Jammed(20) {
		t.Fatal("JamRange boundaries wrong")
	}
	// Default targeting disrupts everyone.
	if !p.Disrupts(10, 7) {
		t.Fatal("nil disrupt must target all listeners")
	}
	p.SetDisrupt(func(_, l int) bool { return l == 3 })
	if !p.Disrupts(10, 3) || p.Disrupts(10, 4) {
		t.Fatal("custom disrupt predicate not honored")
	}
	p.Unjam(10)
	if p.Jammed(10) || p.JamCount() != 9 {
		t.Fatal("Unjam failed")
	}
}

func TestPlanJamRangeClamps(t *testing.T) {
	p := NewPlan(10)
	p.JamRange(-5, 100)
	if p.JamCount() != 10 {
		t.Fatalf("clamped JamRange count = %d, want 10", p.JamCount())
	}
}

func TestPlanInjectionsSortedAndBounded(t *testing.T) {
	p := NewPlan(50)
	p.Inject(30, msg.SpoofNack(-1))
	p.Inject(10, msg.SpoofNack(-2))
	p.Inject(99, msg.SpoofNack(-3)) // out of range: dropped
	p.Inject(-1, msg.SpoofNack(-4)) // dropped
	inj := p.Injections()
	if len(inj) != 2 {
		t.Fatalf("injections = %d, want 2", len(inj))
	}
	if inj[0].Slot != 10 || inj[1].Slot != 30 {
		t.Fatalf("injections not sorted: %+v", inj)
	}
}

func TestTruncateJams(t *testing.T) {
	p := NewPlan(200)
	p.JamRange(0, 150)
	kept := p.TruncateJamsAfter(40)
	if kept != 40 || p.JamCount() != 40 {
		t.Fatalf("kept=%d count=%d, want 40", kept, p.JamCount())
	}
	// The first 40 slots in order survive.
	for s := 0; s < 40; s++ {
		if !p.Jammed(s) {
			t.Fatalf("slot %d should stay jammed", s)
		}
	}
	if p.Jammed(40) {
		t.Fatal("slot 40 should be cleared")
	}
	// Truncating to zero clears everything.
	p.TruncateJamsAfter(0)
	if p.JamCount() != 0 {
		t.Fatal("TruncateJamsAfter(0) must clear all")
	}
}

func TestTruncateJamsSparse(t *testing.T) {
	p := NewPlan(1000)
	slots := []int{5, 100, 101, 500, 777, 999}
	for _, s := range slots {
		p.Jam(s)
	}
	p.TruncateJamsAfter(3)
	want := map[int]bool{5: true, 100: true, 101: true}
	for _, s := range slots {
		if p.Jammed(s) != want[s] {
			t.Fatalf("slot %d jammed=%t, want %t", s, p.Jammed(s), want[s])
		}
	}
}

func TestTruncateInjections(t *testing.T) {
	p := NewPlan(100)
	for _, s := range []int{50, 10, 30, 70} {
		p.Inject(s, msg.SpoofNack(-1))
	}
	n := p.TruncateInjectionsAfter(2)
	if n != 2 {
		t.Fatalf("kept %d injections, want 2", n)
	}
	inj := p.Injections()
	if inj[0].Slot != 10 || inj[1].Slot != 30 {
		t.Fatalf("wrong injections kept: %+v", inj)
	}
}

func TestNullStrategy(t *testing.T) {
	ph, _ := phaseFor(t, core.PhaseInform)
	if plan := (Null{}).PlanPhase(ph, &History{}, energy.NewPool(100), rng.New(1)); plan != nil {
		t.Fatal("null adversary must plan nothing")
	}
}

func TestFullJamRespectsBudgetAdvice(t *testing.T) {
	ph, _ := phaseFor(t, core.PhaseInform)
	pool := energy.NewPool(int64(ph.Length) / 2)
	plan := FullJam{}.PlanPhase(ph, &History{}, pool, rng.New(1))
	if plan == nil {
		t.Fatal("full jam with budget must plan")
	}
	if got := int64(plan.JamCount()); got != pool.Remaining() {
		t.Fatalf("planned %d jams, want %d", got, pool.Remaining())
	}
	empty := energy.NewPool(0)
	if plan := (FullJam{}).PlanPhase(ph, &History{}, empty, rng.New(1)); plan != nil {
		t.Fatal("exhausted pool must produce no plan")
	}
}

func TestFullJamUnlimitedWithNilPool(t *testing.T) {
	ph, _ := phaseFor(t, core.PhaseInform)
	plan := FullJam{}.PlanPhase(ph, &History{}, nil, rng.New(1))
	if plan == nil || plan.JamCount() != ph.Length {
		t.Fatal("nil pool means unlimited: jam everything")
	}
}

func TestRandomJamRate(t *testing.T) {
	ph, _ := phaseFor(t, core.PhaseInform)
	plan := RandomJam{P: 0.25}.PlanPhase(ph, &History{}, nil, rng.New(7))
	if plan == nil {
		t.Fatal("random jam must plan")
	}
	got := float64(plan.JamCount()) / float64(ph.Length)
	if got < 0.15 || got > 0.35 {
		t.Fatalf("random jam rate = %v, want ~0.25", got)
	}
	if plan := (RandomJam{P: 0}).PlanPhase(ph, &History{}, nil, rng.New(7)); plan != nil {
		t.Fatal("P=0 must plan nothing")
	}
}

// TestRandomJamMatchesGeometric pins RandomJam's hoisted-log draws to
// the per-draw Geometric walk they replace: the same jam mask (read
// through UntargetedJams too) and the stream left in the same state,
// with and without a pool cap.
func TestRandomJamMatchesGeometric(t *testing.T) {
	ph, _ := phaseFor(t, core.PhaseInform)
	for _, p := range []float64{0.05, 0.5, 0.97, 1} {
		for _, budget := range []int64{-1, 40} {
			var pool *energy.Pool
			if budget >= 0 {
				pool = energy.NewPool(budget)
			}
			st := rng.New(11)
			plan := RandomJam{P: p}.PlanPhase(ph, &History{}, pool, st)
			ref := rng.New(11)
			want := NewBitmap(ph.Length)
			limit := affordableJams(pool, int64(ph.Length))
			for slot, planned := 0, int64(0); planned < limit; planned++ {
				g := ref.Geometric(p)
				if g >= ph.Length-slot {
					break
				}
				slot += g
				want.Set(slot)
				if slot++; slot >= ph.Length {
					break
				}
			}
			words, ok := UntargetedJams(plan, ph.Length)
			if !ok {
				t.Fatalf("an untargeted plan of the phase's length must report ok")
			}
			for slot := 0; slot < ph.Length; slot++ {
				bit := words[slot/64]>>(slot%64)&1 == 1
				if plan.Jammed(slot) != want.Get(slot) || bit != want.Get(slot) {
					t.Fatalf("p=%v budget=%d: slot %d jammed=%v word bit=%v, want %v",
						p, budget, slot, plan.Jammed(slot), bit, want.Get(slot))
				}
			}
			if st.Uint64() != ref.Uint64() {
				t.Fatalf("p=%v budget=%d: stream state diverged from the Geometric walk", p, budget)
			}
			if _, ok := UntargetedJams(plan, ph.Length+1); ok {
				t.Fatalf("a plan shorter than the span must not report ok")
			}
			plan.SetDisrupt(func(_, listener int) bool { return listener%2 == 0 })
			if _, ok := UntargetedJams(plan, ph.Length); ok {
				t.Fatalf("a targeted plan must not report ok")
			}
			plan.Release()
		}
	}
}

func TestBurstyPattern(t *testing.T) {
	ph, _ := phaseFor(t, core.PhaseInform)
	plan := Bursty{Burst: 8, Gap: 8}.PlanPhase(ph, &History{}, nil, rng.New(3))
	if plan == nil {
		t.Fatal("bursty must plan")
	}
	got := float64(plan.JamCount()) / float64(ph.Length)
	if got < 0.4 || got > 0.6 {
		t.Fatalf("bursty duty cycle = %v, want ~0.5", got)
	}
}

func TestPhaseBlockerBlocksTargetedKindsOnly(t *testing.T) {
	inform, params := phaseFor(t, core.PhaseInform)
	request, _ := phaseFor(t, core.PhaseRequest)
	s := PhaseBlocker{BlockInform: true, Params: params}
	plan := s.PlanPhase(inform, &History{}, nil, rng.New(1))
	if plan == nil {
		t.Fatal("must block the inform phase")
	}
	minJams := int64(0.5 * float64(inform.Length))
	if int64(plan.JamCount()) <= minJams {
		t.Fatalf("jams %d do not exceed the blocking threshold %d", plan.JamCount(), minJams)
	}
	if plan := s.PlanPhase(request, &History{}, nil, rng.New(1)); plan != nil {
		t.Fatal("must not touch non-targeted phases")
	}
}

func TestPhaseBlockerStopsWhenUnaffordable(t *testing.T) {
	inform, params := phaseFor(t, core.PhaseInform)
	s := PhaseBlocker{BlockInform: true, Params: params}
	// Pool can afford only a third of the phase: a partial block is
	// worthless, so she must not spend at all.
	pool := energy.NewPool(int64(inform.Length) / 3)
	if plan := s.PlanPhase(inform, &History{}, pool, rng.New(1)); plan != nil {
		t.Fatal("blocker must stop cleanly when it cannot afford a full block")
	}
}

func TestPartitionBlockerSparesNonStranded(t *testing.T) {
	inform, _ := phaseFor(t, core.PhaseInform)
	stranded := func(node int) bool { return node < 10 }
	s := &PartitionBlocker{Stranded: stranded}
	plan := s.PlanPhase(inform, &History{}, nil, rng.New(1))
	if plan == nil {
		t.Fatal("partition blocker must plan")
	}
	if plan.JamCount() != inform.Length {
		t.Fatal("partition blocker jams the whole phase")
	}
	if !plan.Disrupts(0, 5) {
		t.Fatal("stranded node must be disrupted")
	}
	if plan.Disrupts(0, 500) {
		t.Fatal("non-stranded node must be spared (n-uniform targeting)")
	}
	// Request phases are left alone so the quiet test can fire.
	request, _ := phaseFor(t, core.PhaseRequest)
	if p := s.PlanPhase(request, &History{}, nil, rng.New(1)); p != nil {
		t.Fatal("partition blocker must not jam request phases")
	}
}

func TestPartitionBlockerNeedsFullPhase(t *testing.T) {
	inform, _ := phaseFor(t, core.PhaseInform)
	s := &PartitionBlocker{Stranded: func(int) bool { return true }}
	pool := energy.NewPool(int64(inform.Length) - 1)
	if plan := s.PlanPhase(inform, &History{}, pool, rng.New(1)); plan != nil {
		t.Fatal("partial partition leaks m; must not spend")
	}
}

func TestNackSpooferInjectsOnlyInRequest(t *testing.T) {
	request, _ := phaseFor(t, core.PhaseRequest)
	inform, _ := phaseFor(t, core.PhaseInform)
	s := &NackSpoofer{Rate: 0.5}
	if plan := s.PlanPhase(inform, &History{}, nil, rng.New(1)); plan != nil {
		t.Fatal("spoofer must only act in request phases")
	}
	plan := s.PlanPhase(request, &History{}, nil, rng.New(1))
	if plan == nil {
		t.Fatal("spoofer must plan in request phase")
	}
	inj := plan.Injections()
	rate := float64(len(inj)) / float64(request.Length)
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("spoof rate = %v, want ~0.5", rate)
	}
	for _, in := range inj {
		if in.Frame.Kind != msg.KindNack {
			t.Fatalf("spoofed frame kind = %v, want nack", in.Frame.Kind)
		}
	}
	if plan.JamCount() != 0 {
		t.Fatal("spoofer jams nothing")
	}
}

func TestNackSpooferBudget(t *testing.T) {
	request, _ := phaseFor(t, core.PhaseRequest)
	s := &NackSpoofer{Rate: 1}
	pool := energy.NewPool(7)
	plan := s.PlanPhase(request, &History{}, pool, rng.New(1))
	if plan == nil || len(plan.Injections()) != 7 {
		t.Fatalf("spoofer must stay within budget advice")
	}
}

func TestReactiveJammerHitsExactlyActiveSlots(t *testing.T) {
	inform, _ := phaseFor(t, core.PhaseInform)
	activity := NewBitmap(inform.Length)
	for _, s := range []int{3, 17, 99} {
		activity.Set(s)
	}
	plan := ReactiveJammer{}.PlanReactive(inform, activity, &History{}, nil, rng.New(1))
	if plan == nil || plan.JamCount() != 3 {
		t.Fatalf("reactive jammer must jam the 3 active slots")
	}
	for _, s := range []int{3, 17, 99} {
		if !plan.Jammed(s) {
			t.Fatalf("active slot %d not jammed", s)
		}
	}
	if plan.Jammed(4) {
		t.Fatal("inactive slot jammed")
	}
}

func TestReactiveJammerBudgetTruncatesInSlotOrder(t *testing.T) {
	inform, _ := phaseFor(t, core.PhaseInform)
	activity := NewBitmap(inform.Length)
	for s := 0; s < 10; s++ {
		activity.Set(s * 5)
	}
	pool := energy.NewPool(4)
	plan := ReactiveJammer{}.PlanReactive(inform, activity, &History{}, pool, rng.New(1))
	if plan == nil || plan.JamCount() != 4 {
		t.Fatalf("want 4 jams, got %v", plan)
	}
	for s := 0; s < 4; s++ {
		if !plan.Jammed(s * 5) {
			t.Fatalf("earliest active slots must be jammed first")
		}
	}
}

func TestHistoryLast(t *testing.T) {
	h := &History{}
	if _, ok := h.Last(); ok {
		t.Fatal("empty history has no last outcome")
	}
	h.Outcomes = append(h.Outcomes, PhaseOutcome{AliceSends: 3})
	if last, ok := h.Last(); !ok || last.AliceSends != 3 {
		t.Fatal("Last must return the most recent outcome")
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{
		Null{}, FullJam{}, RandomJam{P: 0.5}, Bursty{Burst: 1, Gap: 1},
		PhaseBlocker{}, &PartitionBlocker{}, &NackSpoofer{}, ReactiveJammer{},
	} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}
