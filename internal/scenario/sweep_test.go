package scenario

import (
	"strings"
	"testing"

	"rcbcast/internal/sim/sink"
	"rcbcast/internal/topology"
)

// pinSweep is the sweep the Pin and Validate tables vary one field of.
func pinSweep() Sweep {
	return Sweep{
		Scenario: Scenario{
			N:         64,
			Adversary: AdversarySpec{Kind: "random", P: 0.5},
			Budget:    BudgetSpec{Pool: 1024},
			Overrides: Overrides{ExtraRounds: 6},
		},
		Trials:   100,
		BaseSeed: 1,
		Shard:    Shard{Lo: 10, Hi: 50},
	}
}

// TestSweepPinCoversTheScenario: every field that changes a trial
// changes the pin, so no journal of one sweep resumes another; the trial
// count and the shard's end do not, so a resume with more -trials (or a
// longer shard from the same first trial) keeps what is journaled.
func TestSweepPinCoversTheScenario(t *testing.T) {
	base, err := pinSweep().Pin()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		change  func(*Sweep)
		changes bool
	}{
		{"adversary kind", func(sw *Sweep) { sw.Scenario.Adversary = AdversarySpec{Kind: "full"} }, true},
		{"adversary knob", func(sw *Sweep) { sw.Scenario.Adversary.P = 0.3 }, true},
		{"budget", func(sw *Sweep) { sw.Scenario.Budget.Pool = 2048 }, true},
		{"record_phases", func(sw *Sweep) { sw.Scenario.RecordPhases = true }, true},
		{"overrides", func(sw *Sweep) { sw.Scenario.Overrides.ExtraRounds = 7 }, true},
		{"topology", func(sw *Sweep) { sw.Scenario.Topology = topology.Spec{Kind: "grid", Reach: 2} }, true},
		{"n", func(sw *Sweep) { sw.Scenario.N = 32 }, true},
		{"base seed", func(sw *Sweep) { sw.BaseSeed = 2 }, true},
		{"shard lo", func(sw *Sweep) { sw.Shard.Lo = 11 }, true},
		{"trials", func(sw *Sweep) { sw.Trials = 200 }, false},
		{"shard hi", func(sw *Sweep) { sw.Shard.Hi = 60 }, false},
	} {
		sw := pinSweep()
		tc.change(&sw)
		if err := sw.Validate(); err != nil {
			t.Fatalf("%s: the changed sweep is invalid: %v", tc.name, err)
		}
		pin, err := sw.Pin()
		if err != nil {
			t.Fatal(err)
		}
		if (pin != base) != tc.changes {
			t.Errorf("%s: pin %s against %s; want changed = %v", tc.name, pin, base, tc.changes)
		}
	}
}

// TestSweepValidate: the valid sweep passes, and a sweep with one
// invalid field fails with an error that names the field.
func TestSweepValidate(t *testing.T) {
	if err := pinSweep().Validate(); err != nil {
		t.Fatalf("valid sweep: %v", err)
	}
	for _, tc := range []struct {
		name   string
		change func(*Sweep)
		names  string
	}{
		{"zero trials", func(sw *Sweep) { sw.Trials, sw.Shard = 0, Shard{} }, "trials must be positive"},
		{"negative trials", func(sw *Sweep) { sw.Trials = -3 }, "trials must be positive"},
		{"shard lo below 0", func(sw *Sweep) { sw.Shard.Lo = -1 }, "shard lo"},
		{"empty shard", func(sw *Sweep) { sw.Shard.Hi = sw.Shard.Lo }, "is empty"},
		{"shard past trials", func(sw *Sweep) { sw.Shard.Hi = sw.Trials + 1 }, "exceeds the sweep's 100 trials"},
		{"invalid scenario", func(sw *Sweep) { sw.Scenario.N = 0 }, "n is required"},
	} {
		sw := pinSweep()
		tc.change(&sw)
		err := sw.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.name, err, tc.names)
			continue
		}
		if _, serr := sw.Specs(); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%s: Specs() = %v, want Validate's %v", tc.name, serr, err)
		}
	}
}

// TestSweepCompatibilityGoldens pins the ids and pins stores and
// journals already hold: Key is the job id the service has always
// derived, so a store's finished shards stay store hits; Fingerprint
// without an encoding is the pin the rcbcast façade's checkpoints
// carry, so they keep resuming. The literals were computed by the
// service's and sink's code before Sweep existed.
func TestSweepCompatibilityGoldens(t *testing.T) {
	sc, ok := Lookup("full-jam")
	if !ok {
		t.Fatal("no full-jam scenario")
	}
	sc.N = 64
	for _, tc := range []struct {
		shard Shard
		key   string
	}{
		{Shard{}, "j919d44004bc7baa9"},
		{Shard{Lo: 50, Hi: 100}, "j24f74e41d8ed457f"},
	} {
		key, err := Sweep{Scenario: sc, Trials: 100, BaseSeed: 1, Shard: tc.shard}.Key()
		if err != nil || key != tc.key {
			t.Errorf("Key() of shard %v = %s, %v; want %s", tc.shard, key, err, tc.key)
		}
	}
	specs, err := Sweep{Scenario: sc, Trials: 6, BaseSeed: 1}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if fp := sink.Fingerprint(specs[0], nil); fp != "0db95c39767c9d70" {
		t.Errorf("Fingerprint without an encoding = %s, want 0db95c39767c9d70", fp)
	}
}
