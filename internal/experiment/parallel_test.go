package experiment

import (
	"reflect"
	"testing"
)

// TestExperimentsProcsEquivalence checks the sweep layer's determinism
// contract: a whole experiment produces
// identical Values (and rendered tables) whether its trials run on one
// worker or eight. E1 exercises the cumulative + marginal cost sweeps
// (RecordPhases aggregation); E4 exercises a multi-n latency sweep with
// per-spec pools and pointer strategies; E7 exercises reactive trials
// and the map-keyed per-round fit, which once leaked map range order
// into the rendered exponent.
func TestExperimentsProcsEquivalence(t *testing.T) {
	for _, id := range []string{"E1", "E4", "E7"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		cfg1 := quickCfg()
		cfg1.Procs = 1
		cfg8 := quickCfg()
		cfg8.Procs = 8
		rep1, err := e.Run(cfg1)
		if err != nil {
			t.Fatalf("%s procs=1: %v", id, err)
		}
		rep8, err := e.Run(cfg8)
		if err != nil {
			t.Fatalf("%s procs=8: %v", id, err)
		}
		if !reflect.DeepEqual(rep1.Values, rep8.Values) {
			t.Errorf("%s: Values diverge across Procs:\nprocs=1: %v\nprocs=8: %v",
				id, rep1.Values, rep8.Values)
		}
		if r1, r8 := rep1.Render(), rep8.Render(); r1 != r8 {
			t.Errorf("%s: rendered reports diverge across Procs:\n%s\n---\n%s", id, r1, r8)
		}
	}
}
