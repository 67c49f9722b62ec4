package scenario

import (
	"context"
	"reflect"
	"testing"

	"rcbcast/internal/engine"
	"rcbcast/internal/rng"
	"rcbcast/internal/sim"
)

// FuzzBatchStreamMatchesScalar feeds arbitrary scenario JSON through
// the sweep session (sim.Stream, which runs every trial on the batch
// kernel) and requires each delivered result to equal the scalar
// oracle's run of the same trial (engine.RunScalar): whatever protocol
// instance, topology, adversary, and budget the fuzzer assembles, the
// kernel must reproduce the scalar loop bit for bit. Inputs the oracle
// itself rejects (or fails on) are skipped — the kernel's contract
// covers exactly the runs the oracle completes.
func FuzzBatchStreamMatchesScalar(f *testing.F) {
	for _, seed := range []string{
		`{"n":48,"adversary":{"kind":"full"},"budget":{"pool":1024},"seed":7}`,
		`{"n":48,"topology":{"kind":"grid","reach":2},"adversary":{"kind":"composite","parts":[{"kind":"full"},{"kind":"spoofer","p":0.3}]},"budget":{"pool":512},"seed":9}`,
		`{"n":48,"topology":{"kind":"gilbert","radius":0.3},"adversary":{"kind":"random","p":0.4},"budget":{"pool":512},"seed":11}`,
		`{"n":64,"k":3,"decoy":true,"adversary":{"kind":"bursty","burst":16,"gap":16},"budget":{"model_c":4,"model_f":0.05},"seed":3}`,
		`{"n":32,"paper":true,"quiet":"fraction","adversary":{"kind":"sweep","fraction":0.75},"budget":{"pool":256},"reactive":true,"seed":5}`,
		// The gilbert-jam scenario at n=64: sparse listen walks settling
		// quiet runs under a random jam.
		`{"name":"gilbert-jam","n":64,"k":2,"topology":{"kind":"gilbert","radius":0.25},"overrides":{"extra_rounds":3},"adversary":{"kind":"random","p":0.5},"budget":{"model_c":1,"model_f":1},"seed":13}`,
	} {
		f.Add([]byte(seed), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, trialsByte uint8) {
		sc, err := Decode(data)
		if err != nil {
			return
		}
		// Bound the run so the fuzzer cannot assemble an hours-long
		// trial: small networks, a short round window, and a phase-slot
		// cap. The bounds apply identically to the session and the
		// oracle, so the differential is untouched.
		if sc.N > 96 || sc.K > 4 || sc.Overrides.StartRound > 8 {
			return
		}
		sc.Overrides.MaxRound = 0
		sc.Overrides.ExtraRounds = 2
		if sc.Validate() != nil {
			return
		}
		const maxPhaseSlots = 1 << 22
		specs, err := sc.ShardSpecs(42, 0, 1+int(trialsByte%8), Shard{})
		if err != nil {
			return
		}
		want := make([]*engine.Result, len(specs))
		for i := range specs {
			opts := mustBuildWithSeed(t, sc, specs[i].Seed)
			opts.MaxPhaseSlots = maxPhaseSlots
			if want[i], err = engine.RunScalar(context.Background(), opts); err != nil {
				return // the scalar oracle itself rejects this input
			}
			prev := specs[i].Configure
			specs[i].Configure = func(o *engine.Options) {
				if prev != nil {
					prev(o)
				}
				o.MaxPhaseSlots = maxPhaseSlots
			}
		}
		var got []*engine.Result
		err = sim.Stream(context.Background(), 1, specs, sinkFunc(func(i int, r *engine.Result) error {
			got = append(got, r)
			return nil
		}))
		if err != nil {
			t.Fatalf("scalar oracle succeeded but the stream failed: %v", err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d diverges from the scalar oracle:\nstream: %+v\nscalar: %+v", i, got[i], want[i])
			}
		}
	})
}

// TestDrawPath logs which geometric draw path this package's tests ran
// on. rng.DrawPath reads RCBCAST_NO_GEOBLOCK8 while the tests run, so go
// test reuses a cached result only under the same setting.
func TestDrawPath(t *testing.T) { t.Log(rng.DrawPath()) }
