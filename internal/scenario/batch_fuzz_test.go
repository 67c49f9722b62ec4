package scenario

import (
	"context"
	"reflect"
	"testing"

	"rcbcast/internal/engine"
	"rcbcast/internal/sim"
)

// fuzzCollect gathers streamed results for the differential below.
type fuzzCollect struct{ rs []*engine.Result }

func (c *fuzzCollect) Trial(i int, r *engine.Result) error {
	c.rs = append(c.rs, r)
	return nil
}
func (c *fuzzCollect) Flush() error { return nil }

// FuzzBatchStreamMatchesScalar feeds arbitrary scenario JSON through
// the scalar stream and the batch kernel and requires
// identical results: whatever protocol instance, topology, adversary,
// and budget the fuzzer assembles, StreamBatch must reproduce the
// scalar engine bit for bit at every batch width. Inputs the scalar
// stream itself rejects (or fails on) are skipped — the kernel's
// contract covers exactly the runs the scalar engine completes.
func FuzzBatchStreamMatchesScalar(f *testing.F) {
	for _, seed := range []string{
		`{"n":48,"adversary":{"kind":"full"},"budget":{"pool":1024},"seed":7}`,
		`{"n":48,"topology":{"kind":"grid","reach":2},"adversary":{"kind":"composite","parts":[{"kind":"full"},{"kind":"spoofer","p":0.3}]},"budget":{"pool":512},"seed":9}`,
		`{"n":48,"topology":{"kind":"gilbert","radius":0.3},"adversary":{"kind":"random","p":0.4},"budget":{"pool":512},"seed":11}`,
		`{"n":64,"k":3,"decoy":true,"adversary":{"kind":"bursty","burst":16,"gap":16},"budget":{"model_c":4,"model_f":0.05},"seed":3}`,
		`{"n":32,"paper":true,"quiet":"fraction","adversary":{"kind":"sweep","fraction":0.75},"budget":{"pool":256},"reactive":true,"seed":5}`,
	} {
		f.Add([]byte(seed), uint8(8))
	}
	f.Fuzz(func(t *testing.T, data []byte, widthByte uint8) {
		sc, err := Decode(data)
		if err != nil {
			return
		}
		// Bound the run so the fuzzer cannot assemble an hours-long
		// trial: small networks, a short round window, and a phase-slot
		// cap. The bounds apply identically to both streams, so the
		// differential is untouched.
		if sc.N > 96 || sc.K > 4 || sc.Overrides.StartRound > 8 {
			return
		}
		sc.Overrides.MaxRound = 0
		sc.Overrides.ExtraRounds = 2
		if sc.Validate() != nil {
			return
		}
		width := 1 + int(widthByte%8)
		trials := width + 3 // at least one full batch plus a remainder group
		specs, err := sc.TrialSpecs(42, 0, trials)
		if err != nil {
			return
		}
		for i := range specs {
			prev := specs[i].Configure
			specs[i].Configure = func(o *engine.Options) {
				if prev != nil {
					prev(o)
				}
				o.MaxPhaseSlots = 1 << 22
			}
		}
		scalar := &fuzzCollect{}
		if err := sim.Stream(context.Background(), 1, specs, scalar); err != nil {
			return // the scalar oracle itself rejects this input
		}
		batched := &fuzzCollect{}
		if err := sim.StreamBatch(context.Background(), 1, width, specs, batched); err != nil {
			t.Fatalf("scalar stream succeeded but width-%d batch failed: %v", width, err)
		}
		if len(batched.rs) != len(scalar.rs) {
			t.Fatalf("width %d delivered %d trials, scalar %d", width, len(batched.rs), len(scalar.rs))
		}
		for i := range scalar.rs {
			if !reflect.DeepEqual(batched.rs[i], scalar.rs[i]) {
				t.Fatalf("width %d trial %d diverges from scalar engine:\nbatch:  %+v\nscalar: %+v",
					width, i, batched.rs[i], scalar.rs[i])
			}
		}
	})
}
