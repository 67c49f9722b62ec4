package scenario

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
	"rcbcast/internal/topology"
)

// Sweep is one resumable Monte-Carlo sweep: Trials trials of Scenario,
// trial t seeded sim.SweepSeed(BaseSeed, 0, t), or the Shard [Lo, Hi)
// of them (the zero Shard is the whole sweep). rcexp, the service and
// the coordinator ask it which trials run, under which key and pin.
type Sweep struct {
	Scenario Scenario
	Trials   int
	BaseSeed uint64
	Shard    Shard
}

// LoadSweep is the sweep the rcexp and rccoordd sweep flags name:
// -scenario (Load), -topology (overriding the scenario's and bounding
// sparse runs, ApplyTopology), -n (0 keeps the scenario's, else 512),
// -trials and -seed. It does not validate: Validate does.
func LoadSweep(arg, topo string, n, trials int, seed uint64) (Sweep, error) {
	sc, err := Load(arg)
	if err != nil {
		return Sweep{}, err
	}
	if topo != "" {
		spec, err := topology.ParseSpec(topo)
		if err != nil {
			return Sweep{}, err
		}
		sc.ApplyTopology(spec)
	}
	if n > 0 {
		sc.N = n
	} else if sc.N == 0 {
		sc.N = 512
	}
	return Sweep{Scenario: sc, Trials: trials, BaseSeed: seed}, nil
}

// Validate reports the first invalid field — the trial count, the
// shard, or the scenario — or nil.
func (sw Sweep) Validate() error {
	if sw.Trials <= 0 {
		return fmt.Errorf("scenario: trials must be positive (got %d)", sw.Trials)
	}
	if err := sw.Shard.Validate(sw.Trials); err != nil {
		return err
	}
	return sw.Scenario.Validate()
}

// Range returns the trials [lo, hi) the sweep runs.
func (sw Sweep) Range() (lo, hi int) {
	if sw.Shard.IsZero() {
		return 0, sw.Trials
	}
	return sw.Shard.Lo, sw.Shard.Hi
}

// Len returns the number of trials the sweep runs.
func (sw Sweep) Len() int {
	lo, hi := sw.Range()
	return hi - lo
}

// Specs returns the specs of the trials the sweep runs, in order.
func (sw Sweep) Specs() ([]sim.TrialSpec, error) {
	if sw.Trials <= 0 {
		return nil, sw.Validate()
	}
	return sw.Scenario.ShardSpecs(sw.BaseSeed, 0, sw.Trials, sw.Shard)
}

// Sequence is the rule the sweep's records follow: trials [lo, hi) of
// an n-node sweep, in order.
func (sw Sweep) Sequence() sink.Sequence {
	lo, hi := sw.Range()
	return sink.Sequence{Lo: lo, Hi: hi, N: sw.Scenario.N}
}

// Key is the sweep's store key, the service's job id: "j" and the
// fnv64a of the canonical scenario encoding, trials, base seed and (for
// a shard) range, so a resubmit finds its job and output.
func (sw Sweep) Key() (string, error) {
	enc, err := Encode(sw.Scenario)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(enc)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(sw.Trials))
	binary.LittleEndian.PutUint64(b[8:], sw.BaseSeed)
	h.Write(b[:])
	if !sw.Shard.IsZero() {
		binary.LittleEndian.PutUint64(b[:8], uint64(sw.Shard.Lo))
		binary.LittleEndian.PutUint64(b[8:], uint64(sw.Shard.Hi))
		h.Write(b[:])
	}
	return fmt.Sprintf("j%016x", h.Sum64()), nil
}

// Pin is the identity every resumable file of the sweep carries:
// sink.Fingerprint of its first trial's spec and the canonical scenario
// encoding. Every field that changes a trial changes it; the trial
// count and the shard's end do not, so a longer resume still matches.
func (sw Sweep) Pin() (string, error) {
	enc, err := Encode(sw.Scenario)
	if err != nil {
		return "", err
	}
	lo, _ := sw.Range()
	first, err := sw.Scenario.TrialSpec(sim.SweepSeed(sw.BaseSeed, 0, lo))
	if err != nil {
		return "", err
	}
	return sink.Fingerprint(first, enc), nil
}

// Stream runs the sweep after a resume kept its first done trials:
// specs are Specs() (a caller may wrap them), only specs[done:] run,
// and every sink sees sweep-global trial indices, so a shard's or a
// resumed run's output continues the whole sweep's.
func (sw Sweep) Stream(ctx context.Context, procs int, specs []sim.TrialSpec, done int, sinks ...sim.Sink) error {
	lo, _ := sw.Range()
	offset := make([]sim.Sink, len(sinks))
	for i, s := range sinks {
		offset[i] = sink.Offset(lo+done, s)
	}
	return sim.Stream(ctx, procs, specs[done:], offset...)
}
