package sink

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"rcbcast/internal/engine"
	"rcbcast/internal/journal"
	"rcbcast/internal/sim"
)

// Checkpoint journals every delivered trial — the full engine.Result,
// one NDJSON line — so an interrupted sweep resumes without re-running
// the delivered prefix. In-order delivery keeps the journal the
// contiguous prefix [0, Done()) of the sweep, and results round-trip
// exactly through encoding/json, so a resumed sweep's sink output is
// byte-identical to an uninterrupted run's.
//
// A line costs one serialized Result, O(n) with its NodeCosts
// (~kilobytes at n=1024, against a ~200-byte Record): the price of the
// rcbcast façade's arbitrary sinks, and of perfbench's ladder. Sweeps
// that output Records keep a record journal instead (OpenRecords).
//
// Each Trial call flushes its line, so a context-canceled process loses
// at most the trial in flight.
type Checkpoint struct {
	path  string
	log   *journal.Log
	done  int
	sweep string // fingerprint from the journal header ("" when absent)
}

// journalHeader is the journal's first line and a record journal's
// pin: the Fingerprint of the specs the sweep started with, so a resume
// with other specs fails instead of splicing two experiments. (Older
// shard journals also carry a range, lo and hi; it is ignored.)
type journalHeader struct {
	Sweep string `json:"sweep"`
}

// journalLine is one journaled trial.
type journalLine struct {
	Trial  int            `json:"trial"`
	Result *engine.Result `json:"result"`
}

// OpenCheckpoint opens (or creates) a journal at path and validates its
// leading lines: an optional header, then consecutive trials from 0,
// each a decodable journalLine with a non-null result. Anything after
// the valid prefix — a torn line from an interrupted write, or a
// corrupt one — is truncated away (internal/journal).
func OpenCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{path: path}
	first := true
	lg, err := journal.Open(path, func(line []byte) (bool, error) {
		if first {
			first = false
			var jh journalHeader
			if json.Unmarshal(line, &jh) == nil && jh.Sweep != "" {
				c.sweep = jh.Sweep
				return true, nil
			}
		}
		var jl journalLine
		if json.Unmarshal(line, &jl) != nil || jl.Trial != c.done || jl.Result == nil {
			return false, nil
		}
		c.done++
		return true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("sink: checkpoint: %w", err)
	}
	c.log = lg
	return c, nil
}

// Done returns the number of journaled leading trials; a resumed sweep
// starts at this index.
func (c *Checkpoint) Done() int { return c.done }

// Replay re-delivers the journaled prefix to the sinks in trial order,
// streaming one result at a time from the file — replay memory is O(1)
// in the journal length.
func (c *Checkpoint) Replay(sinks ...sim.Sink) error {
	if c.done == 0 {
		return nil
	}
	rf, err := os.Open(c.path)
	if err != nil {
		return fmt.Errorf("sink: checkpoint replay: %w", err)
	}
	defer rf.Close()
	dec := json.NewDecoder(bufio.NewReader(rf))
	if c.sweep != "" {
		var jh journalHeader
		if err := dec.Decode(&jh); err != nil {
			return fmt.Errorf("sink: checkpoint replay header: %w", err)
		}
	}
	for i := 0; i < c.done; i++ {
		var jl journalLine
		if err := dec.Decode(&jl); err != nil {
			return fmt.Errorf("sink: checkpoint replay trial %d: %w", i, err)
		}
		for _, s := range sinks {
			if err := s.Trial(jl.Trial, jl.Result); err != nil {
				return err
			}
		}
	}
	return nil
}

// Trial implements sim.Sink. The journaled trial number is the running
// count Done(), not the incoming index: a resumed session streams only
// the tail specs (indices restart at 0), and in-order contiguous
// delivery guarantees the count is the sweep-global index.
func (c *Checkpoint) Trial(_ int, r *engine.Result) error {
	if err := c.log.Append(journalLine{Trial: c.done, Result: r}); err != nil {
		return err
	}
	c.done++
	return nil
}

// Flush implements sim.Sink. Every Trial has already flushed its line;
// Flush reports the first write failure, if any.
func (c *Checkpoint) Flush() error { return c.log.Err() }

// Close closes the journal file.
func (c *Checkpoint) Close() error { return c.log.Close() }

// Fingerprint hashes the sweep's first spec — its seed, protocol
// instance, and topology — into the token a journal header or pin (and
// a service job record) pins a sweep with. Derived sweeps share one
// scenario and base seed across all specs, so the first spec catches
// the realistic mismatches (another -n, -seed, -topology, shard or
// override) while still allowing a longer -trials resume. Strategy,
// pool, and Configure are factories and cannot be hashed.
func Fingerprint(specs []sim.TrialSpec) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], specs[0].Seed)
	h.Write(b[:])
	if params, err := json.Marshal(specs[0].Params); err == nil {
		h.Write(params)
	}
	if topo, err := json.Marshal(specs[0].Topology); err == nil {
		h.Write(topo)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// StreamCheckpointed runs a sweep through sim.Stream with cp journaling
// every delivered trial. Trials already journaled are replayed to the
// sinks from the journal instead of re-run; the rest execute normally
// with their delivery re-indexed to sweep coordinates. Interrupt a
// sweep (ctx cancellation returns the session's *sim.PartialError),
// reopen the checkpoint, call StreamCheckpointed again with the same
// specs, and the sink output is byte-identical to an uninterrupted
// run. A journal of other specs (per its header's fingerprint) or
// longer than the sweep is rejected. Its caller is the rcbcast façade.
func StreamCheckpointed(ctx context.Context, procs int, specs []sim.TrialSpec, cp *Checkpoint, sinks ...sim.Sink) error {
	return StreamCheckpointedShard(ctx, procs, 0, 0, specs, cp, sinks...)
}

// StreamCheckpointedShard is StreamCheckpointed for the shard
// [lo, lo+len(specs)) of a larger sweep (scenario.ShardSpecs), with
// sink delivery at sweep-global indices. Trial seeds are sweep-global,
// so the fingerprint separates shards with different lo, and a journal
// of the same lo replays exactly the trials this run would compute.
// Its caller is perfbench's ladder, for which the ignored width stays.
func StreamCheckpointedShard(ctx context.Context, procs, width, lo int, specs []sim.TrialSpec, cp *Checkpoint, sinks ...sim.Sink) error {
	if lo < 0 {
		return fmt.Errorf("sink: shard lo must be >= 0 (got %d)", lo)
	}
	if cp.Done() > len(specs) {
		return fmt.Errorf("sink: checkpoint has %d trials but the sweep has %d", cp.Done(), len(specs))
	}
	if len(specs) == 0 {
		return cp.Flush()
	}
	// A non-empty headerless journal (cp used directly as a Stream sink)
	// cannot be validated and is accepted as-is.
	switch fp := Fingerprint(specs); {
	case cp.sweep == "" && cp.done == 0: // fresh: stamp the header before any trial
		if err := cp.log.Append(journalHeader{Sweep: fp}); err != nil {
			return err
		}
		cp.sweep = fp
	case cp.sweep != "" && cp.sweep != fp:
		return fmt.Errorf("sink: checkpoint %s was written by a different sweep (fingerprint %s, this sweep %s) — delete it or rerun with the original specs",
			cp.path, cp.sweep, fp)
	}
	// The journal stores shard-local indices; downstream sinks see
	// sweep-global ones.
	replay := make([]sim.Sink, len(sinks))
	for i, s := range sinks {
		replay[i] = offset{d: lo, s: s}
	}
	if err := cp.Replay(replay...); err != nil {
		return err
	}
	base := cp.Done()
	session := []sim.Sink{cp} // journal first: never emit a trial the journal lacks
	for _, s := range sinks {
		session = append(session, offset{d: base + lo, s: s})
	}
	return sim.Stream(ctx, procs, specs[base:], session...)
}

// offset re-indexes a shard- or tail-local delivery back to sweep
// coordinates for downstream sinks.
type offset struct {
	d int
	s sim.Sink
}

func (o offset) Trial(i int, r *engine.Result) error { return o.s.Trial(i+o.d, r) }
func (o offset) Flush() error                        { return o.s.Flush() }

// Offset re-indexes a sink's trial indices by a fixed delta, so a shard
// or resumed run's session delivers sweep-global trial numbers.
func Offset(delta int, s sim.Sink) sim.Sink { return offset{d: delta, s: s} }
