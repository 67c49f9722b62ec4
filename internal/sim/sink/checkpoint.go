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
// the delivered prefix. Because session delivery is in trial order, the
// journal is always the contiguous prefix [0, Done()) of the sweep;
// OpenCheckpoint tolerates a torn trailing line (an interrupted write)
// by truncating it. Results round-trip exactly through the journal
// (encoding/json preserves every int64 and float64), which is what
// makes a resumed sweep's downstream sink output byte-identical to an
// uninterrupted run's — the determinism test pins that.
//
// The full-fidelity journal is a deliberate size/correctness trade:
// replay must reproduce whatever any downstream sink reads, including
// the O(n) NodeCosts vector and recorded phases, so one journal line
// costs roughly one serialized Result (~kilobytes at n=1024) rather
// than the ~200-byte summary Record. Budget journal disk as
// trials × result size. A sweep whose only output is summary Records
// can journal those instead: service jobs resume from their out.ndjson.
//
// Each Trial call flushes its line, so a context-canceled process loses
// at most the trial in flight.
type Checkpoint struct {
	path   string
	log    *journal.Log
	done   int
	sweep  string // fingerprint from the journal header ("" when absent)
	lo, hi int    // shard range from the header (0,0 = whole-sweep journal)
}

// journalHeader is the journal's first line: a fingerprint of the spec
// list the sweep was started with, so a resume with different specs
// fails fast instead of silently splicing two different experiments.
// Shard journals (StreamCheckpointedShard) additionally record their
// trial range [lo, hi): the fingerprint alone covers only the leading
// spec, so two shards with the same lo but different hi — [0, 100) and
// [0, 200) of one sweep — would otherwise collide and silently resume
// each other's journals.
type journalHeader struct {
	Sweep string `json:"sweep"`
	Lo    int    `json:"lo,omitempty"`
	Hi    int    `json:"hi,omitempty"`
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
				c.sweep, c.lo, c.hi = jh.Sweep, jh.Lo, jh.Hi
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

// writeHeader stamps a fresh journal with the sweep fingerprint and,
// for shard journals, the trial range [lo, hi). Whole-sweep journals
// pass (0, 0) and keep the pre-shard header shape.
func (c *Checkpoint) writeHeader(fp string, lo, hi int) error {
	if err := c.log.Append(journalHeader{Sweep: fp, Lo: lo, Hi: hi}); err != nil {
		return err
	}
	c.sweep, c.lo, c.hi = fp, lo, hi
	return nil
}

// Flush implements sim.Sink. Every Trial has already flushed its line;
// Flush reports the first write failure, if any.
func (c *Checkpoint) Flush() error { return c.log.Err() }

// Close closes the journal file.
func (c *Checkpoint) Close() error { return c.log.Close() }

// Fingerprint hashes the sweep's first spec — its seed, protocol
// instance, and topology — into the token a checkpoint header (and a
// service job record) pins a sweep with. Derived sweeps share one
// scenario and base seed across all specs, so the first spec catches
// the realistic mismatches (a different -n, -seed, -topology, or
// scenario override) while still allowing a longer -trials resume of
// the same sweep. Strategy, pool, and Configure are factories and
// cannot be hashed; two sweeps differing only in those are not
// distinguished.
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
// specs, and the concatenated sink output is byte-identical to an
// uninterrupted run.
//
// The journal's header records a fingerprint of the spec list; resuming
// with different specs (another n, base seed, trial count, or protocol
// override) is rejected instead of silently splicing two different
// sweeps into one output.
func StreamCheckpointed(ctx context.Context, procs int, specs []sim.TrialSpec, cp *Checkpoint, sinks ...sim.Sink) error {
	return streamCheckpointed(ctx, procs, 0, false, specs, cp, sinks)
}

// StreamCheckpointedShard is StreamCheckpointed for one contiguous
// shard [lo, lo+len(specs)) of a larger sweep (scenario.ShardSpecs):
// sink delivery is re-indexed to sweep-global trial coordinates, and
// the journal header records the shard range alongside the sweep
// fingerprint. A shard journal therefore can never be resumed by a
// different shard of the same sweep — the fingerprint alone already
// separates shards with different lo (their leading seeds differ), and
// the recorded range separates same-lo shards with different hi —
// and a whole-sweep run rejects a shard journal (and vice versa)
// instead of silently splicing ranges. width is ignored (every sweep
// runs on the batch kernel); it stays for existing callers.
func StreamCheckpointedShard(ctx context.Context, procs, width, lo int, specs []sim.TrialSpec, cp *Checkpoint, sinks ...sim.Sink) error {
	if lo < 0 {
		return fmt.Errorf("sink: shard lo must be >= 0 (got %d)", lo)
	}
	return streamCheckpointed(ctx, procs, lo, true, specs, cp, sinks)
}

// streamCheckpointed is the one implementation under both entry points.
// sharded selects the shard contract: delivery offset by lo and a
// range-stamped, range-checked journal header covering [lo,
// lo+len(specs)).
func streamCheckpointed(ctx context.Context, procs, lo int, sharded bool, specs []sim.TrialSpec, cp *Checkpoint, sinks []sim.Sink) error {
	if cp.Done() > len(specs) {
		return fmt.Errorf("sink: checkpoint has %d trials but the sweep has %d", cp.Done(), len(specs))
	}
	if len(specs) == 0 {
		return cp.Flush()
	}
	wantLo, wantHi := 0, 0
	if sharded {
		wantLo, wantHi = lo, lo+len(specs)
	}
	fp := Fingerprint(specs)
	switch {
	case cp.sweep == "" && cp.done == 0:
		// Fresh journal: stamp the header before any trial.
		if err := cp.writeHeader(fp, wantLo, wantHi); err != nil {
			return err
		}
	case cp.sweep != "" && (cp.lo != wantLo || cp.hi != wantHi):
		return fmt.Errorf(
			"sink: checkpoint %s was written by shard %s of the sweep, not %s — delete it or rerun with the original shard",
			cp.path, rangeLabel(cp.lo, cp.hi), rangeLabel(wantLo, wantHi))
	case cp.sweep != "" && cp.sweep != fp:
		return fmt.Errorf(
			"sink: checkpoint %s was written by a different sweep (fingerprint %s, this sweep %s) — delete it or rerun with the original specs",
			cp.path, cp.sweep, fp)
	default:
		// A non-empty headerless journal (cp used directly as a Stream
		// sink) cannot be validated; accept it as-is.
	}
	// The journal stores shard-local indices; downstream sinks see
	// sweep-global ones.
	outSinks := sinks
	if lo > 0 {
		outSinks = make([]sim.Sink, len(sinks))
		for i, s := range sinks {
			outSinks[i] = offset{d: lo, s: s}
		}
	}
	if err := cp.Replay(outSinks...); err != nil {
		return err
	}
	base := cp.Done()
	session := make([]sim.Sink, 0, len(sinks)+1)
	session = append(session, cp) // journal first: never emit a trial the journal lacks
	for _, s := range sinks {
		session = append(session, offset{d: base + lo, s: s})
	}
	return sim.Stream(ctx, procs, specs[base:], session...)
}

// rangeLabel names a header range for error messages; (0,0) is the
// whole sweep.
func rangeLabel(lo, hi int) string {
	if lo == 0 && hi == 0 {
		return "[whole sweep]"
	}
	return fmt.Sprintf("[%d,%d)", lo, hi)
}

// offset re-indexes a shard- or tail-local delivery back to sweep
// coordinates for downstream sinks.
type offset struct {
	d int
	s sim.Sink
}

func (o offset) Trial(i int, r *engine.Result) error { return o.s.Trial(i+o.d, r) }
func (o offset) Flush() error                        { return o.s.Flush() }

// Offset re-indexes a sink's trial indices by a fixed delta — the
// adapter shard runs use to deliver sweep-global trial numbers from a
// shard-local streaming session (rcexp -shard without a checkpoint).
func Offset(delta int, s sim.Sink) sim.Sink { return offset{d: delta, s: s} }
