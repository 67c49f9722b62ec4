package sink

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcbcast/internal/engine"
	"rcbcast/internal/sim"
	"rcbcast/internal/topology"
)

func openCheckpoint(t *testing.T, path string) *Checkpoint {
	t.Helper()
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.Close() })
	return cp
}

func TestCheckpointJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	specs := jamSpecs(64, 4)

	cp := openCheckpoint(t, path)
	var first bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 2, 0, 0, specs, cp, NewNDJSON(&first)); err != nil {
		t.Fatal(err)
	}
	if cp.Done() != 4 {
		t.Fatalf("journal has %d trials, want 4", cp.Done())
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the journal is complete, so nothing re-runs and the
	// replayed output is byte-identical.
	cp2 := openCheckpoint(t, path)
	if cp2.Done() != 4 {
		t.Fatalf("reopened journal has %d trials, want 4", cp2.Done())
	}
	var replayed bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 2, 0, 0, specs, cp2, NewNDJSON(&replayed)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed.Bytes(), first.Bytes()) {
		t.Fatalf("replayed output differs:\n%s\nvs\n%s", replayed.String(), first.String())
	}
}

func TestCheckpointTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	specs := jamSpecs(64, 3)
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, cp); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate an interrupted write: a torn, newline-less trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trial":3,"result":{"N":64,`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2 := openCheckpoint(t, path)
	if cp2.Done() != 3 {
		t.Fatalf("torn journal recovered %d trials, want 3", cp2.Done())
	}
	// And the file itself was truncated back to the valid prefix, so a
	// resumed run appends cleanly after trial 2.
	var out bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 5), cp2, NewNDJSON(&out)); err != nil {
		t.Fatal(err)
	}
	if cp2.Done() != 5 {
		t.Fatalf("resumed journal has %d trials, want 5", cp2.Done())
	}
}

func TestCheckpointLongerThanSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 4), cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	cp2 := openCheckpoint(t, path)
	err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 2), cp2)
	if err == nil {
		t.Fatal("a journal longer than the sweep must be rejected")
	}
}

// TestCheckpointCancelResumeByteIdentical is the resume contract end to
// end — the determinism satellite: a sweep canceled mid-run, reopened,
// and resumed produces NDJSON byte-identical to an uninterrupted run.
func TestCheckpointCancelResumeByteIdentical(t *testing.T) {
	const trials = 24
	specs := func() []sim.TrialSpec { return jamSpecs(64, trials) }

	// Reference: uninterrupted.
	var want bytes.Buffer
	if err := sim.Stream(context.Background(), 4, specs(), NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := openCheckpoint(t, path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first bytes.Buffer
	err := StreamCheckpointedShard(ctx, 4, 0, 0, specs(), cp,
		NewNDJSON(&first),
		Func(func(i int, _ *engine.Result) error {
			if i == 7 {
				cancel()
			}
			return nil
		}))
	var pe *sim.PartialError
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: want *sim.PartialError wrapping Canceled, got %v", err)
	}
	if cp.Done() <= 7 || cp.Done() >= trials {
		t.Fatalf("journal has %d trials, want a strict mid-sweep prefix past 7", cp.Done())
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with the same specs: journaled trials replay, the rest run.
	cp2 := openCheckpoint(t, path)
	var full bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 4, 0, 0, specs(), cp2, NewNDJSON(&full)); err != nil {
		t.Fatal(err)
	}
	if cp2.Done() != trials {
		t.Fatalf("resumed journal has %d trials, want %d", cp2.Done(), trials)
	}
	if !bytes.Equal(full.Bytes(), want.Bytes()) {
		t.Fatalf("resumed NDJSON differs from uninterrupted run:\n%s\nvs\n%s",
			full.String(), want.String())
	}
	// The interrupted attempt's partial output is exactly the prefix of
	// the reference — nothing was emitted out of order or duplicated.
	if !bytes.HasPrefix(want.Bytes(), first.Bytes()) {
		t.Fatalf("interrupted output is not a prefix of the reference:\n%s", first.String())
	}
}

// TestCheckpointMidJournalCorruptionDropsSuffix: a corrupted interior
// line breaks the contiguous-prefix invariant, so everything from the
// corruption on is truncated away and re-run — the resumed output must
// still be byte-identical to an uninterrupted sweep.
func TestCheckpointMidJournalCorruptionDropsSuffix(t *testing.T) {
	specs := jamSpecs(64, 4)
	var want bytes.Buffer
	if err := sim.Stream(context.Background(), 1, jamSpecs(64, 4), NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	// Corrupt the journal line of trial 1 (line 2: after the header) in
	// place, keeping the line count intact.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 5 {
		t.Fatalf("journal has %d lines, want header + 4 trials", len(lines))
	}
	lines[2] = append(bytes.Repeat([]byte("x"), len(lines[2])-1), '\n')
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	cp2 := openCheckpoint(t, path)
	if cp2.Done() != 1 {
		t.Fatalf("corrupted journal recovered %d trials, want 1 (the prefix before the damage)", cp2.Done())
	}
	var out bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 4), cp2, NewNDJSON(&out)); err != nil {
		t.Fatal(err)
	}
	if cp2.Done() != 4 {
		t.Fatalf("resumed journal has %d trials, want 4", cp2.Done())
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("resume after mid-journal corruption differs from uninterrupted run:\n%s\nvs\n%s",
			out.String(), want.String())
	}
}

// TestCheckpointOutOfOrderTrialsTruncated: journal lines must be the
// consecutive trials 0..done-1; a gap (here 0 then 2) ends the valid
// prefix even though every line parses.
func TestCheckpointOutOfOrderTrialsTruncated(t *testing.T) {
	specs := jamSpecs(64, 3)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// header, trial0, trial2 (trial1 removed): the gap invalidates the
	// suffix, not just the missing line.
	doctored := bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil)
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}

	cp2 := openCheckpoint(t, path)
	defer cp2.Close()
	if cp2.Done() != 1 {
		t.Fatalf("gapped journal recovered %d trials, want 1", cp2.Done())
	}
}

// TestCheckpointNullResultTruncated: a line that decodes as the next
// trial but carries no result — an explicit null, a missing field, or a
// repeated header line, which decodes as trial 0 — is a corrupt tail,
// not a trial. Accepting it would hand Replay a nil *engine.Result for
// the sinks to dereference.
func TestCheckpointNullResultTruncated(t *testing.T) {
	var want bytes.Buffer
	if err := sim.Stream(context.Background(), 1, jamSpecs(64, 3), NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 2), cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n")) // header, trial 0, trial 1, ""
	for name, tc := range map[string]struct {
		kept [][]byte
		bad  string
	}{
		"null result":     {lines[:3], `{"trial":2,"result":null}` + "\n"},
		"missing result":  {lines[:3], `{"trial":2}` + "\n"},
		"repeated header": {lines[:1], string(lines[0])},
	} {
		t.Run(name, func(t *testing.T) {
			kept := bytes.Join(tc.kept, nil)
			if err := os.WriteFile(path, append(append([]byte{}, kept...), tc.bad...), 0o644); err != nil {
				t.Fatal(err)
			}
			cp := openCheckpoint(t, path)
			done := cp.Done()
			reopened, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 3), cp, NewNDJSON(&out)); err != nil {
				t.Fatal(err)
			}
			if done != len(tc.kept)-1 {
				t.Fatalf("recovered %d trials, want %d", done, len(tc.kept)-1)
			}
			if !bytes.Equal(reopened, kept) {
				t.Fatalf("journal not truncated to the valid prefix:\n%s", reopened)
			}
			if !bytes.Equal(out.Bytes(), want.Bytes()) {
				t.Fatalf("resumed output differs from uninterrupted run:\n%s\nvs\n%s", out.String(), want.String())
			}
		})
	}
}

// TestCheckpointCorruptHeaderRestartsJournal: an unreadable header
// invalidates the whole journal (there is no way to check what sweep it
// belongs to), so the resume re-runs from scratch — and still produces
// byte-identical output.
func TestCheckpointCorruptHeaderRestartsJournal(t *testing.T) {
	specs := jamSpecs(64, 3)
	var want bytes.Buffer
	if err := sim.Stream(context.Background(), 1, jamSpecs(64, 3), NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte(`#smash`)) // the header line no longer parses
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cp2 := openCheckpoint(t, path)
	if cp2.Done() != 0 {
		t.Fatalf("journal with a corrupt header recovered %d trials, want 0", cp2.Done())
	}
	var out bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 3), cp2, NewNDJSON(&out)); err != nil {
		t.Fatal(err)
	}
	if cp2.Done() != 3 {
		t.Fatalf("restarted journal has %d trials, want 3", cp2.Done())
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("restart after header corruption differs from uninterrupted run:\n%s\nvs\n%s",
			out.String(), want.String())
	}
}

// TestCheckpointSpecMismatchRejected: resuming with different specs —
// another n, seed base, or trial count — must fail fast instead of
// splicing two sweeps into one output file.
func TestCheckpointSpecMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 3), cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	for name, specs := range map[string][]sim.TrialSpec{
		"different n":    jamSpecs(128, 3),
		"different seed": func() []sim.TrialSpec { s := jamSpecs(64, 3); s[0].Seed++; return s }(),
		"different topology": func() []sim.TrialSpec {
			s := jamSpecs(64, 3)
			for i := range s {
				s[i].Topology = topology.Spec{Kind: "gilbert", Radius: 0.3}
			}
			return s
		}(),
	} {
		cp2 := openCheckpoint(t, path)
		err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, cp2)
		if err == nil || !strings.Contains(err.Error(), "different sweep") {
			t.Fatalf("%s: want fingerprint rejection, got %v", name, err)
		}
	}

	// Identical specs still resume.
	cp3 := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(64, 3), cp3); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointShardGlobalIndices: a shard session delivers sweep-
// global trial numbers, so its NDJSON is the byte-exact slice of the
// full run's.
func TestCheckpointShardGlobalIndices(t *testing.T) {
	const trials = 10
	whole := jamSpecs(64, trials)

	var want bytes.Buffer
	if err := sim.Stream(context.Background(), 2, whole, NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}
	wantLines := bytes.SplitAfter(want.Bytes(), []byte("\n"))

	for _, r := range []struct{ lo, hi int }{{0, 4}, {3, 7}, {9, 10}, {0, 10}} {
		path := filepath.Join(t.TempDir(), "shard.ckpt")
		cp := openCheckpoint(t, path)
		var got bytes.Buffer
		if err := StreamCheckpointedShard(context.Background(), 2, 1, r.lo, whole[r.lo:r.hi], cp, NewNDJSON(&got)); err != nil {
			t.Fatalf("shard [%d,%d): %v", r.lo, r.hi, err)
		}
		want := bytes.Join(wantLines[r.lo:r.hi], nil)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("shard [%d,%d) output is not the slice of the full run:\n%s\nvs\n%s",
				r.lo, r.hi, got.String(), string(want))
		}
	}
	if err := StreamCheckpointedShard(context.Background(), 1, 1, -1, whole[:1], openCheckpoint(t, filepath.Join(t.TempDir(), "x.ckpt"))); err == nil {
		t.Fatal("negative lo accepted")
	}
}

// TestCheckpointShardInterruptResume: a shard sweep interrupted
// mid-run resumes from its journal with output byte-identical to the
// uninterrupted shard — global indices included.
func TestCheckpointShardInterruptResume(t *testing.T) {
	const trials, lo, hi = 40, 8, 32
	whole := jamSpecs(64, trials)
	shard := whole[lo:hi]

	var want bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 4, 1, lo, shard,
		openCheckpoint(t, filepath.Join(t.TempDir(), "ref.ckpt")), NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "shard.ckpt")
	cp := openCheckpoint(t, path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first bytes.Buffer
	err := StreamCheckpointedShard(ctx, 4, 1, lo, shard, cp,
		NewNDJSON(&first),
		Func(func(i int, _ *engine.Result) error {
			if i == lo+7 { // delivery arrives in sweep coordinates
				cancel()
			}
			return nil
		}))
	var pe *sim.PartialError
	if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled shard: want *sim.PartialError wrapping Canceled, got %v", err)
	}
	if cp.Done() <= 7 || cp.Done() >= hi-lo {
		t.Fatalf("journal has %d trials, want a strict mid-shard prefix past 7", cp.Done())
	}
	cp.Close()

	cp2 := openCheckpoint(t, path)
	var full bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 4, 1, lo, shard, cp2, NewNDJSON(&full)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), want.Bytes()) {
		t.Fatalf("resumed shard NDJSON differs from uninterrupted shard:\n%s\nvs\n%s",
			full.String(), want.String())
	}
	if !bytes.HasPrefix(want.Bytes(), first.Bytes()) {
		t.Fatalf("interrupted shard output is not a prefix of the reference:\n%s", first.String())
	}
}

// TestCheckpointFullyJournaledResumeFlushesEverySink: resuming a sweep
// whose journal already holds every trial replays it and flushes every
// sink, as a live stream does — a failing Flush on the first sink does
// not skip the later ones — and reports the flush error.
func TestCheckpointFullyJournaledResumeFlushesEverySink(t *testing.T) {
	specs := jamSpecs(64, 4)
	path := filepath.Join(t.TempDir(), "full.ckpt")
	cp := openCheckpoint(t, path)
	if err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	first := &flushCounter{err: errors.New("disk full")}
	second := &flushCounter{}
	err := StreamCheckpointedShard(context.Background(), 1, 0, 0, specs, openCheckpoint(t, path), first, second)
	if !errors.Is(err, first.err) {
		t.Fatalf("want the first sink's flush error, got %v", err)
	}
	if second.trials != len(specs) || second.flushes != 1 {
		t.Fatalf("second sink saw %d trials and %d flushes, want %d and 1", second.trials, second.flushes, len(specs))
	}
}

// flushCounter counts deliveries and flushes; Flush returns err.
type flushCounter struct {
	err             error
	trials, flushes int
}

func (f *flushCounter) Trial(int, *engine.Result) error { f.trials++; return nil }
func (f *flushCounter) Flush() error                    { f.flushes++; return f.err }

// TestCheckpointShardRangeMismatchRejected: a shard journal resumes
// only runs whose leading trial it shares. Another lo is rejected by the
// fingerprint (the leading seed differs) with the file untouched; a run
// with the same lo — a longer shard or the whole sweep — replays
// exactly the trials it would compute, because trial seeds are
// sweep-global, and matches an uninterrupted run byte for byte.
func TestCheckpointShardRangeMismatchRejected(t *testing.T) {
	const trials = 12
	whole := jamSpecs(64, trials)
	var want bytes.Buffer
	mustStream(t, 1, whole, NewNDJSON(&want))
	wantLines := bytes.SplitAfter(want.Bytes(), []byte("\n"))
	ctx := context.Background()

	// shardJournal writes a fresh journal of shard [0, 6).
	shardJournal := func() string {
		path := filepath.Join(t.TempDir(), "shard.ckpt")
		if err := StreamCheckpointedShard(ctx, 1, 1, 0, whole[0:6], openCheckpoint(t, path)); err != nil {
			t.Fatal(err)
		}
		return path
	}

	path := shardJournal()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = StreamCheckpointedShard(ctx, 1, 1, 3, whole[3:9], openCheckpoint(t, path))
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("other-lo resume: want a fingerprint rejection, got %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("rejected resume modified the journal")
	}

	for _, tc := range []struct {
		name string
		hi   int
		run  func(cp *Checkpoint, out sim.Sink) error
	}{
		{"longer shard", 9, func(cp *Checkpoint, out sim.Sink) error {
			return StreamCheckpointedShard(ctx, 1, 1, 0, whole[0:9], cp, out)
		}},
		{"whole sweep", trials, func(cp *Checkpoint, out sim.Sink) error {
			return StreamCheckpointedShard(ctx, 1, 0, 0, whole, cp, out)
		}},
	} {
		var got bytes.Buffer
		if err := tc.run(openCheckpoint(t, shardJournal()), NewNDJSON(&got)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), bytes.Join(wantLines[:tc.hi], nil)) {
			t.Fatalf("%s resumed from a [0,6) journal differs from the uninterrupted run:\n%s", tc.name, got.String())
		}
	}
}

// TestCheckpointShardTornTailTruncated: torn-tail recovery under a
// shard journal. A shard journal with a newline-less partial final line
// (the SIGKILL signature) must recover exactly its valid prefix, keep
// its header intact, and resume to output byte-identical to an
// uninterrupted shard run.
func TestCheckpointShardTornTailTruncated(t *testing.T) {
	const trials, lo, hi = 20, 8, 14
	whole := jamSpecs(64, trials)
	shard := whole[lo:hi]

	var want bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 1, 1, lo, shard,
		openCheckpoint(t, filepath.Join(t.TempDir(), "ref.ckpt")), NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}

	// Journal a strict prefix of the shard: cancel after a few
	// deliveries, leaving [lo, lo+k) recorded.
	path := filepath.Join(t.TempDir(), "shard.ckpt")
	cp := openCheckpoint(t, path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := StreamCheckpointedShard(ctx, 1, 1, lo, shard, cp,
		Func(func(i int, _ *engine.Result) error {
			if i == lo+2 {
				cancel()
			}
			return nil
		}))
	var pe *sim.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("canceled shard: want *sim.PartialError, got %v", err)
	}
	prefix := cp.Done()
	if prefix == 0 || prefix >= hi-lo {
		t.Fatalf("journal has %d trials, want a strict nonempty prefix", prefix)
	}
	cp.Close()

	// Tear the final line: a partial record with a sweep-global trial
	// index, no trailing newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trial":` + "11" + `,"result":{"N":64,`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2 := openCheckpoint(t, path)
	if cp2.Done() != prefix {
		t.Fatalf("torn shard journal recovered %d trials, want %d", cp2.Done(), prefix)
	}
	// The header survived the truncation: another lo is still
	// rejected…
	if err := StreamCheckpointedShard(context.Background(), 1, 1, lo+1, whole[lo+1:hi], cp2); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("torn journal lost its fingerprint: %v", err)
	}
	cp2.Close()

	// …and the same shard resumes to byte-identical output.
	cp3 := openCheckpoint(t, path)
	var got bytes.Buffer
	if err := StreamCheckpointedShard(context.Background(), 1, 1, lo, shard, cp3, NewNDJSON(&got)); err != nil {
		t.Fatal(err)
	}
	if cp3.Done() != hi-lo {
		t.Fatalf("resumed journal has %d trials, want %d", cp3.Done(), hi-lo)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed shard output differs from uninterrupted run:\n%s\nvs\n%s",
			got.String(), want.String())
	}
}

// FuzzOpenCheckpoint pins OpenCheckpoint's contract on arbitrary file
// bytes: it never panics, and either fails leaving the file untouched
// or keeps a newline-terminated prefix of it — an optional header plus
// exactly Done() trial lines — that Replay can deliver to a sink.
func FuzzOpenCheckpoint(f *testing.F) {
	dir := f.TempDir()
	journalOf := func(name string, stream func(cp *Checkpoint) error) []byte {
		path := filepath.Join(dir, name)
		cp, err := OpenCheckpoint(path)
		if err != nil {
			f.Fatal(err)
		}
		if err := stream(cp); err != nil {
			f.Fatal(err)
		}
		cp.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	whole := journalOf("whole", func(cp *Checkpoint) error {
		return StreamCheckpointedShard(context.Background(), 1, 0, 0, jamSpecs(16, 3), cp)
	})
	shard := journalOf("shard", func(cp *Checkpoint) error {
		return StreamCheckpointedShard(context.Background(), 1, 1, 2, jamSpecs(16, 4)[2:], cp)
	})
	headerless := journalOf("headerless", func(cp *Checkpoint) error {
		return sim.Stream(context.Background(), 1, jamSpecs(16, 2), cp)
	})
	lines := bytes.SplitAfter(whole, []byte("\n")) // header, trials 0-2, ""
	for _, seed := range [][]byte{
		whole, shard, headerless, nil,
		whole[:len(whole)-7], // torn tail
		bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil),                     // out of order
		append(bytes.Join(lines[:2], nil), `{"trial":1,"result":null}`+"\n"...),     // null result
		append(bytes.Join(lines[:2], nil), `{"trial":1}`+"\n"...),                   // missing result
		bytes.Join([][]byte{lines[0], lines[0], lines[1]}, nil),                     // repeated header
		bytes.Join([][]byte{shard[:bytes.IndexByte(shard, '\n')+1], lines[1]}, nil), // mismatched header
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := OpenCheckpoint(path)
		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(kept, data) {
				t.Fatalf("failed open (%v) modified the file", err)
			}
			return
		}
		defer cp.Close()
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("kept %q is not a newline-terminated prefix of the input", kept)
		}
		entries := bytes.Count(kept, []byte("\n"))
		if cp.sweep != "" {
			entries--
		}
		if cp.Done() != entries {
			t.Fatalf("Done() = %d, but %d trial lines were kept", cp.Done(), entries)
		}
		if err := cp.Replay(NewNDJSON(io.Discard)); err != nil {
			t.Fatalf("replay of the kept prefix: %v", err)
		}
	})
}
