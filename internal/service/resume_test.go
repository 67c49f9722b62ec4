package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rcbcast/internal/scenario"
)

// TestRestartResumesInterruptedJob pins the durability contract end to
// end inside the package: a job interrupted mid-run — shut down
// gracefully, then made to look SIGKILLed (record doctored back to
// "running", journal tail torn) — is re-admitted by the next manager,
// resumes from its journaled prefix without any client action, and its
// final results are byte-identical to an uninterrupted run.
func TestRestartResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario("restart-resume")
	const trials = 60
	gate := newTrialGate(5)
	teardown := setWrapSpecs(gate.wrap)

	m1, err := NewManager(Config{Dir: dir, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	m1.Logf = t.Logf
	j, accepted, err := m1.Submit("alice", sc, trials, 1)
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	waitStatus(t, j, "prefix delivered", func(st Status) bool { return st.Done >= 1 })
	gate.waitParked(t)

	// Graceful shutdown while the job is mid-run. Release the gate only
	// after the drain has begun, so the run is guaranteed to end on the
	// canceled context — a checkpointed partial, not a completion.
	closeErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closeErr <- m1.Close(ctx)
	}()
	for m1.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	gate.release()
	if err := <-closeErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	teardown()

	st := j.Status()
	if st.State != StateQueued {
		t.Fatalf("drained job is %s, want queued (requeued for restart)", st.State)
	}
	if st.Done == 0 || st.Done >= trials {
		t.Fatalf("drained job delivered %d trials, want a strict mid-run prefix", st.Done)
	}

	// Make the store look SIGKILLed rather than drained: the job's last
	// journal line still claims "running" and its output's last line is
	// torn.
	storePath := filepath.Join(dir, "jobs.ndjson")
	rec, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	queued := []byte(`"state":"queued"`)
	last := bytes.LastIndex(rec, queued)
	if last < 0 || bytes.IndexByte(rec[last:], '\n') != len(rec[last:])-1 {
		t.Fatalf("record did not contain the queued state:\n%s", rec)
	}
	doctored := slices.Concat(rec[:last], []byte(`"state":"running"`), rec[last+len(queued):])
	if err := os.WriteFile(storePath, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, j.ID+".ndjson"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"trial":9999,"n":64,"informed":1`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Restart: the new manager must resume the job on its own.
	m2 := newTestManager(t, Config{Dir: dir, Procs: 2})
	j2, ok := m2.Get(j.ID)
	if !ok {
		t.Fatalf("restarted manager lost job %s", j.ID)
	}
	final := waitStatus(t, j2, "resumed to done", stateIs(StateDone))
	if final.Done != trials {
		t.Fatalf("resumed job done = %d, want %d", final.Done, trials)
	}
	got := readResults(t, j2)
	if want := referenceNDJSON(t, sc, trials, 1); !bytes.Equal(got, want) {
		t.Fatalf("resumed results differ from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if inflight := m2.Metrics().ClientsInFlight; len(inflight) != 0 {
		t.Fatalf("limiter slots leaked after completion: %v", inflight)
	}
}

// TestRestartLoadsTerminalJobs: completed jobs survive a restart as
// history — served, deduped against, not rerun.
func TestRestartLoadsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario("restart-done")
	const trials = 12

	m1, err := NewManager(Config{Dir: dir, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	m1.Logf = t.Logf
	j, _, err := m1.Submit("alice", sc, trials, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, "done", stateIs(StateDone))
	want := readResults(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Dir: dir, Procs: 2})
	j2, ok := m2.Get(j.ID)
	if !ok {
		t.Fatal("restarted manager lost the done job")
	}
	if st := j2.Status(); st.State != StateDone || st.Done != trials {
		t.Fatalf("restarted job is %s/%d, want done/%d", st.State, st.Done, trials)
	}
	if got := readResults(t, j2); !bytes.Equal(got, want) {
		t.Fatal("results changed across restart")
	}
	j3, accepted, err := m2.Submit("bob", sc, trials, 1)
	if err != nil || accepted || j3 != j2 {
		t.Fatalf("submit of a done sweep should dedupe: accepted=%v err=%v", accepted, err)
	}
}

// TestForeignJournalFailsTheJob: a journal whose fingerprint belongs to
// a different sweep must fail the job loudly, never silently feed it
// wrong results.
func TestForeignJournalFailsTheJob(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir, Procs: 2})

	scA := testScenario("journal-owner")
	jA, _, err := m.Submit("alice", scA, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, jA, "done", stateIs(StateDone))

	// Plant A's journal where the next sweep's journal belongs. The
	// sweeps must differ in the fingerprinted spec (seed, params, or
	// topology — not just the name), or the journals would rightly
	// interchange.
	scB := testScenario("journal-thief")
	scB.N = 32
	idB, err := jobID(scB, 8, 1, scenario.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(jA.out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, idB+".ndjson"), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	jB, _, err := m.Submit("alice", scB, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, jB, "failed", stateIs(StateFailed))
	if !strings.Contains(st.Error, "different sweep") {
		t.Fatalf("failure %q does not name the fingerprint mismatch", st.Error)
	}
}

// TestStoreSkipsCorruptRecords: one unreadable record must not take the
// store down.
func TestStoreSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jbroken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jbroken", "job.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Dir: dir, Procs: 2})
	j, _, err := m.Submit("alice", testScenario("survives-corruption"), 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, "done", stateIs(StateDone))
	if got := len(m.List()); got != 1 {
		t.Fatalf("list holds %d jobs, want 1 (the corrupt record skipped)", got)
	}
}

// TestStaleSweepFingerprintFailsTheJob: the store journal pins the
// fingerprint of the job's specs at submit. A restarted job whose specs
// hash differently must fail loudly and leave its output as it was,
// never append another sweep's trials to it. Once the operator deletes
// the output, the same resubmit re-pins the job and reruns it.
func TestStaleSweepFingerprintFailsTheJob(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario("stale-fingerprint")
	const trials = 40
	gate := newTrialGate(3)
	teardown := setWrapSpecs(gate.wrap)

	m1, err := NewManager(Config{Dir: dir, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	m1.Logf = t.Logf
	j, _, err := m1.Submit("alice", sc, trials, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, "prefix delivered", func(st Status) bool { return st.Done >= 1 })
	gate.waitParked(t)
	if err := m1.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	gate.release()
	waitStatus(t, j, "canceled", stateIs(StateCanceled))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	teardown()

	storePath := filepath.Join(dir, "jobs.ndjson")
	rec, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	pinned := `"sweep":"` + j.sweep + `"`
	if j.sweep == "" || !bytes.Contains(rec, []byte(pinned)) {
		t.Fatalf("record does not pin the sweep fingerprint %q:\n%s", j.sweep, rec)
	}
	if err := os.WriteFile(storePath, bytes.Replace(rec, []byte(pinned), []byte(`"sweep":"0123456789abcdef"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readResults(t, j)
	if len(before) == 0 {
		t.Fatal("canceled job left no results to protect")
	}

	m2 := newTestManager(t, Config{Dir: dir, Procs: 2})
	j2, accepted, err := m2.Submit("alice", sc, trials, 1)
	if err != nil || !accepted {
		t.Fatalf("resubmit: accepted=%v err=%v", accepted, err)
	}
	st := waitStatus(t, j2, "failed", stateIs(StateFailed))
	if !strings.Contains(st.Error, "different sweep") || !strings.Contains(st.Error, "delete "+j.ID+".ndjson") {
		t.Fatalf("failure %q does not name the fingerprint mismatch and the reset", st.Error)
	}
	if got := readResults(t, j2); !bytes.Equal(got, before) {
		t.Fatalf("a stale-fingerprint run modified its output (%d bytes, was %d)", len(got), len(before))
	}
	if err := m2.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The operator reset: with the output gone, the resubmit re-pins the
	// job and reruns it from trial 0, and the new pin survives a restart.
	if err := os.Remove(j2.out); err != nil {
		t.Fatal(err)
	}
	m3 := newTestManager(t, Config{Dir: dir, Procs: 2})
	j3, accepted, err := m3.Submit("alice", sc, trials, 1)
	if err != nil || !accepted {
		t.Fatalf("resubmit after reset: accepted=%v err=%v", accepted, err)
	}
	waitStatus(t, j3, "done after reset", stateIs(StateDone))
	if got, want := readResults(t, j3), referenceNDJSON(t, sc, trials, 1); !bytes.Equal(got, want) {
		t.Fatalf("rerun after reset differs from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if err := m3.Close(ctx); err != nil {
		t.Fatal(err)
	}
	m4 := newTestManager(t, Config{Dir: dir, Procs: 2})
	j4, ok := m4.Get(j.ID)
	if !ok {
		t.Fatal("restarted manager lost the re-pinned job")
	}
	if j4.sweep != j.sweep || j4.Status().State != StateDone {
		t.Fatalf("after restart the job is %s pinned to %q, want done pinned to %q", j4.Status().State, j4.sweep, j.sweep)
	}
}
