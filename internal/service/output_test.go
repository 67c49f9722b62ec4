package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"rcbcast/internal/scenario"
)

// busyRunner occupies the manager's only runner with a job parked at
// its first trial, so jobs submitted next stay queued until release.
func busyRunner(t *testing.T, m *Manager) (release func()) {
	t.Helper()
	gate := newTrialGate(0)
	t.Cleanup(setWrapSpecs(gate.wrap))
	t.Cleanup(gate.release)
	if _, _, err := m.Submit("blocker", testScenario("output-blocker"), 4, 7); err != nil {
		t.Fatal(err)
	}
	gate.waitParked(t)
	return gate.release
}

// TestSubmitCreatesEmptyOutput: a new shard job's empty <id>.ndjson
// exists as soon as SubmitShard returns, before any runner opens it.
func TestSubmitCreatesEmptyOutput(t *testing.T) {
	m := newTestManager(t, Config{Procs: 1})
	release := busyRunner(t, m)
	sc := testScenario("output-create")
	const trials = 12
	sh := scenario.Shard{Lo: 4, Hi: 8}
	j, accepted, err := m.SubmitShard("coord", sc, trials, 1, sh)
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	st, err := os.Stat(j.out)
	if err != nil {
		t.Fatalf("no output right after submit: %v", err)
	}
	if st.Size() != 0 || j.Status().State != StateQueued {
		t.Fatalf("output holds %d bytes with the job %s, want an empty file for a queued job", st.Size(), j.Status().State)
	}
	release()
	waitStatus(t, j, "done", stateIs(StateDone))
	if got, want := readResults(t, j), referenceNDJSON(t, sc, trials, 1); !bytes.Equal(got, want[lineOffset(want, sh.Lo):lineOffset(want, sh.Hi)]) {
		t.Fatalf("shard output differs from its slice of the whole sweep (%d bytes)", len(got))
	}
}

// TestStoreHitLeavesOutputUntouched: a resubmit of a done job, and a
// store hit on a restarted manager, touch no file — the output keeps
// its inode, size and mtime.
func TestStoreHitLeavesOutputUntouched(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario("output-hit")
	const trials = 12
	sh := scenario.Shard{Lo: 0, Hi: 6}
	m := newTestManager(t, Config{Dir: dir, Procs: 1})
	j, _, err := m.SubmitShard("coord", sc, trials, 1, sh)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, "done", stateIs(StateDone))
	past := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	if err := os.Chtimes(j.out, past, past); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(j.out)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		after, err := os.Stat(j.out)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !os.SameFile(before, after) || after.Size() != before.Size() || !after.ModTime().Equal(before.ModTime()) {
			t.Fatalf("%s touched the output: inode same %v, size %d → %d, mtime %v → %v",
				what, os.SameFile(before, after), before.Size(), after.Size(), before.ModTime(), after.ModTime())
		}
	}

	if _, accepted, err := m.SubmitShard("coord", sc, trials, 1, sh); err != nil || accepted {
		t.Fatalf("resubmit of a done job: accepted=%v err=%v", accepted, err)
	}
	unchanged("a resubmit of the done job")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, Config{Dir: dir, Procs: 1})
	j2, accepted, err := m2.SubmitShard("coord2", sc, trials, 1, sh)
	if err != nil || accepted || j2.Status().State != StateDone {
		t.Fatalf("store hit after restart: accepted=%v err=%v state=%s", accepted, err, j2.Status().State)
	}
	unchanged("a store hit after restart")
}

// TestDeletedPrecreatedOutputStillCompletes: the empty output a submit
// created is deleted before the job runs. The run creates it again and
// completes byte-identical, and a subscriber that attached while the
// job was queued still reads every byte.
func TestDeletedPrecreatedOutputStillCompletes(t *testing.T) {
	m := newTestManager(t, Config{Procs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	release := busyRunner(t, m)
	sc := testScenario("output-deleted")
	const trials = 12
	sh := scenario.Shard{Lo: 6, Hi: 12}
	j, _, err := m.SubmitShard("coord", sc, trials, 1, sh)
	if err != nil {
		t.Fatal(err)
	}
	// The response headers arrive only after the handler decided
	// whether to open the file, so the subscriber is attached. The
	// timeout bounds the body read: a subscriber left holding the
	// deleted file would wait forever.
	client := &http.Client{Timeout: 20 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/jobs/" + j.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := os.Remove(j.out); err != nil {
		t.Fatalf("the submit created no output to delete: %v", err)
	}
	release()
	waitStatus(t, j, "done", stateIs(StateDone))

	ref := referenceNDJSON(t, sc, trials, 1)
	want := ref[lineOffset(ref, sh.Lo):]
	if got := readResults(t, j); !bytes.Equal(got, want) {
		t.Fatalf("output differs from the reference slice (%d vs %d bytes)", len(got), len(want))
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the early subscriber read %d bytes, want the %d-byte reference slice", len(got), len(want))
	}
}

// lineOffset is the byte offset of line i (0-based) in NDJSON data.
func lineOffset(data []byte, i int) int {
	off := 0
	for ; i > 0; i-- {
		off += bytes.IndexByte(data[off:], '\n') + 1
	}
	return off
}
