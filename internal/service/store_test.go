package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rcbcast/internal/scenario"
)

// TestStoreJournalConcurrentAppends: submits, runner transitions and
// cancels append to the store journal from many goroutines at once.
// Every line must land whole, and a replay must rebuild each job's final
// state.
func TestStoreJournalConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{Dir: dir, Procs: 1, Runners: 2, QueueDepth: 64, PerClient: 64})
	if err != nil {
		t.Fatal(err)
	}
	m.Logf = t.Logf
	sc := testScenario("store-race")
	const jobs = 16
	got := make([]*Job, jobs)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, _, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: 4, BaseSeed: uint64(i + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = j
			if i%2 == 0 {
				m.Cancel(j.ID) // races the runner; a done job refuses
			}
		}()
	}
	wg.Wait()
	for _, j := range got {
		if j != nil {
			waitStatus(t, j, "terminal", func(st Status) bool { return st.State.terminal() })
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}

	before, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	st, recs, err := openStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	truncated := st.log.Truncated()
	st.close()
	if truncated {
		t.Fatalf("replay dropped a tail of the store journal:\n%s", before)
	}
	if len(recs) != jobs {
		t.Fatalf("replay holds %d jobs, want %d", len(recs), jobs)
	}
	byID := make(map[string]jobRecord, len(recs))
	for _, rec := range recs {
		byID[rec.ID] = rec
	}
	for _, j := range got {
		if want := j.opening(); !reflect.DeepEqual(byID[j.ID], want) {
			t.Errorf("replayed %+v, want the final state %+v", byID[j.ID], want)
		}
	}
}

// TestStoreLayout: a store holds its journal and one flat output file
// per job, with no per-job directories.
func TestStoreLayout(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir, Procs: 1})
	sc := testScenario("layout")
	const shards, size = 5, 3
	want := []string{storeFile}
	for i := range shards {
		j, _, err := m.Submit("coord", scenario.Sweep{Scenario: sc, Trials: shards * size, BaseSeed: 1, Shard: scenario.Shard{Lo: i * size, Hi: (i + 1) * size}})
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, j, "done", stateIs(StateDone))
		want = append(want, j.ID+".ndjson")
	}
	sort.Strings(want)
	if got := storeTree(t, dir); !reflect.DeepEqual(keys(got), want) {
		t.Fatalf("store holds %v, want %v", keys(got), want)
	}
}

// legacyStore writes a store in the per-job directory layout: a done
// job with its whole output, a running job whose output ends in a torn
// line and that still has a stale journal.ckpt, and a queued job saved
// before its first run (no output, no pinned fingerprint).
func legacyStore(t *testing.T, dir string, sc scenario.Scenario, trials int) (done, running, queued string) {
	t.Helper()
	write := func(base uint64, state State, out []byte, pin bool) string {
		id, err := scenario.Sweep{Scenario: sc, Trials: trials, BaseSeed: base}.Key()
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(sc)
		rec := jobRecord{ID: id, Client: "alice", Scenario: raw, Trials: trials, BaseSeed: base, State: state, Version: "old"}
		if pin {
			if rec.Sweep, err = (scenario.Sweep{Scenario: sc, Trials: trials, BaseSeed: base}).Pin(); err != nil {
				t.Fatal(err)
			}
		}
		if state == StateDone {
			rec.Done = trials
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		jobDir := filepath.Join(dir, id)
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jobDir, "job.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if out != nil {
			if err := os.WriteFile(filepath.Join(jobDir, "out.ndjson"), out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	done = write(1, StateDone, referenceNDJSON(t, sc, trials, 1), true)
	ref := referenceNDJSON(t, sc, trials, 2)
	cut := bytes.IndexByte(ref[len(ref)/2:], '\n') + len(ref)/2 + 1
	running = write(2, StateRunning, append(ref[:cut:cut], ref[cut:cut+20]...), true)
	if err := os.WriteFile(filepath.Join(dir, running, "journal.ckpt"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	queued = write(3, StateQueued, nil, false)
	return done, running, queued
}

// TestLegacyStoreImport: a store in the per-job directory layout is
// imported on start. The done job serves its bytes, the interrupted and
// the never-run jobs resume to outputs byte-identical to uninterrupted
// runs, and the directories are gone.
func TestLegacyStoreImport(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario("legacy")
	const trials = 24
	done, running, queued := legacyStore(t, dir, sc, trials)

	m := newTestManager(t, Config{Dir: dir, Procs: 2})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	for id, base := range map[string]uint64{done: 1, running: 2, queued: 3} {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("imported store lost job %s", id)
		}
		waitStatus(t, j, "done", stateIs(StateDone))
		code, body := getBody(t, ts, "/v1/jobs/"+id+"/results")
		if want := referenceNDJSON(t, sc, trials, base); code != 200 || !bytes.Equal(body, want) {
			t.Fatalf("job %s served %d and %d bytes, want 200 and the %d reference bytes", id, code, len(body), len(want))
		}
	}
	if j, _ := m.Get(done); j.Status().Version != "old" {
		t.Fatalf("imported done job has version %q, want the record's", j.Status().Version)
	}
	want := []string{storeFile, done + ".ndjson", queued + ".ndjson", running + ".ndjson"}
	sort.Strings(want)
	if got := storeTree(t, dir); !reflect.DeepEqual(keys(got), want) {
		t.Fatalf("imported store holds %v, want %v", keys(got), want)
	}
}

// TestLegacyImportCrashMidway: an import killed after any of its three
// steps for any job — journal line appended, output renamed, directory
// removed — converges to the same store when it runs again.
func TestLegacyImportCrashMidway(t *testing.T) {
	sc := testScenario("legacy-crash")
	const trials = 12

	importOnce := func(t *testing.T, dir string) {
		t.Helper()
		st, recs, err := openStore(dir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := importLegacy(dir, st, recs, t.Logf); err != nil {
			t.Fatal(err)
		}
		st.close()
	}
	refDir := t.TempDir()
	legacyStore(t, refDir, sc, trials)
	legacy := storeTree(t, refDir)
	importOnce(t, refDir)
	want := storeTree(t, refDir)
	var ids []string // import order: one journal line each
	for line := range strings.Lines(want[storeFile]) {
		var rec jobRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}

	for i, id := range ids {
		for step := 1; step <= 3; step++ {
			t.Run(fmt.Sprintf("job-%d-after-step-%d", i, step), func(t *testing.T) {
				dir := t.TempDir()
				for name, data := range legacy {
					writeTree(t, dir, name, data)
				}
				// Jobs before i finished; job i crashed after step.
				lines := strings.SplitAfter(want[storeFile], "\n")
				writeTree(t, dir, storeFile, strings.Join(lines[:i+1], ""))
				for _, done := range ids[:i] {
					finishImport(t, dir, done, 3)
				}
				finishImport(t, dir, id, step)
				importOnce(t, dir)
				if got := storeTree(t, dir); !reflect.DeepEqual(got, want) {
					t.Fatalf("rerun import holds %v, want %v", keys(got), keys(want))
				}
			})
		}
	}
}

// finishImport performs import steps 2 and 3 (as far as step) for one
// job of a legacy store whose journal line is already written.
func finishImport(t *testing.T, dir, id string, step int) {
	t.Helper()
	if step >= 2 {
		if err := os.Rename(filepath.Join(dir, id, "out.ndjson"), filepath.Join(dir, id+".ndjson")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
	if step >= 3 {
		if err := os.RemoveAll(filepath.Join(dir, id)); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzOpenStore pins openStore's contract on arbitrary journal bytes:
// it never panics, and it either fails with a *StoreError and the file
// byte-for-byte untouched, or keeps a newline-terminated prefix of the
// file that replays to the same jobs, every one with a job id whose
// output lies directly in the store.
func FuzzOpenStore(f *testing.F) {
	const open = `{"id":"j00000000000000a1","client":"c","scenario":{"n":16},"trials":4,"base_seed":1,"sweep":"ab","state":"queued","version":"v"}` + "\n"
	const done = `{"id":"j00000000000000a1","client":"c","state":"done","done":4}` + "\n"
	f.Add([]byte(open + done))
	f.Add([]byte(open))
	f.Add([]byte{})
	f.Add([]byte(open + done[:20]))                                               // torn tail
	f.Add([]byte(open + "not json\n" + done))                                     // corrupt line
	f.Add([]byte(done))                                                           // update for an unknown job
	f.Add([]byte(open + open))                                                    // second opening line
	f.Add([]byte(strings.Replace(open, "j00000000000000a1", "../etc/passwd", 1))) // id outside the store
	f.Add([]byte(open + strings.Replace(done, `"done"`, `"lost"`, 1)))            // unknown state
	f.Add([]byte(open + strings.Replace(done, `"done":4`, `"trials":9`, 1)))      // update rewrites the spec
	f.Add([]byte(open + `{"id":"j00000000000000a1","state":"failed","sweep":"cd"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, storeFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, recs, err := openStore(dir, func(string, ...any) {})
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			var se *StoreError
			if !errors.As(err, &se) {
				t.Fatalf("open failed with %T %v, want a *StoreError", err, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("failed open (%v) modified the file", err)
			}
			return
		}
		st.close()
		if !bytes.HasPrefix(data, got) || len(got) > 0 && got[len(got)-1] != '\n' {
			t.Fatalf("kept %d bytes, not a newline-terminated prefix of the %d-byte file", len(got), len(data))
		}
		seen := make(map[string]bool)
		for _, rec := range recs {
			if seen[rec.ID] {
				t.Fatalf("job %s replayed twice", rec.ID)
			}
			seen[rec.ID] = true
			if p := outputPath(dir, rec.ID); filepath.Dir(p) != dir || !validID(strings.TrimSuffix(filepath.Base(p), ".ndjson")) {
				t.Fatalf("job %q puts its output at %s, outside the store", rec.ID, p)
			}
		}
		st2, again, err := openStore(dir, func(string, ...any) {})
		if err != nil {
			t.Fatalf("reopening the kept prefix: %v", err)
		}
		truncated := st2.log.Truncated()
		st2.close()
		if truncated || !reflect.DeepEqual(again, recs) {
			t.Fatalf("the kept prefix does not replay to the same jobs")
		}
	})
}

// storeTree maps every regular file under dir (by slash path) to its
// contents, and every directory to "<dir>".
func storeTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			tree[rel] = "<dir>"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// writeTree recreates one storeTree entry under dir.
func writeTree(t *testing.T, dir, name, data string) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(name))
	if data == "<dir>" {
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestParentStoreJobs: a store whose jobs were pinned before the pin
// covered the whole scenario. Its done job is still a store hit and
// serves its bytes; its partial job fails with the typed mismatch and
// its output keeps every byte. The ids and pins are the literal values
// that build wrote.
func TestParentStoreJobs(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario("parent-store")
	const trials = 12
	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceNDJSON(t, sc, trials, 2)
	partial := ref[:bytes.IndexByte(ref, '\n')+1]
	var journal bytes.Buffer
	for _, j := range []struct {
		id, pin string
		base    uint64
		state   State
		out     []byte
	}{
		{"j545b6149883487fe", "e73e7b0018a021d5", 1, StateDone, referenceNDJSON(t, sc, trials, 1)},
		{"j35609a407d453ddd", "298e2ff7218e2879", 2, StateRunning, partial},
	} {
		rec := jobRecord{ID: j.id, Client: "alice", Scenario: raw, Trials: trials, BaseSeed: j.base, Sweep: j.pin, State: j.state, Version: "parent"}
		if err := json.NewEncoder(&journal).Encode(rec); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outputPath(dir, j.id), j.out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, storeFile), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: dir, Procs: 2})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	done, accepted, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: trials, BaseSeed: 1})
	if err != nil || accepted || done.ID != "j545b6149883487fe" {
		t.Fatalf("resubmit of the done job: id %s, accepted %v, err %v; want a store hit", done.ID, accepted, err)
	}
	if code, body := getBody(t, ts, "/v1/jobs/"+done.ID+"/results"); code != 200 || !bytes.Equal(body, referenceNDJSON(t, sc, trials, 1)) {
		t.Fatalf("done job served %d and %d bytes", code, len(body))
	}
	j, ok := m.Get("j35609a407d453ddd")
	if !ok {
		t.Fatal("the partial job is gone")
	}
	st := waitStatus(t, j, "failed", stateIs(StateFailed))
	if !strings.Contains(st.Error, "different sweep") || !strings.Contains(st.Error, "pin 298e2ff7218e2879") {
		t.Fatalf("partial job failed with %q, want the pin mismatch", st.Error)
	}
	if got := readResults(t, j); !bytes.Equal(got, partial) {
		t.Fatalf("the refused output changed to %d bytes", len(got))
	}
}
