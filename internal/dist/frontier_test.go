package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// noFresh is openFrontier's fresh hook for tests with no output.
func noFresh() error { return nil }

// legacyShardLines are the per-shard lines coordinators before the
// header-only journal appended after the header.
const legacyShardLines = `{"shard":0,"bytes":120}` + "\n" + `{"shard":1,"bytes":260}` + "\n" + `{"shard":2,"bytes":390}` + "\n"

// TestFrontierJournalRoundTrip pins the journal's lifecycle: a fresh
// journal runs the fresh hook, then holds exactly its header line; a
// reopen resumes, overrides the caller's shard size with the header's,
// and writes nothing.
func TestFrontierJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	freshRuns := 0
	size, resume, err := openFrontier(path, "abcd", 100, 7, 10, func() error {
		freshRuns++
		if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
			t.Errorf("fresh hook ran over journal %q (%v), want it before the header", data, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if size != 10 || resume || freshRuns != 1 {
		t.Fatalf("fresh journal: size %d, resume %v, fresh hook ran %d times", size, resume, freshRuns)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"sweep":"abcd","trials":100,"base_seed":7,"shard_size":10}` + "\n"; string(written) != want {
		t.Fatalf("fresh journal holds %q, want exactly the header %q", written, want)
	}

	size, resume, err = openFrontier(path, "abcd", 100, 7, 999, func() error {
		t.Error("fresh hook ran on a journal with a header")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if size != 10 || !resume {
		t.Fatalf("reopened journal: size %d, resume %v; want the header's 10 and a resume", size, resume)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, written) {
		t.Fatalf("reopen changed the journal to %q", again)
	}
}

// TestFrontierJournalTornTail: a kill while the header was written
// leaves no complete line, and the next open starts fresh; a torn line
// after a valid header (an older coordinator's shard line) is dropped
// and the journal still resumes.
func TestFrontierJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	if err := os.WriteFile(path, []byte(`{"sweep":"abcd","tri`), 0o644); err != nil {
		t.Fatal(err)
	}
	freshRuns := 0
	if _, resume, err := openFrontier(path, "abcd", 100, 7, 10, func() error { freshRuns++; return nil }); err != nil || resume || freshRuns != 1 {
		t.Fatalf("torn header: resume %v, fresh hook ran %d times, err %v; want a fresh start", resume, freshRuns, err)
	}
	header, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"shard":0,"bytes":120}` + "\n" + `{"shard":1,"by`)
	f.Close()
	if _, resume, err := openFrontier(path, "abcd", 100, 7, 10, noFresh); err != nil || !resume {
		t.Fatalf("torn tail after the header: resume %v, err %v; want a resume", resume, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(header) + `{"shard":0,"bytes":120}` + "\n"; string(data) != want {
		t.Fatalf("journal after recovery %q, want %q", data, want)
	}
}

// TestFrontierJournalRejectsDifferentSweep: a journal written by one
// sweep must refuse a resume under different parameters instead of
// silently merging mismatched outputs, and must leave the file and the
// output alone.
func TestFrontierJournalRejectsDifferentSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	if _, _, err := openFrontier(path, "abcd", 100, 7, 10, noFresh); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refuse := func() error {
		t.Error("fresh hook ran on a rejected journal")
		return nil
	}

	for _, tc := range []struct {
		fp     string
		trials int
		seed   uint64
	}{
		{"beef", 100, 7}, // different scenario
		{"abcd", 200, 7}, // different trial count
		{"abcd", 100, 8}, // different seed
	} {
		var je *sink.JournalError
		if _, _, err := openFrontier(path, tc.fp, tc.trials, tc.seed, 10, refuse); !errors.As(err, &je) ||
			!errors.Is(err, sink.ErrForeignSweep) || je.Path != path || !strings.Contains(err.Error(), "different sweep") {
			t.Fatalf("openFrontier(%+v) = %v, want different-sweep rejection", tc, err)
		}
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, written) {
		t.Fatalf("rejections changed the journal to %q", again)
	}

	// Garbage where the header should be is an error, not a silent
	// restart over a file we don't understand.
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openFrontier(bad, "abcd", 100, 7, 10, refuse); err == nil ||
		!strings.Contains(err.Error(), "unreadable header") {
		t.Fatalf("openFrontier on garbage = %v, want unreadable-header error", err)
	}
}

// TestFrontierJournalNonMonotonicTail: the per-shard lines an older
// coordinator appended — out of order or regressing ones included —
// are kept and ignored: the output, not the journal, says what merged.
func TestFrontierJournalNonMonotonicTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frontier")
	if _, _, err := openFrontier(path, "abcd", 100, 7, 10, noFresh); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(legacyShardLines + `{"shard":5,"bytes":900}` + "\n" + `{"shard":1,"bytes":100}` + "\n")
	f.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	size, resume, err := openFrontier(path, "abcd", 100, 7, 10, noFresh)
	if err != nil || size != 10 || !resume {
		t.Fatalf("legacy journal: size %d, resume %v, err %v", size, resume, err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, written) {
		t.Fatalf("open changed the legacy journal to %q", again)
	}
}

// FuzzOpenFrontier pins openFrontier's contract on arbitrary file
// bytes: it never panics, and either fails leaving the file untouched,
// or resumes keeping every complete line of the input (dropping only a
// newline-less tail), or — when the input held no complete line —
// runs the fresh hook and stamps exactly a fresh header.
func FuzzOpenFrontier(f *testing.F) {
	fresh, err := json.Marshal(frontierHeader{Sweep: "abcd", Trials: 100, BaseSeed: 7, ShardSize: 10})
	if err != nil {
		f.Fatal(err)
	}
	fresh = append(fresh, '\n')
	lines := strings.SplitAfter(legacyShardLines, "\n") // shards 0-2, ""
	legacy := append(append([]byte{}, fresh...), legacyShardLines...)
	for _, seed := range [][]byte{
		legacy, nil,
		legacy[:len(legacy)-5], // torn tail
		append(append([]byte{}, fresh...), lines[0]+lines[2]...),                       // out of order
		append(append([]byte{}, fresh...), lines[0]+`{"shard":1,"bytes":100}`+"\n"...), // bytes regress
		append(append([]byte{}, fresh...), `{"shard":0,"bytes":null}`+"\n"...),         // unparseable shard line
		bytes.Replace(legacy, []byte(`"trials":100`), []byte(`"trials":200`), 1),       // mismatched header
		[]byte("not json\n"),
		fresh[:len(fresh)-1], // torn header
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "frontier")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		freshRuns := 0
		size, resume, err := openFrontier(path, "abcd", 100, 7, 10, func() error { freshRuns++; return nil })
		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(kept, data) || freshRuns != 0 {
				t.Fatalf("failed open (%v) modified the file or ran the fresh hook %d times", err, freshRuns)
			}
			return
		}
		if size <= 0 {
			t.Fatalf("shard size %d", size)
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		if len(complete) == 0 {
			if !bytes.Equal(kept, fresh) || resume || freshRuns != 1 || size != 10 {
				t.Fatalf("no complete line in the input, but the journal is %q (resume %v, fresh hook ran %d times, size %d)",
					kept, resume, freshRuns, size)
			}
			return
		}
		if !resume || freshRuns != 0 || !bytes.Equal(kept, complete) {
			t.Fatalf("resume %v, fresh hook ran %d times, kept %q; want a resume keeping every complete line",
				resume, freshRuns, kept)
		}
	})
}

// lineEnd is the byte offset just past the first k lines of b.
func lineEnd(b []byte, k int) int {
	off := 0
	for ; k > 0; k-- {
		off += bytes.IndexByte(b[off:], '\n') + 1
	}
	return off
}

// TestResumeFromOutput drives Run over the files a coordinator leaves
// behind — a kill at each point of a shard, a journal from an older
// coordinator, a stale output beside a new journal — and requires each
// to finish byte-identical to scenario.Stream with the uninterrupted
// run's summary, restoring exactly the output's complete shards. An
// output that belongs to another sweep must fail Run with the file's
// bytes and size unchanged.
func TestResumeFromOutput(t *testing.T) {
	sc := testScenario("dist-resume-scan")
	const trials, size, baseSeed = 30, 5, uint64(1) // six shards
	want := referenceNDJSON(t, sc, trials, baseSeed)
	worker := startWorker(t)
	c, err := New(Config{Workers: []string{worker.URL}, ShardSize: size, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var unbroken bytes.Buffer
	sum, err := c.Run(context.Background(), sc, trials, baseSeed, &unbroken)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := scenario.Sweep{Scenario: sc, Trials: trials, BaseSeed: baseSeed}.Pin()
	if err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(frontierHeader{Sweep: pin, Trials: trials, BaseSeed: baseSeed, ShardSize: size})
	if err != nil {
		t.Fatal(err)
	}
	header = append(header, '\n')
	// The header a coordinator before the whole-scenario pin wrote for
	// this sweep: its pin hashed only the scenario encoding and the seed.
	parentHeader := bytes.Replace(header, []byte(pin), []byte("8661a3996de5137c"), 1)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	line := func(trial int) []byte { return want[lineEnd(want, trial):lineEnd(want, trial+1)] }
	upTo := func(trial int) []byte { return want[:lineEnd(want, trial)] }

	for _, tc := range []struct {
		name    string
		journal []byte // nil: no journal file yet
		output  []byte
		resumed int64  // shards restored from the output
		reject  string // non-empty: Run must fail with this, output untouched
	}{
		{name: "empty output", journal: header, output: nil, resumed: 0},
		{name: "shard boundary", journal: header, output: upTo(15), resumed: 3},
		{name: "mid-shard", journal: header, output: upTo(12), resumed: 2},
		{name: "torn line", journal: header, output: cat(upTo(20), line(20)[:40]), resumed: 4},
		{name: "torn line in the first shard", journal: header, output: cat(upTo(3), line(3)[:40]), resumed: 0},
		{name: "complete output", journal: header, output: want, resumed: 6},
		{name: "legacy journal claiming more", journal: cat(header, []byte(legacyShardLines+`{"shard":3,"bytes":99999}`+"\n")), output: upTo(10), resumed: 2},
		{name: "legacy journal claiming less", journal: cat(header, []byte(`{"shard":0,"bytes":1}`+"\n")), output: upTo(25), resumed: 5},
		{name: "stale output beside a new journal", journal: nil, output: []byte("a stale file\nof another sweep"), resumed: 0},
		{name: "wrong n", journal: header, output: cat(upTo(7), bytes.Replace(line(7), []byte(`"n":64`), []byte(`"n":65`), 1), line(8)), reject: "wrong output file"},
		{name: "wrong trial", journal: header, output: cat(upTo(7), line(8), line(9)), reject: "wrong output file"},
		{name: "malformed complete line", journal: header, output: cat(upTo(7), []byte("{\"trial\":7}\n"), line(8)), reject: "wrong output file"},
		{name: "journal an older coordinator pinned", journal: parentHeader, output: upTo(15), reject: "different sweep"},
		{name: "line past the end", journal: header, output: cat(want, line(29)), reject: "past the sweep's last trial"},
		{name: "torn bytes past the end", journal: header, output: cat(want, line(29)[:10]), reject: "past the sweep's last trial"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			journal, outPath := filepath.Join(dir, "sweep.frontier"), filepath.Join(dir, "merged.jsonl")
			if tc.journal != nil {
				if err := os.WriteFile(journal, tc.journal, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(outPath, tc.output, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := os.OpenFile(outPath, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			c, err := New(Config{Workers: []string{worker.URL}, ShardSize: size, Journal: journal, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			got, runErr := c.Run(context.Background(), sc, trials, baseSeed, out)
			kept, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reject != "" {
				var je *sink.JournalError
				if !errors.As(runErr, &je) || !errors.Is(runErr, sink.ErrForeignSweep) || je.Path != outPath && je.Path != journal ||
					!strings.Contains(runErr.Error(), tc.reject) {
					t.Fatalf("Run error = %v, want %q", runErr, tc.reject)
				}
				if j, _ := os.ReadFile(journal); !bytes.Equal(kept, tc.output) || !bytes.Equal(j, tc.journal) {
					t.Fatalf("rejected output changed from %d to %d bytes, or its journal changed", len(tc.output), len(kept))
				}
				return
			}
			if runErr != nil {
				t.Fatalf("Run: %v", runErr)
			}
			if !bytes.Equal(kept, want) {
				t.Fatalf("resumed output differs from scenario.Stream (%d vs %d bytes)", len(kept), len(want))
			}
			if got.String() != sum.String() {
				t.Fatalf("resumed summary %q, uninterrupted %q", got, sum)
			}
			if r := c.Metrics().ResumedShards; r != tc.resumed {
				t.Fatalf("restored %d shards from the output, want %d", r, tc.resumed)
			}
			j, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			wantJ := tc.journal
			if wantJ == nil {
				wantJ = header
			}
			if !bytes.Equal(j, wantJ) {
				t.Fatalf("journal after the run %q, want %q", j, wantJ)
			}
		})
	}
}

// fuzzTrials and fuzzShard are FuzzRestoreOutput's sweep: seven trials
// of n=64 in shards of two, the last one short.
const fuzzTrials, fuzzShard = 7, 2

// FuzzRestoreOutput pins the resume scan on arbitrary output bytes over
// a fixed small plan: it never panics, and either fails or accepts an
// output whose complete lines are all valid consecutive records of the
// sweep, keeping exactly its whole shards, each folded into its shard.
func FuzzRestoreOutput(f *testing.F) {
	plan := Plan(fuzzTrials, fuzzShard)
	var valid []byte
	for trial := 0; trial < fuzzTrials; trial++ {
		valid = append(valid, recordLine(f, trial)...)
	}
	for _, seed := range [][]byte{
		valid, nil,
		valid[:lineEnd(valid, 4)],                                                // shard boundary
		valid[:lineEnd(valid, 3)],                                                // mid-shard
		valid[:lineEnd(valid, 5)-7],                                              // torn line
		append(append([]byte{}, valid...), "{\"tr"...),                           // torn bytes past the end
		append(append([]byte{}, valid...), recordLine(f, fuzzTrials)...),         // a line past the end
		append(valid[:lineEnd(valid, 2):lineEnd(valid, 2)], recordLine(f, 3)...), // skipped trial
		bytes.Replace(valid, []byte(`"n":64`), []byte(`"n":65`), 1),              // wrong n
		[]byte("not json\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		shards := make([]*shardState, len(plan))
		for i, sh := range plan {
			shards[i] = &shardState{shard: sh}
		}
		kept, size, err := restoreOutput(bytes.NewReader(data), "merged", plan, sink.Sequence{Hi: fuzzTrials, N: 64}, shards)

		// What the scan must conclude: the complete lines' verdict and how
		// many of them there are.
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		valid, lines := true, 0
		var rec sink.Record
		for rest := complete; len(rest) > 0; lines++ {
			line := rest[:bytes.IndexByte(rest, '\n')+1]
			rest = rest[len(line):]
			if lines == fuzzTrials || sink.ParseRecord(line, &rec) != nil || rec.Trial != lines || rec.N != 64 {
				valid = false
				break
			}
		}
		if lines == fuzzTrials && len(data) > len(complete) {
			valid = false // a tail past the last trial
		}
		if err != nil {
			if valid {
				t.Fatalf("rejected a valid output: %v", err)
			}
			return
		}
		if !valid {
			t.Fatalf("accepted an output with an invalid line (kept %d shards)", kept)
		}
		wantKept := 0
		for wantKept < len(plan) && plan[wantKept].Hi <= lines {
			wantKept++
		}
		if kept != wantKept || size != int64(lineEnd(data, planEnd(plan, kept))) {
			t.Fatalf("kept %d shards (%d bytes), want %d shards of %d complete lines", kept, size, wantKept, lines)
		}
		for i, st := range shards {
			want := 0
			if i < kept {
				want = plan[i].Len()
			}
			if st.sent != want || st.sum.Trials != int64(want) {
				t.Fatalf("shard %d: sent %d, folded %d trials, want %d", i, st.sent, st.sum.Trials, want)
			}
		}
	})
}

// planEnd is the trial count of plan's first k shards.
func planEnd(plan []scenario.Shard, k int) int {
	if k == 0 {
		return 0
	}
	return plan[k-1].Hi
}
