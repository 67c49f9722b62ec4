package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

func TestRcexpList(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E12"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

func TestRcexpSingleQuick(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "E9", "-quick", "-n", "128", "-seeds", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E9") || !strings.Contains(buf.String(), "wall time") {
		t.Fatalf("report incomplete:\n%s", buf.String())
	}
}

func TestRcexpMarkdown(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "E9", "-quick", "-n", "128", "-seeds", "1", "-markdown"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "### E9") || !strings.Contains(buf.String(), "|---|") {
		t.Fatalf("markdown output wrong:\n%s", buf.String())
	}
}

// TestRcexpProcsDeterministic asserts the CLI contract stated in the doc
// comment: modulo wall-time lines, output is byte-identical for every
// -procs value.
func TestRcexpProcsDeterministic(t *testing.T) {
	render := func(procs string) string {
		var buf strings.Builder
		args := []string{"-id", "E3", "-quick", "-n", "128", "-procs", procs}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "wall time") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	if p1, p8 := render("1"), render("8"); p1 != p8 {
		t.Fatalf("-procs 1 and -procs 8 diverged:\n--- procs=1\n%s\n--- procs=8\n%s", p1, p8)
	}
}

func TestRcexpUnknownID(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "E99"}, &buf); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestRcexpSweepJSONL runs the raw streaming sweep mode end to end: one
// NDJSON record per trial, in trial order, byte-identical across -procs.
func TestRcexpSweepJSONL(t *testing.T) {
	render := func(procs string) string {
		var buf strings.Builder
		args := []string{"-scenario", "full-jam", "-n", "64", "-trials", "6", "-procs", procs}
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render("1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("want 6 NDJSON lines, got %d:\n%s", len(lines), out)
	}
	for i, line := range lines {
		var rec struct {
			Trial    int    `json:"trial"`
			N        int    `json:"n"`
			Strategy string `json:"strategy"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec.Trial != i || rec.N != 64 || rec.Strategy != "full-jam" {
			t.Fatalf("line %d: %+v", i, rec)
		}
	}
	if out8 := render("8"); out8 != out {
		t.Fatalf("sweep output diverges across -procs:\n%s\n---\n%s", out, out8)
	}
}

func TestRcexpSweepCSV(t *testing.T) {
	var buf strings.Builder
	args := []string{"-scenario", "full-jam", "-n", "64", "-trials", "3", "-out", "csv"}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "trial,n,informed") {
		t.Fatalf("csv output wrong:\n%s", buf.String())
	}
}

func TestRcexpSweepErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-scenario", "no-such-scenario", "-trials", "2"}, &buf); err == nil {
		t.Fatal("unknown scenario must error")
	}
	if err := run(context.Background(), []string{"-scenario", "full-jam", "-n", "64"}, &buf); err == nil {
		t.Fatal("missing -trials must error")
	}
	if err := run(context.Background(), []string{"-scenario", "full-jam", "-n", "64", "-trials", "2", "-out", "xml"}, &buf); err == nil {
		t.Fatal("unknown -out must error")
	}
	if err := run(context.Background(), []string{"-id", "E9", "-checkpoint", "x.journal"}, &buf); err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Fatalf("-checkpoint outside sweep mode: want a usage error, got %v", err)
	}
}

// TestRcexpSweepCheckpointResume drives the CLI path of the resume
// contract: a canceled sweep journals its prefix, and rerunning the
// same command completes the remaining trials.
func TestRcexpSweepCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	args := func() []string {
		return []string{"-scenario", "full-jam", "-n", "64", "-trials", "8", "-checkpoint", ckpt}
	}

	// Uninterrupted reference.
	var want strings.Builder
	refCkpt := filepath.Join(t.TempDir(), "ref.ckpt")
	refArgs := []string{"-scenario", "full-jam", "-n", "64", "-trials", "8", "-checkpoint", refCkpt}
	if err := run(context.Background(), refArgs, &want); err != nil {
		t.Fatal(err)
	}

	// Canceled first attempt: the pre-canceled context stops the sweep
	// before any trial is delivered, but exercises the full error path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var first strings.Builder
	err := run(ctx, args(), &first)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("canceled sweep: %v", err)
	}

	// Resume run completes and the journal now covers every trial.
	var second strings.Builder
	if err := run(context.Background(), args(), &second); err != nil {
		t.Fatal(err)
	}
	if first.String()+second.String() != want.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n%q\n+\n%q\nwant\n%q",
			first.String(), second.String(), want.String())
	}
}

// TestRcexpCheckpointKillResume is the kill-and-rerun contract: a
// journal cut mid-line, the way a kill mid-write leaves it, resumes to
// output byte-identical to an uninterrupted run, in NDJSON and CSV, for
// the whole sweep and for a shard; an NDJSON journal ends as its pin
// line followed by the output's bytes.
func TestRcexpCheckpointKillResume(t *testing.T) {
	for _, extra := range [][]string{nil, {"-out", "csv"}, {"-shard", "1/3"}} {
		args := append([]string{"-scenario", "full-jam", "-n", "64", "-trials", "12"}, extra...)
		sweep := func(more ...string) string {
			var buf strings.Builder
			if err := run(context.Background(), append(append([]string(nil), args...), more...), &buf); err != nil {
				t.Fatalf("%v: %v", extra, err)
			}
			return buf.String()
		}
		want := sweep()
		journal := filepath.Join(t.TempDir(), "sweep.journal")
		if got := sweep("-checkpoint", journal); got != want {
			t.Fatalf("%v: checkpointed run differs from the plain run", extra)
		}
		full, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		cut := bytes.IndexByte(full, '\n') + 1 // the pin line
		for i := 0; i < 2; i++ {
			cut += bytes.IndexByte(full[cut:], '\n') + 1
		}
		if err := os.Truncate(journal, int64(cut+20)); err != nil { // two records and a torn third
			t.Fatal(err)
		}
		if got := sweep("-checkpoint", journal); got != want {
			t.Fatalf("%v: resumed output differs from the uninterrupted run:\n%s\nwant\n%s", extra, got, want)
		}
		resumed, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, full) {
			t.Fatalf("%v: the resumed journal differs from the uninterrupted one", extra)
		}
		if extra == nil && string(full[bytes.IndexByte(full, '\n')+1:]) != want {
			t.Fatal("the NDJSON journal is not its pin line followed by the output")
		}
	}
}

// TestRcexpCheckpointRefusesForeignJournals: a journal of another
// sweep (-seed, -n, shard) and a full-Result .ckpt from older versions
// each fail the run with a typed error naming the cause; the file
// keeps every byte and nothing reaches the output.
func TestRcexpCheckpointRefusesForeignJournals(t *testing.T) {
	base := []string{"-scenario", "full-jam", "-n", "64", "-trials", "6"}
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	var buf strings.Builder
	if err := run(context.Background(), append(base, "-checkpoint", journal), &buf); err != nil {
		t.Fatal(err)
	}
	sc, _ := scenario.Lookup("full-jam")
	sc.N = 64
	specs, err := sc.ShardSpecs(1, 0, 6, scenario.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := sink.OpenCheckpoint(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.StreamCheckpointed(context.Background(), 1, specs[:3], cp); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	for _, tc := range []struct {
		name  string
		path  string
		flags []string
		old   bool
	}{
		{"other -seed", journal, []string{"-seed", "2"}, false},
		{"other -n", journal, []string{"-n", "32"}, false},
		{"other shard", journal, []string{"-shard", "1/3"}, false},
		{"full-Result .ckpt", old, nil, true},
	} {
		before, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		args := append(append(append([]string(nil), base...), tc.flags...), "-checkpoint", tc.path)
		err = run(context.Background(), args, &out)
		var je *sink.JournalError
		if !errors.As(err, &je) || errors.Is(err, sink.ErrOldCheckpoint) != tc.old {
			t.Fatalf("%s: err = %v (%T)", tc.name, err, err)
		}
		if after, _ := os.ReadFile(tc.path); !bytes.Equal(after, before) || out.Len() != 0 {
			t.Fatalf("%s: refused journal changed or output written (%d bytes)", tc.name, out.Len())
		}
	}
}

func TestRcexpExperimentCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf strings.Builder
	err := run(ctx, []string{"-id", "E3", "-quick", "-n", "128"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("canceled experiment: %v", err)
	}
}

func TestRcexpListTopologies(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-list-topologies"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"clique", "grid", "gilbert"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("topology listing missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRcexpSweepTopology runs one raw sweep per topology kind and
// checks the -procs byte-identity contract holds on the sparse path.
func TestRcexpSweepTopology(t *testing.T) {
	for _, spec := range []string{"grid:reach=2", "gilbert:r=0.3"} {
		render := func(procs string) string {
			var buf strings.Builder
			args := []string{"-scenario", "benign", "-topology", spec,
				"-n", "64", "-trials", "4", "-procs", procs}
			if err := run(context.Background(), args, &buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		out := render("1")
		if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 4 {
			t.Fatalf("%s: want 4 NDJSON lines, got %d", spec, len(lines))
		}
		if render("8") != out {
			t.Fatalf("%s: sweep output diverges across -procs", spec)
		}
	}
}

func TestRcexpTopologyErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-topology", "grid"}, &buf); err == nil {
		t.Fatal("-topology without -scenario must error")
	}
	if err := run(context.Background(), []string{"-scenario", "benign", "-topology", "torus", "-trials", "2"}, &buf); err == nil {
		t.Fatal("unknown topology must error")
	}
}

// TestRcexpE13Quick smokes the topology experiment end to end.
func TestRcexpE13Quick(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "E13", "-quick", "-seeds", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E13") || !strings.Contains(buf.String(), "reachable") {
		t.Fatalf("E13 report incomplete:\n%s", buf.String())
	}
}

// TestRcexpShardOracle is the poor-man's-cluster contract: the -shard
// i/N outputs, concatenated in order, are byte-identical to the full
// run — including through a checkpointed shard — and carry sweep-global
// trial numbers.
func TestRcexpShardOracle(t *testing.T) {
	sweep := func(extra ...string) string {
		var buf strings.Builder
		args := append([]string{"-scenario", "full-jam", "-n", "64", "-trials", "7"}, extra...)
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	full := sweep()
	var parts strings.Builder
	for i := 0; i < 3; i++ {
		parts.WriteString(sweep("-shard", fmt.Sprintf("%d/3", i)))
	}
	if parts.String() != full {
		t.Fatalf("concatenated shards differ from the full run:\n%s\n---\n%s", parts.String(), full)
	}

	// A middle shard's first line carries its sweep-global trial number.
	mid := sweep("-shard", "1/3")
	var rec struct {
		Trial int `json:"trial"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(mid, "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Trial != 2 { // shard 1/3 of 7 trials = [2, 4)
		t.Fatalf("shard 1/3 starts at trial %d, want 2", rec.Trial)
	}

	// Checkpointed shard: same bytes, and the journal's sweep pin is the
	// shard's first trial — a different shard of the same sweep must
	// refuse to resume it.
	ckpt := filepath.Join(t.TempDir(), "shard.ckpt")
	if got := sweep("-shard", "1/3", "-checkpoint", ckpt); got != mid {
		t.Fatalf("checkpointed shard output differs:\n%s\n---\n%s", got, mid)
	}
	var buf strings.Builder
	err := run(context.Background(),
		[]string{"-scenario", "full-jam", "-n", "64", "-trials", "7", "-shard", "2/3", "-checkpoint", ckpt}, &buf)
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("foreign shard resumed another shard's journal: %v", err)
	}
}

func TestRcexpShardErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-shard", "0/2"}, &buf); err == nil {
		t.Fatal("-shard without -scenario must error")
	}
	for _, bad := range []string{"x", "3/2", "-1/2", "0/0", "9/8"} {
		args := []string{"-scenario", "full-jam", "-n", "64", "-trials", "4", "-shard", bad}
		if err := run(context.Background(), args, &buf); err == nil {
			t.Fatalf("-shard %q accepted", bad)
		}
	}
}
