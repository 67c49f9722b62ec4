package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line   string
		name   string
		ns     float64
		bs     float64
		as     float64
		trials float64
		ok     bool
	}{
		{
			line: "BenchmarkSteadyState/gilbert-4   \t      50\t  19548071 ns/op\t    5782 B/op\t       9 allocs/op",
			name: "SteadyState/gilbert", ns: 19548071, bs: 5782, as: 9, ok: true,
		},
		{
			line: "BenchmarkSteadyStateBatch/grid \t 33 \t 36135110 ns/op",
			name: "SteadyStateBatch/grid", ns: 36135110, ok: true,
		},
		{
			// A custom metric the batch benchmark reports.
			line: "BenchmarkSteadyStateBatch/grid-2 \t 20 \t 57699392 ns/op \t 8.000 trials/op \t 75864 B/op \t 49 allocs/op",
			name: "SteadyStateBatch/grid", ns: 57699392, bs: 75864, as: 49, trials: 8, ok: true,
		},
		{
			// No procs suffix (GOMAXPROCS=1 runs print none).
			line: "BenchmarkStreamTrials/batch8 \t 20 \t 238354390 ns/op \t 526526 B/op \t 922 allocs/op",
			name: "StreamTrials/batch8", ns: 238354390, bs: 526526, as: 922, ok: true,
		},
		{
			// A -suffix that is not a procs count stays in the name.
			line: "BenchmarkFoo/sub-case \t 10 \t 5 ns/op",
			name: "Foo/sub-case", ns: 5, ok: true,
		},
		{line: "ok  \trcbcast/internal/engine\t1.793s", ok: false},
		{line: "goos: linux", ok: false},
		{line: "PASS", ok: false},
		{line: "", ok: false},
	} {
		name, m, ok := parseBenchLine(tc.line)
		if ok != tc.ok {
			t.Fatalf("parseBenchLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
		}
		if !ok {
			continue
		}
		if name != tc.name || m.NsPerOp != tc.ns || m.BytesPerOp != tc.bs || m.AllocsPerOp != tc.as || m.TrialsPerOp != tc.trials {
			t.Fatalf("parseBenchLine(%q) = %q %+v", tc.line, name, m)
		}
	}
}

const passTranscript = `goos: linux
goarch: amd64
pkg: rcbcast/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSteadyState/clique-2          	      20	   7000000 ns/op	    5376 B/op	       5 allocs/op
BenchmarkSteadyState/grid-2            	      20	   8000000 ns/op	    6268 B/op	      18 allocs/op
BenchmarkSteadyStateBatch/clique-2     	      20	  28000000 ns/op	         8.000 trials/op	   48072 B/op	     106 allocs/op
BenchmarkSteadyStateBatch/grid-2       	      20	  36000000 ns/op	         8.000 trials/op	   57525 B/op	     281 allocs/op
PASS
ok  	rcbcast/internal/engine	12.3s
`

func TestParsePass(t *testing.T) {
	results, env, err := parsePass(strings.NewReader(passTranscript))
	if err != nil {
		t.Fatal(err)
	}
	if env.GOOS != "linux" || env.GOARCH != "amd64" || env.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("env = %+v", env)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d variants, want 4: %v", len(results), results)
	}
	if got := results["SteadyState/grid"].NsPerOp; got != 8000000 {
		t.Fatalf("grid ns/op = %v", got)
	}
	if got := results["SteadyStateBatch/grid"].TrialsPerOp; got != 8 {
		t.Fatalf("batch grid trials/op = %v", got)
	}
	if _, _, err := parsePass(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("parsePass accepted a transcript with no results")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Fatalf("single median = %v", got)
	}
}

// TestBuildRecordPairedRatios: the per-trial ratio must be the median
// of per-pass ratios (each pass pairing its own batch and scalar
// numbers), not a ratio of medians — the distinction the whole
// protocol exists for on steal-prone hosts. The batch side is divided
// by the trials/op it reports.
func TestBuildRecordPairedRatios(t *testing.T) {
	mk := func(scalar, batch float64) map[string]metrics {
		return map[string]metrics{
			"SteadyState/grid":      {NsPerOp: scalar, hasMem: true, BytesPerOp: 100, AllocsPerOp: 10},
			"SteadyStateBatch/grid": {NsPerOp: batch, TrialsPerOp: 8, hasMem: true, BytesPerOp: 800, AllocsPerOp: 80},
		}
	}
	// Passes where the host slows both sides together: the paired
	// ratio is 2.0 in every pass even though the raw numbers double.
	passes := []map[string]metrics{
		mk(8e6, 32e6),
		mk(16e6, 64e6),
		mk(12e6, 48e6),
	}
	rec, err := buildRecord("b", "cmd", "", "2026-08-08", envInfo{GOOS: "linux"}, passes)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.PerTrialRatios["grid"]; got != 2.0 {
		t.Fatalf("paired ratio = %v, want 2.0", got)
	}
	// Ratio-of-medians would also say 2.0 here; skew one pass so the
	// two computations differ, and require the paired answer.
	passes = []map[string]metrics{
		mk(8e6, 32e6),  // ratio 2.0
		mk(20e6, 40e6), // ratio 4.0 (scalar hit by steal)
		mk(12e6, 24e6), // ratio 4.0
	}
	rec, err = buildRecord("b", "cmd", "", "2026-08-08", envInfo{}, passes)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.PerTrialRatios["grid"]; got != 4.0 {
		t.Fatalf("paired ratio = %v, want 4.0 (median of 2,4,4)", got)
	}
	if rec.Variants["SteadyState/grid"].NsPerOp != 12e6 {
		t.Fatalf("scalar median = %v", rec.Variants["SteadyState/grid"].NsPerOp)
	}
	if rec.BatchWidth != 8 || rec.Passes != 3 {
		t.Fatalf("record meta = %+v", rec)
	}
}

func TestBuildRecordRejectsMissingVariant(t *testing.T) {
	passes := []map[string]metrics{
		{"SteadyState/grid": {NsPerOp: 1}},
		{"SteadyState/clique": {NsPerOp: 1}},
	}
	if _, err := buildRecord("b", "c", "", "d", envInfo{}, passes); err == nil {
		t.Fatal("buildRecord accepted passes with mismatched variant sets")
	}

	// A batch partner that does not say how many trials an op runs has
	// no per-trial cost to compare.
	passes = []map[string]metrics{{
		"SteadyState/grid":      {NsPerOp: 1},
		"SteadyStateBatch/grid": {NsPerOp: 8},
	}}
	if _, err := buildRecord("b", "c", "", "d", envInfo{}, passes); err == nil || !strings.Contains(err.Error(), "trials/op") {
		t.Fatalf("buildRecord without trials/op = %v, want an error naming trials/op", err)
	}
}

func TestAppendRecordPreservesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	existing := "[\n  {\n    \"bench\": \"old\",\n    \"note\": \"hand-written   formatting\"\n  }\n]\n"
	if err := os.WriteFile(path, []byte(existing), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := record{Bench: "new", Date: "2026-08-08", Passes: 5,
		Variants: map[string]varRecord{"SteadyState/grid": {NsPerOp: 12e6}}}
	if err := appendRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "\"note\": \"hand-written   formatting\"") {
		t.Fatalf("existing entry reformatted:\n%s", out)
	}
	var arr []map[string]any
	if err := json.Unmarshal(out, &arr); err != nil {
		t.Fatalf("appended file is not valid JSON: %v\n%s", err, out)
	}
	if len(arr) != 2 || arr[0]["bench"] != "old" || arr[1]["bench"] != "new" {
		t.Fatalf("array = %v", arr)
	}

	// Appending to a missing file creates a fresh one-entry array.
	fresh := filepath.Join(dir, "fresh.json")
	if err := appendRecord(fresh, rec); err != nil {
		t.Fatal(err)
	}
	out, err = os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	arr = nil
	if err := json.Unmarshal(out, &arr); err != nil || len(arr) != 1 {
		t.Fatalf("fresh file: %v\n%s", err, out)
	}

	// A non-array file is rejected, not clobbered.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(bad, rec); err == nil {
		t.Fatal("appendRecord accepted a non-array file")
	}
}
