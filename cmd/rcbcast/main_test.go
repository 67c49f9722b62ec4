package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf strings.Builder
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestCLIBasicRun(t *testing.T) {
	out := runCLI(t, "-n", "128", "-pool", "2048", "-seed", "5")
	for _, want := range []string{"ε-BROADCAST k=2 n=128", "full-jam", "informed", "competitive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIAdversaries(t *testing.T) {
	for _, adv := range []string{"null", "random", "bursty", "blocker", "partition", "spoofer", "reactive"} {
		out := runCLI(t, "-n", "64", "-adversary", adv, "-pool", "1024")
		if !strings.Contains(out, "delivery:") {
			t.Fatalf("adversary %s produced no report:\n%s", adv, out)
		}
	}
}

func TestCLIUnknownAdversary(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-adversary", "nope"}, &buf); err == nil {
		t.Fatal("unknown adversary must error")
	}
}

func TestCLIUnknownEngine(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-engine", "warp"}, &buf); err == nil {
		t.Fatal("unknown engine must error")
	}
}

// TestCLIActorsEngine: -engine is still accepted and ignored, so the
// legacy actors name prints exactly what fast does.
func TestCLIActorsEngine(t *testing.T) {
	out := runCLI(t, "-n", "64", "-engine", "actors", "-adversary", "null", "-pool", "0")
	if !strings.Contains(out, "informed (100.0%)") {
		t.Fatalf("actors engine output:\n%s", out)
	}
	if fast := runCLI(t, "-n", "64", "-engine", "fast", "-adversary", "null", "-pool", "0"); fast != out {
		t.Fatalf("-engine actors and -engine fast differ:\n%s\n---\n%s", out, fast)
	}
}

func TestCLIPhasesAndTraceText(t *testing.T) {
	out := runCLI(t, "-n", "64", "-adversary", "null", "-pool", "0", "-phases", "-trace", "text")
	if !strings.Contains(out, "per-phase trace:") || !strings.Contains(out, "run complete") {
		t.Fatalf("trace output incomplete:\n%s", out)
	}
}

func TestCLITraceJSON(t *testing.T) {
	out := runCLI(t, "-n", "64", "-adversary", "null", "-pool", "0", "-trace", "json")
	if !strings.Contains(out, `"event":"phase_start"`) {
		t.Fatalf("json trace missing:\n%s", out)
	}
}

func TestCLIBudgetsAndDecoy(t *testing.T) {
	out := runCLI(t, "-n", "64", "-adversary", "null", "-pool", "0", "-budgets", "-decoy")
	if !strings.Contains(out, "delivery:") {
		t.Fatalf("budgeted decoy run:\n%s", out)
	}
}

func TestCLIPaperParams(t *testing.T) {
	out := runCLI(t, "-n", "64", "-adversary", "null", "-pool", "0", "-paper")
	if !strings.Contains(out, "k2-exact") {
		t.Fatalf("paper mode must use Figure 1:\n%s", out)
	}
}

func TestCLIListScenarios(t *testing.T) {
	out := runCLI(t, "-list-scenarios")
	for _, want := range []string{"full-jam", "reactive-decoy", "budgeted-partition", "adversary kinds", "partition"} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestCLINamedScenario(t *testing.T) {
	out := runCLI(t, "-n", "64", "-scenario", "full-jam")
	if !strings.Contains(out, "scenario:   full-jam") || !strings.Contains(out, "full-jam (spent") {
		t.Fatalf("named scenario output:\n%s", out)
	}
	// Explicit flags override scenario fields.
	out = runCLI(t, "-n", "64", "-scenario", "full-jam", "-adversary", "null", "-pool", "0")
	if !strings.Contains(out, "null (spent T=0") {
		t.Fatalf("flag override lost:\n%s", out)
	}
}

func TestCLIUnknownScenario(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-scenario", "no-such"}, &buf); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

func TestCLIScenarioJSONFile(t *testing.T) {
	out := runCLI(t, "-scenario", filepath.Join("..", "..", "internal", "scenario", "testdata", "smoke.json"))
	for _, want := range []string{"scenario:   smoke", "n=64", "bursty(16/16)", "delivery:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON scenario output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIScenarioJSONRejectsTypos(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"n": 64, "adversarry": {"kind": "full"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-scenario", path}, &buf); err == nil {
		t.Fatal("scenario file with a typo'd field must error")
	}
}

func TestCLIAdversaryFlagSyntax(t *testing.T) {
	out := runCLI(t, "-n", "64", "-adversary", "random:p=0.25", "-pool", "1024")
	if !strings.Contains(out, "random-jam(p=0.25)") {
		t.Fatalf("inline knob lost:\n%s", out)
	}
	out = runCLI(t, "-n", "64", "-adversary", "blocker:inform,prop+spoofer:p=0.3", "-pool", "2048")
	if !strings.Contains(out, "composite(phase-blocker") || !strings.Contains(out, "nack-spoofer") {
		t.Fatalf("composite adversary lost:\n%s", out)
	}
}

func TestCLIKnobFlagsReachNestedKinds(t *testing.T) {
	// -jam-p must reach a random part inside a composite...
	out := runCLI(t, "-n", "64", "-adversary", "random+spoofer", "-jam-p", "0.9", "-pool", "1024")
	if !strings.Contains(out, "random-jam(p=0.9)") {
		t.Fatalf("-jam-p lost inside composite:\n%s", out)
	}
	// ...and a scenario's partition adversary.
	out = runCLI(t, "-n", "64", "-scenario", "partition-5%", "-strand", "0.25")
	if !strings.Contains(out, "16 stranded") { // int(0.25*64) = 16
		t.Fatalf("-strand lost for -scenario:\n%s", out)
	}
	// A knob flag with no matching kind must error, not silently run
	// with defaults.
	var buf strings.Builder
	if err := run([]string{"-n", "64", "-adversary", "full", "-jam-p", "0.9"}, &buf); err == nil {
		t.Fatal("-jam-p with no random part must error")
	}
}

func TestCLIJamPZeroMeansNoJamming(t *testing.T) {
	// An explicit -jam-p 0 is a no-op jammer (the pre-scenario CLI
	// semantics), not a silent substitution of the 0.5 default.
	out := runCLI(t, "-n", "64", "-adversary", "random", "-jam-p", "0", "-pool", "1024")
	if !strings.Contains(out, "random-jam(p=0)") || !strings.Contains(out, "spent T=0") {
		t.Fatalf("-jam-p 0 must jam nothing:\n%s", out)
	}
}

func TestCLIBudgetsFalseOverridesScenario(t *testing.T) {
	// budgeted-full enforces DeviceC=8; explicit -budgets=false must
	// disable it (at n=64 the budget caps kill every node otherwise).
	out := runCLI(t, "-n", "64", "-scenario", "budgeted-full", "-budgets=false")
	if !strings.Contains(out, " 0 dead") {
		t.Fatalf("-budgets=false did not disable device budgets:\n%s", out)
	}
}

func TestCLIDumpScenario(t *testing.T) {
	out := runCLI(t, "-n", "64", "-adversary", "random:p=0.25", "-dump-scenario")
	for _, want := range []string{`"n": 64`, `"kind": "random"`, `"p": 0.25`, `"pool": 16384`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestCLIReactiveBoundsRounds is the CLI half of the param-ordering
// regression: -adversary reactive must run with MaxRound bounded to
// StartRound+6 (applied to Params *before* options assembly; the old
// switch mutated params after opts.Params had been copied).
func TestCLIReactiveBoundsRounds(t *testing.T) {
	out := runCLI(t, "-n", "64", "-adversary", "reactive", "-pool", "0", "-phases")
	if !strings.Contains(out, "per-phase trace:") {
		t.Fatalf("no phase trace:\n%s", out)
	}
	// An unlimited reactive jammer stalls every round, so the run must
	// stop exactly at the bound. Phase lines are "rN/kind ...": count
	// distinct rounds — exactly 7 (StartRound..StartRound+6).
	rounds := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && strings.HasPrefix(f[0], "r") && strings.Contains(f[0], "/") {
			round, _, _ := strings.Cut(f[0], "/")
			rounds[round] = true
		}
	}
	if len(rounds) != 7 {
		t.Fatalf("reactive run spanned %d rounds, want 7 (MaxRound bound lost):\n%s", len(rounds), out)
	}
}

func TestCLIListTopologies(t *testing.T) {
	out := runCLI(t, "-list-topologies")
	for _, want := range []string{"clique", "grid", "gilbert", "r=RADIUS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("topology listing missing %q:\n%s", want, out)
		}
	}
}

func TestCLITopologyRuns(t *testing.T) {
	for _, spec := range []string{"clique", "grid", "grid:reach=2", "gilbert:r=0.3"} {
		out := runCLI(t, "-n", "64", "-topology", spec, "-adversary", "null", "-pool", "0")
		if !strings.Contains(out, "informed") {
			t.Fatalf("-topology %s produced no report:\n%s", spec, out)
		}
		if spec != "clique" && !strings.Contains(out, "topology:") {
			t.Fatalf("-topology %s report missing the topology line:\n%s", spec, out)
		}
	}
}

func TestCLITopologyBoundsRounds(t *testing.T) {
	// A sparse topology without an explicit bound must get the default
	// ExtraRounds=3 guard (nodes beyond the k-hop ball never pass the
	// quiet test).
	out := runCLI(t, "-n", "64", "-topology", "grid", "-adversary", "null", "-pool", "0", "-dump-scenario")
	if !strings.Contains(out, `"extra_rounds": 3`) {
		t.Fatalf("sparse topology must bound rounds:\n%s", out)
	}
	// The clique (explicit or default) must not be bounded.
	out = runCLI(t, "-n", "64", "-topology", "clique", "-adversary", "null", "-pool", "0", "-dump-scenario")
	if strings.Contains(out, "extra_rounds") {
		t.Fatalf("clique must not be round-bounded:\n%s", out)
	}
}

func TestCLITopologyUnknown(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-n", "64", "-topology", "torus"}, &buf); err == nil {
		t.Fatal("unknown topology must error")
	}
	if err := run([]string{"-n", "64", "-topology", "gilbert:r=9"}, &buf); err == nil {
		t.Fatal("out-of-range radius must error")
	}
}

// TestCLITopologyDumpRoundTrips: -dump-scenario output per topology
// kind reloads as a scenario file and reproduces the same dump — the
// JSON/flag round-trip golden at the CLI layer.
func TestCLITopologyDumpRoundTrips(t *testing.T) {
	for _, spec := range []string{"grid:w=8,reach=2", "gilbert:r=0.25"} {
		dump := runCLI(t, "-n", "64", "-topology", spec, "-adversary", "random:p=0.5", "-dump-scenario")
		path := filepath.Join(t.TempDir(), "sc.json")
		if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
		again := runCLI(t, "-scenario", path, "-dump-scenario")
		if dump != again {
			t.Fatalf("dump → load → dump not stable for %s:\n--- first\n%s--- second\n%s", spec, dump, again)
		}
		run1 := runCLI(t, "-n", "64", "-topology", spec, "-adversary", "random:p=0.5", "-seed", "4")
		run2 := runCLI(t, "-scenario", path, "-seed", "4")
		if run1 != run2 {
			t.Fatalf("flag run and JSON run diverged for %s:\n--- flags\n%s--- json\n%s", spec, run1, run2)
		}
	}
}
