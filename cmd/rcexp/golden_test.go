package main

import (
	"context"
	"os"
	"strings"
	"testing"
)

// TestQuickReportsMatchPreTopologyGolden pins `rcexp -quick` output for
// E1–E12 against testdata/quick_main.golden, captured on main
// immediately before the topology-layer refactor. Every experiment
// constructs its runs through scenario → sim → engine, so this is the
// end-to-end byte-identity guarantee that the clique path — and the
// sim layer's scratch reuse — changed nothing. E13 is excluded
// because it did not exist at capture time.
//
// Regenerate (only after an intentional behaviour change):
//
//	go run ./cmd/rcexp -quick | grep -v '^wall time' | head -n -<E13 lines>
func TestQuickReportsMatchPreTopologyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale experiment sweep; skipped in -short")
	}
	golden, err := os.ReadFile("testdata/quick_main.golden")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6",
		"E7", "E8", "E9", "E10", "E11", "E12"} {
		var buf strings.Builder
		if err := run(context.Background(), []string{"-id", id, "-quick"}, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			if strings.HasPrefix(line, "wall time") {
				continue
			}
			sb.WriteString(line)
		}
	}
	if sb.String() != string(golden) {
		t.Fatalf("rcexp -quick diverged from the pre-topology golden.\n"+
			"If the change is intentional, regenerate testdata/quick_main.golden.\n--- got\n%s", sb.String())
	}
}

// TestSweepSmokeGoldens pins a composite-adversary sweep's JSONL output
// for every topology kind against the captures in testdata, taken on
// the scalar stream before sweeps moved onto the batch kernel. The
// kernel and the scalar oracle read one adjacency (the Topology), so
// these recorded bytes are the adjacency check that shares no code with
// either.
func TestSweepSmokeGoldens(t *testing.T) {
	for _, tc := range []struct{ name, topology string }{
		{"clique", "clique"},
		{"grid", "grid:reach=2"},
		{"gilbert", "gilbert:r=0.3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile("testdata/sweep-smoke-" + tc.name + ".jsonl")
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			args := []string{"-scenario", "testdata/sweep-smoke.json", "-topology", tc.topology, "-trials", "9"}
			if err := run(context.Background(), args, &buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != string(golden) {
				t.Fatalf("sweep output diverged from testdata/sweep-smoke-%s.jsonl\n--- got\n%s", tc.name, buf.String())
			}
		})
	}
}
