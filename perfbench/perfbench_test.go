package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rcbcast/internal/scenario"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 5000}, {19, 5000}, {20, 5000}, {99, 5000},
		{100, 9000}, {999, 9000}, {1000, 9900}, {9999, 9900},
		{10000, 9990}, {100000, 9999},
	} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Whenever a percentile above the median is chosen, at least
	// minBeyond samples lie above it.
	for n := 1; n <= 20000; n++ {
		if pt := tailPct(n); pt > 5000 && n-rank(pt, n) < minBeyond {
			t.Fatalf("n=%d: tail %d has only %d samples beyond it", n, pt, n-rank(pt, n))
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	if got := summarize(samples); got != (timing{P50: 50, Tail: 90, N: 100}) {
		t.Errorf("summarize(1..100) = %+v, want p50 50, tail 90 (p90), n 100", got)
	}
	if got := summarize([]float64{3, 1, 2}); got != (timing{P50: 2, Tail: 2, N: 3}) {
		t.Errorf("summarize of 3 samples = %+v: the tail must collapse to the median", got)
	}
	m := metrics{}
	if err := m.setDist("x.lat_ms", "ms", summarize(samples)); err != nil {
		t.Fatal(err)
	}
	if m["x.lat_ms.n"].Value != 100 || m["x.lat_ms.tail"].Value != 90 || m["x.lat_ms.p50"].Value != 50 {
		t.Errorf("setDist recorded %+v", m)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"a", "1", "engine.cpu_us_per_trial.p50", "trace.overhead_frac", "a-b_c.d", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".a", "_a", "-a", "a b", "a/b", "a:b", "é", "a\n", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	m := metrics{}
	if err := m.set("bad name", "s", 1); err == nil {
		t.Error("set accepted an illegal name")
	}
	if err := m.set("ok", "s", math.NaN()); err == nil {
		t.Error("set accepted NaN")
	}
	if err := m.set("ok", "s", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.set("ok", "s", 2); err == nil {
		t.Error("set accepted a duplicate name")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "dist.shard", Parent: -1, Start: 0, End: 100},
		{Name: "service.submit", Parent: 0, Start: 10, End: 30},
		{Name: "service.feed", Parent: 0, Start: 20, End: 50},  // overlaps the submit: counted once
		{Name: "service.feed", Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{Name: "engine", Parent: 1, Start: 12, End: 95},        // the submit's child, a grandchild of the shard
		{Name: "other", Parent: -1, Start: 0, End: 100},        // another root
		{Name: "open", Parent: 0, Start: 60, End: -1},          // never closed: ignored
	}
	if got := selfTime(spans, 0); got != 100-40-10 {
		t.Errorf("self time = %d, want 50", got)
	}
	if got := selfTime(spans, 1); got != 2 {
		t.Errorf("submit self time = %d, want 2 (its child covers [12,30))", got)
	}
	if got := selfTime(spans, 5); got != 100 {
		t.Errorf("childless span self time = %d, want its duration", got)
	}

	rec := newRecorder()
	root := rec.begin("depth.dist", "", -1)
	sh := rec.begin("dist.shard", "0-50", root)
	if rec.openSpan("0-50") != sh {
		t.Fatal("open span not found by shard id")
	}
	rec.end(sh)
	if rec.openSpan("0-50") != -1 {
		t.Fatal("closed span still open")
	}
	rec.end(root)
	got := rec.snapshot()
	if len(got) != 2 || got[1].Parent != 0 || got[1].ID != "0-50" || got[1].End < got[1].Start {
		t.Fatalf("recorded spans %+v", got)
	}
	var off *recorder
	if off.begin("x", "", -1) != -1 || off.snapshot() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
}

// tiny shrinks a workload so a whole run takes a few seconds.
func tiny(t *testing.T, workload string) *inputs {
	t.Helper()
	in, err := makeInputs(workload, 7)
	if err != nil {
		t.Fatal(err)
	}
	in.sc.N = min(in.sc.N, 64)
	in.trials, in.shardSize, in.warmup = 40, 16, 16
	if in.scenarioJSON, err = scenario.Encode(in.sc); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDigestCatchesOneByteChange(t *testing.T) {
	in := tiny(t, "fine-shards")
	ref, err := buildReference(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.shardEnd) != 3 || ref.shardEnd[2] != ref.bytes {
		t.Fatalf("shard ends %v for 40 trials in shards of 16 (%d bytes)", ref.shardEnd, ref.bytes)
	}
	var joined []byte
	for k := range ref.shardEnd {
		joined = append(joined, ref.shard(k)...)
	}
	if string(joined) != string(ref.data) {
		t.Fatal("shards do not tile the reference")
	}
	path := filepath.Join(t.TempDir(), "out.ndjson")
	if err := os.WriteFile(path, ref.data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, n, err := digestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check("copy", d, n); err != nil {
		t.Fatalf("an identical copy failed the check: %v", err)
	}
	changed := slices.Clone(ref.data)
	changed[len(changed)/2] ^= 1
	if err := os.WriteFile(path, changed, 0o644); err != nil {
		t.Fatal(err)
	}
	if d, n, err = digestFile(path); err != nil {
		t.Fatal(err)
	}
	if err := ref.check("changed", d, n); err == nil {
		t.Fatal("a one-byte change passed the digest check")
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameMetrics checks a run's metrics against the declared list.
func sameMetrics(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(want))
	}
	for _, w := range want {
		if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
			t.Errorf("%s: declared %s (%s), reported %+v (present %v)", what, w.Name, w.Unit, m, ok)
		}
	}
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline")
	}
	bf := readBenchmarkFile(t)
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", declared, workloads)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			in := tiny(t, w)
			ref, err := buildReference(in)
			if err != nil {
				t.Fatal(err)
			}
			h, err := setUp(in, ref, filepath.Join(t.TempDir(), "deploy"))
			if err != nil {
				t.Fatal(err)
			}
			defer h.close()
			logf := func(f string, a ...any) { t.Logf(f, a...) }

			rep, err := timed(h, 0, 0.5, logf)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != minPasses*3 {
				t.Fatalf("timed run: correct %v, %d of %d attempts failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			sameMetrics(t, "trace 0", rep.Metrics, bf.EndToEnd)

			rep, err = traced(h, 0, filepath.Join(t.TempDir(), "spans.json"), logf)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatal("a ladder depth produced output that differs from the reference")
			}
			sameMetrics(t, "trace 1", rep.Metrics, bf.PerLayer)
			m := rep.Metrics
			if in.warm {
				if m["engine.calls"].Value != 0 || m["service.jobs_computed"].Value != 0 || m["service.store_hits"].Value != 3 {
					t.Errorf("warm-replay computed work: engine.calls %v, jobs %v, hits %v",
						m["engine.calls"].Value, m["service.jobs_computed"].Value, m["service.store_hits"].Value)
				}
			} else if m["service.store_hits"].Value != 0 || m["service.jobs_computed"].Value != 3 || m["engine.calls"].Value != 5 {
				t.Errorf("%s: engine.calls %v, jobs %v, hits %v; want 5, 3, 0",
					w, m["engine.calls"].Value, m["service.jobs_computed"].Value, m["service.store_hits"].Value)
			}
		})
	}
}
