// Command rcbench drives the repository's paired benchmark protocol and
// appends the result to the dated record files (BENCH_ENGINE.json,
// BENCH_STREAM.json).
//
// The protocol exists because the reference hosts are shared single-vCPU
// machines whose absolute timings swing with host steal: one low-count
// run cannot resolve small deltas, and numbers taken minutes apart are
// not comparable. rcbench therefore runs N independent passes (default
// 5), each a single `go test -bench` invocation at -benchtime 20x in
// which the batch and scalar benchmarks execute back to back, and
// records per-variant medians across passes. Batch-vs-scalar speedups
// are computed per pass — pairing batch and scalar from the same
// invocation so host-speed drift cancels — and the per-pass ratios are
// medianed, never ratios of medians.
//
// Usage:
//
//	rcbench [-mode engine|stream] [-passes 5] [-benchtime 20x]
//	        [-note ...] [-out FILE] [-dry-run]
//
// The batch benchmark reports how many trials one op runs as its
// trials/op metric; per-trial ratios divide by it.
//
// Run it from the repository root; it shells out to the go tool.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"encoding/json"
)

// metrics is one benchmark line's measurements.
type metrics struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	TrialsPerOp float64 // 0 when the benchmark reports no trials/op
	hasMem      bool
}

// envInfo is the header block `go test -bench` prints before results.
type envInfo struct {
	GOOS, GOARCH, CPU string
}

// varRecord is the per-variant median block of an appended record.
type varRecord struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// record is one dated entry of a BENCH_*.json file.
type record struct {
	Bench          string               `json:"bench"`
	Date           string               `json:"date"`
	Goos           string               `json:"goos"`
	Goarch         string               `json:"goarch"`
	CPU            string               `json:"cpu"`
	Command        string               `json:"command"`
	Passes         int                  `json:"passes"`
	BatchWidth     int                  `json:"batch_width,omitempty"`
	Variants       map[string]varRecord `json:"variants"`
	PerTrialRatios map[string]float64   `json:"per_trial_ratios,omitempty"`
	Note           string               `json:"note,omitempty"`
}

// mode bundles what one record file's protocol runs.
type mode struct {
	bench string   // benchmark regexp
	pkg   string   // package path handed to go test
	out   string   // default record file
	env   []string // extra environment (e.g. GOMAXPROCS=1)
}

var modes = map[string]mode{
	"engine": {
		bench: "BenchmarkSteadyState(Batch)?$",
		pkg:   "./internal/engine/",
		out:   "BENCH_ENGINE.json",
	},
	"stream": {
		bench: "BenchmarkStreamTrials$",
		pkg:   ".",
		out:   "BENCH_STREAM.json",
		env:   []string{"GOMAXPROCS=1"},
	},
}

func main() {
	var (
		modeName  = flag.String("mode", "engine", "which protocol to run: engine or stream")
		passes    = flag.Int("passes", 5, "independent go test invocations to median over")
		benchtime = flag.String("benchtime", "20x", "-benchtime handed to go test")
		note      = flag.String("note", "", "free-form note stored on the record")
		outFlag   = flag.String("out", "", "record file to append to (default per mode)")
		dryRun    = flag.Bool("dry-run", false, "print the record instead of appending it")
	)
	flag.Parse()

	m, ok := modes[*modeName]
	if !ok {
		fmt.Fprintf(os.Stderr, "rcbench: unknown mode %q (want engine or stream)\n", *modeName)
		os.Exit(2)
	}
	out := m.out
	if *outFlag != "" {
		out = *outFlag
	}

	var (
		allPasses []map[string]metrics
		env       envInfo
	)
	for i := 0; i < *passes; i++ {
		fmt.Fprintf(os.Stderr, "rcbench: pass %d/%d (%s)\n", i+1, *passes, m.bench)
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", m.bench, "-benchmem", "-benchtime", *benchtime,
			"-count", "1", m.pkg)
		cmd.Env = append(os.Environ(), m.env...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: go test: %v\n%s", err, outBytes)
			os.Exit(1)
		}
		results, e, err := parsePass(bytes.NewReader(outBytes))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
			os.Exit(1)
		}
		env = e
		allPasses = append(allPasses, results)
	}

	commandStr := fmt.Sprintf("%sgo test -run ^$ -bench '%s' -benchmem -benchtime %s -count 1 %s (x%d, medians of per-pass results)",
		envPrefix(m.env), m.bench, *benchtime, m.pkg, *passes)
	rec, err := buildRecord(m.bench, commandStr, *note,
		time.Now().Format("2006-01-02"), env, allPasses)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
		os.Exit(1)
	}

	if *dryRun {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := appendRecord(out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "rcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rcbench: appended record to %s\n", out)
}

func envPrefix(env []string) string {
	if len(env) == 0 {
		return ""
	}
	return strings.Join(env, " ") + " "
}

// parsePass reads one `go test -bench` transcript: the goos/goarch/cpu
// header and every Benchmark result line. Variant names drop the
// "Benchmark" prefix and the -N GOMAXPROCS suffix.
func parsePass(r io.Reader) (map[string]metrics, envInfo, error) {
	results := make(map[string]metrics)
	var env envInfo
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			env.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			env.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			env.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if name, m, ok := parseBenchLine(line); ok {
				results[name] = m
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, env, err
	}
	if len(results) == 0 {
		return nil, env, fmt.Errorf("no benchmark result lines in go test output")
	}
	return results, env, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkSteadyState/gilbert-4   50   19548071 ns/op   5782 B/op   9 allocs/op
//	BenchmarkSteadyStateBatch/grid-4   20   57699392 ns/op   8.000 trials/op
//
// returning the trimmed variant name ("SteadyState/gilbert") and its
// metrics. Lines that are not benchmark results report ok=false.
func parseBenchLine(line string) (string, metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", metrics{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", metrics{}, false // iteration count must be an integer
	}
	var m metrics
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", metrics{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsPerOp, seenNs = val, true
		case "B/op":
			m.BytesPerOp, m.hasMem = val, true
		case "allocs/op":
			m.AllocsPerOp, m.hasMem = val, true
		case "trials/op":
			m.TrialsPerOp = val
		}
	}
	if !seenNs {
		return "", metrics{}, false
	}
	return name, m, true
}

// median returns the middle value (mean of the two middles for even
// counts). It panics on an empty slice; callers validate.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// buildRecord medians each variant across passes and, for every
// SteadyState/<topo> with a SteadyStateBatch/<topo> partner, computes
// the per-trial speedup — scalar ns over batch ns divided by the batch
// line's trials/op — per pass first, then medians the ratios, so each
// ratio compares numbers from the same go test invocation. A batch
// partner that reports no trials/op is an error, not a guess.
func buildRecord(bench, command, note, date string, env envInfo, passes []map[string]metrics) (record, error) {
	if len(passes) == 0 {
		return record{}, fmt.Errorf("no passes collected")
	}
	rec := record{
		Bench:    bench,
		Date:     date,
		Goos:     env.GOOS,
		Goarch:   env.GOARCH,
		CPU:      env.CPU,
		Command:  command,
		Passes:   len(passes),
		Variants: make(map[string]varRecord),
		Note:     note,
	}
	perVariant := make(map[string][]metrics)
	for _, p := range passes {
		for name, m := range p {
			perVariant[name] = append(perVariant[name], m)
		}
	}
	for name, ms := range perVariant {
		if len(ms) != len(passes) {
			return record{}, fmt.Errorf("variant %s present in %d of %d passes", name, len(ms), len(passes))
		}
		var ns, bs, as []float64
		hasMem := false
		for _, m := range ms {
			ns = append(ns, m.NsPerOp)
			bs = append(bs, m.BytesPerOp)
			as = append(as, m.AllocsPerOp)
			hasMem = hasMem || m.hasMem
		}
		v := varRecord{NsPerOp: median(ns)}
		if hasMem {
			v.BytesPerOp = median(bs)
			v.AllocsPerOp = median(as)
		}
		rec.Variants[name] = v
	}

	ratios := make(map[string][]float64)
	for _, p := range passes {
		for name, scalar := range p {
			topo, ok := strings.CutPrefix(name, "SteadyState/")
			if !ok {
				continue
			}
			batch, ok := p["SteadyStateBatch/"+topo]
			if !ok || batch.NsPerOp == 0 {
				continue
			}
			if batch.TrialsPerOp <= 0 {
				return record{}, fmt.Errorf("variant SteadyStateBatch/%s reports no trials/op", topo)
			}
			ratios[topo] = append(ratios[topo], scalar.NsPerOp/(batch.NsPerOp/batch.TrialsPerOp))
			rec.BatchWidth = int(batch.TrialsPerOp)
		}
	}
	if len(ratios) > 0 {
		rec.PerTrialRatios = make(map[string]float64)
		for topo, rs := range ratios {
			rec.PerTrialRatios[topo] = math3(median(rs))
		}
	}
	return rec, nil
}

// math3 rounds to three decimals — ratio precision beyond that is
// noise on the reference hosts.
func math3(x float64) float64 {
	return float64(int64(x*1000+0.5)) / 1000
}

// appendRecord appends rec to the JSON array in path, preserving the
// existing entries' formatting byte for byte (the files are partly
// hand-annotated). A missing or empty file becomes a one-entry array.
func appendRecord(path string, rec record) error {
	entry, err := json.MarshalIndent(rec, "  ", "  ")
	if err != nil {
		return err
	}
	existing, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	trimmed := bytes.TrimRight(existing, " \t\r\n")
	var out []byte
	switch {
	case len(trimmed) == 0:
		out = append([]byte("[\n  "), entry...)
		out = append(out, []byte("\n]\n")...)
	case trimmed[len(trimmed)-1] == ']':
		body := bytes.TrimRight(trimmed[:len(trimmed)-1], " \t\r\n")
		sep := ",\n  "
		if bytes.HasSuffix(body, []byte("[")) { // empty array
			sep = "\n  "
		}
		out = append(append([]byte{}, body...), []byte(sep)...)
		out = append(out, entry...)
		out = append(out, []byte("\n]\n")...)
	default:
		return fmt.Errorf("%s: does not end with a JSON array", path)
	}
	return os.WriteFile(path, out, 0o644)
}
