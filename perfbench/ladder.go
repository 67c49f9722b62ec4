package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"rcbcast/internal/dist"
	"rcbcast/internal/engine"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
)

// The ladder's depths, bottom up. Depth d runs the workload's trials
// through layer d and everything below it, so the cost difference
// between adjacent depths is layer d's own.
var depths = []string{"engine", "sim", "sink", "service", "dist"}

// shardCost is one shard's measured cost at one depth.
type shardCost struct {
	cpu    time.Duration
	trials int
}

// round is one pass down the ladder.
type round struct {
	cpu      map[string]map[int]shardCost // depth → shard → cost
	distCPU  time.Duration
	computed []int // shards the full pipeline had to compute
}

// ladder accumulates a traced run's samples across rounds.
type ladder struct {
	h      *harness
	rec    *recorder
	plan   []scenario.Shard
	logf   func(string, ...any)
	rounds []round
	units  int // shard executions checked against the reference
	failed int // of which produced wrong bytes

	engineCPU    []float64 // µs per trial, one sample per RunBatch call
	engineCalls  int
	engineAllocs uint64
	slots        int64
	engineTrials int
	topoUs       []float64
	edges        int64
	topoTrials   int
	ndjsonNs     []float64
	journalBytes int64
	outputBytes  int64
	sinkTrials   int
	procs2       float64
	untracedTPS  []float64
	pipeAllocs   uint64 // heap objects over the untraced full-pipeline passes
	pipeTrials   int
	tracedTPS    []float64
	retries      int64
	windowPeak   int
	svcTap       *serverTap // service depth's middleware, all rounds
	distTap      *serverTap // dist depth's middleware, all rounds
	bs           *engine.BatchScratch
}

// traced runs the depth ladder for the budget (at least one round) and
// reports the per-layer metrics.
func traced(h *harness, budget time.Duration, spansPath string, logf func(string, ...any)) (report, error) {
	plan := dist.Plan(h.in.trials, h.in.shardSize)
	l := &ladder{h: h, rec: newRecorder(), plan: plan, logf: logf}
	l.svcTap, l.distTap = newServerTap(l.rec), newServerTap(l.rec)
	deadline := time.Now().Add(budget)
	for len(l.rounds) == 0 || time.Now().Before(deadline) {
		if err := l.round(); err != nil {
			return report{}, err
		}
	}
	spans := l.rec.snapshot()
	if err := writeSpans(spansPath, spans); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	rep := report{Correct: l.failed == 0, Attempted: l.units, Failed: l.failed, Metrics: metrics{}}
	if err := l.report(rep.Metrics, spans); err != nil {
		return rep, err
	}
	return rep, nil
}

// check compares one shard's bytes at a depth with the reference.
func (l *ladder) check(depth string, k int, got []byte) {
	l.units++
	if !bytes.Equal(got, l.h.ref.shard(k)) {
		l.failed++
		l.logf("%s depth: shard %s output differs from the reference", depth, shardID(l.plan[k]))
	}
}

func (l *ladder) round() error {
	r := round{cpu: map[string]map[int]shardCost{}}
	for _, d := range depths {
		r.cpu[d] = map[int]shardCost{}
	}
	// An untraced full pipeline pass, for the tracing overhead.
	if !l.h.in.warm {
		if err := l.h.freshWorker(); err != nil {
			return err
		}
	}
	p, err := l.h.sweep(l.h.in.trials, nil, -1)
	if err != nil {
		return err
	}
	l.untracedTPS = append(l.untracedTPS, float64(p.trials)/p.wall.Seconds())
	l.pipeAllocs += p.allocs
	l.pipeTrials += p.trials

	// dist depth first: it tells which shards the pipeline computes.
	before := len(l.distTap.statuses())
	if err := l.distDepth(&r); err != nil {
		return err
	}
	for _, st := range l.distTap.statuses()[before:] {
		if st.code != http.StatusAccepted {
			continue
		}
		k := slices.IndexFunc(l.plan, func(sh scenario.Shard) bool { return shardID(sh) == st.shard })
		if k < 0 {
			return fmt.Errorf("submit for unknown shard %q", st.shard)
		}
		r.computed = append(r.computed, k)
	}
	if err := l.serviceDepth(&r); err != nil {
		return err
	}
	if err := l.sinkDepth(&r); err != nil {
		return err
	}
	if err := l.simDepth(&r); err != nil {
		return err
	}
	if err := l.engineDepth(&r); err != nil {
		return err
	}
	if len(l.rounds) == 0 && len(r.computed) > 0 {
		if err := l.procsSpeedup(r.computed); err != nil {
			return err
		}
	}
	l.rounds = append(l.rounds, r)
	return nil
}

// withTap routes the worker through a server tap for the duration of
// fn, over a fresh store unless the workload replays a filled one.
func (l *ladder) withTap(tap *serverTap, fn func() error) error {
	l.h.stap = tap
	defer func() {
		l.h.stap = nil
		if l.h.mgr != nil {
			l.h.route()
		}
	}()
	if l.h.in.warm {
		l.h.route()
	} else if err := l.h.freshWorker(); err != nil {
		return err
	}
	return fn()
}

func (l *ladder) distDepth(r *round) error {
	root := l.rec.begin("depth.dist", "", -1)
	var p passResult
	err := l.withTap(l.distTap, func() (err error) {
		p, err = l.h.sweep(l.h.in.trials, l.rec, root)
		return err
	})
	l.rec.end(root)
	if err != nil {
		return err
	}
	l.units += len(l.plan)
	if p.err != nil {
		l.failed += len(l.plan)
		l.logf("dist depth: %v", p.err)
	}
	r.distCPU = p.cpu
	l.tracedTPS = append(l.tracedTPS, float64(p.trials)/p.wall.Seconds())
	l.retries += p.retries
	l.windowPeak = max(l.windowPeak, p.peakWin)
	return nil
}

// submitBody is the worker's POST /v1/jobs body.
type submitBody struct {
	Scenario json.RawMessage `json:"scenario"`
	Trials   int             `json:"trials"`
	BaseSeed uint64          `json:"base_seed"`
	Shard    scenario.Shard  `json:"shard"`
}

// serviceDepth submits every shard to the worker over HTTP and drains
// its result feed, one shard at a time, without a coordinator.
func (l *ladder) serviceDepth(r *round) error {
	root := l.rec.begin("depth.service", "", -1)
	defer l.rec.end(root)
	return l.withTap(l.svcTap, func() error {
		out := make([][]byte, len(l.plan))
		for k, sh := range l.plan {
			body, err := json.Marshal(submitBody{Scenario: l.h.in.scenarioJSON, Trials: l.h.in.trials, BaseSeed: l.h.in.baseSeed, Shard: sh})
			if err != nil {
				return err
			}
			c0 := cpuTime()
			span := l.rec.begin("service.shard", shardID(sh), root)
			data, err := l.runJob(body)
			l.rec.end(span)
			r.cpu["service"][k] = shardCost{cpu: cpuTime() - c0, trials: sh.Len()}
			if err != nil {
				return fmt.Errorf("service depth, shard %s: %w", shardID(sh), err)
			}
			out[k] = data
		}
		if !l.h.in.warm {
			l.h.closeWorker()
		}
		for k, data := range out {
			l.check("service", k, data)
		}
		return nil
	})
}

// runJob submits one shard job and reads its whole result feed.
func (l *ladder) runJob(body []byte) ([]byte, error) {
	resp, err := l.h.cli.Post(l.h.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, data)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	resp, err = l.h.cli.Get(l.h.url + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// timedSink times each Trial call of the sink it wraps.
type timedSink struct {
	s       sim.Sink
	samples *[]float64
}

func (t timedSink) Trial(i int, r *engine.Result) error {
	t0 := time.Now()
	err := t.s.Trial(i, r)
	*t.samples = append(*t.samples, float64(time.Since(t0).Nanoseconds()))
	return err
}

func (t timedSink) Flush() error { return t.s.Flush() }

// sinkDepth runs each computed shard through the checkpointed shard
// stream the worker uses: an NDJSON file sink plus a checkpoint journal.
func (l *ladder) sinkDepth(r *round) error {
	root := l.rec.begin("depth.sink", "", -1)
	defer l.rec.end(root)
	dir, err := l.h.newDir("sink")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, k := range r.computed {
		sh := l.plan[k]
		specs, err := l.h.in.sc.ShardSpecs(l.h.in.baseSeed, 0, l.h.in.trials, sh)
		if err != nil {
			return err
		}
		journal, outPath := filepath.Join(dir, fmt.Sprintf("%d.ckpt", k)), filepath.Join(dir, fmt.Sprintf("%d.ndjson", k))
		cp, err := sink.OpenCheckpoint(journal)
		if err != nil {
			return err
		}
		f, err := os.Create(outPath)
		if err != nil {
			cp.Close()
			return err
		}
		c0 := cpuTime()
		span := l.rec.begin("sink.shard", shardID(sh), root)
		runErr := sink.StreamCheckpointedShard(context.Background(), 1, l.h.in.sc.Batch, sh.Lo, specs, cp,
			timedSink{s: sink.NewNDJSON(f), samples: &l.ndjsonNs})
		cerr, ferr := cp.Close(), f.Close()
		l.rec.end(span)
		r.cpu["sink"][k] = shardCost{cpu: cpuTime() - c0, trials: sh.Len()}
		for _, err := range []error{runErr, cerr, ferr} {
			if err != nil {
				return fmt.Errorf("sink depth, shard %s: %w", shardID(sh), err)
			}
		}
		l.journalBytes += fileSize(journal)
		l.outputBytes += fileSize(outPath)
		l.sinkTrials += sh.Len()
		data, err := os.ReadFile(outPath)
		if err != nil {
			return err
		}
		l.check("sink", k, data)
	}
	return nil
}

// collect keeps a shard's results for encoding after the timed call.
type collect []*engine.Result

func (c *collect) Trial(_ int, r *engine.Result) error { *c = append(*c, r); return nil }
func (c *collect) Flush() error                        { return nil }

// encode renders results as the NDJSON lines of trials lo, lo+1, ….
func encode(lo int, rs []*engine.Result) ([]byte, error) {
	var buf bytes.Buffer
	nd := sink.NewNDJSON(&buf)
	for i, r := range rs {
		if err := nd.Trial(lo+i, r); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nd.Flush()
}

// simDepth streams each computed shard through sim.StreamBatch at procs
// 1 into a sink that only keeps the results.
func (l *ladder) simDepth(r *round) error {
	root := l.rec.begin("depth.sim", "", -1)
	defer l.rec.end(root)
	for _, k := range r.computed {
		sh := l.plan[k]
		specs, err := l.h.in.sc.ShardSpecs(l.h.in.baseSeed, 0, l.h.in.trials, sh)
		if err != nil {
			return err
		}
		var got collect
		c0 := cpuTime()
		span := l.rec.begin("sim.shard", shardID(sh), root)
		err = sim.StreamBatch(context.Background(), 1, l.h.in.sc.Batch, specs, &got)
		l.rec.end(span)
		r.cpu["sim"][k] = shardCost{cpu: cpuTime() - c0, trials: sh.Len()}
		if err != nil {
			return fmt.Errorf("sim depth, shard %s: %w", shardID(sh), err)
		}
		data, err := encode(sh.Lo, got)
		if err != nil {
			return err
		}
		l.check("sim", k, data)
	}
	return nil
}

// engineDepth runs each computed shard's trials straight through
// engine.RunBatch, width = the scenario's batch, on one warmed
// BatchScratch, with options from Scenario.Build re-seeded per trial.
// It also times the topology builds those trials need.
func (l *ladder) engineDepth(r *round) error {
	root := l.rec.begin("depth.engine", "", -1)
	defer l.rec.end(root)
	in := l.h.in
	width := max(in.sc.Batch, 1)
	if l.bs == nil && len(r.computed) > 0 {
		// Warm the scratch untimed on the sweep's first batch.
		l.bs = engine.NewBatchScratch()
		opts, err := l.batchOptions(0, min(width, in.trials))
		if err != nil {
			return err
		}
		if _, err := engine.RunBatch(opts, l.bs); err != nil {
			return err
		}
	}
	for _, k := range r.computed {
		sh := l.plan[k]
		id := shardID(sh)
		var cost shardCost
		var rs []*engine.Result
		for lo := sh.Lo; lo < sh.Hi; lo += width {
			hi := min(lo+width, sh.Hi)
			opts, err := l.batchOptions(lo, hi)
			if err != nil {
				return err
			}
			a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
			got, err := engine.RunBatch(opts, l.bs)
			c1, t1, a1 := cpuTime(), time.Now(), heapAllocs()
			l.rec.add("engine.run_batch", id, root, t0, t1)
			if err != nil {
				return fmt.Errorf("engine depth, trials %d-%d: %w", lo, hi, err)
			}
			cost.cpu += c1 - c0
			cost.trials += len(got)
			l.engineCPU = append(l.engineCPU, float64((c1-c0).Microseconds())/float64(len(got)))
			l.engineCalls++
			l.engineAllocs += a1 - a0
			l.engineTrials += len(got)
			for _, res := range got {
				l.slots += res.SlotsSimulated
			}
			rs = append(rs, got...)
		}
		r.cpu["engine"][k] = cost
		data, err := encode(sh.Lo, rs)
		if err != nil {
			return err
		}
		l.check("engine", k, data)

		for t := sh.Lo; t < sh.Hi; t++ {
			seed := sim.SweepSeed(in.baseSeed, 0, t)
			t0 := time.Now()
			topo, err := in.sc.Topology.Build(in.sc.N, seed)
			l.topoUs = append(l.topoUs, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return err
			}
			for v := 0; v < topo.N(); v++ {
				l.edges += int64(topo.Degree(v)) // each edge twice
			}
			l.topoTrials++
		}
	}
	return nil
}

// batchOptions builds the engine options of trials [lo, hi) with
// Scenario.Build, re-seeded per trial as the sweep seeds them.
func (l *ladder) batchOptions(lo, hi int) ([]engine.Options, error) {
	in := l.h.in
	opts := make([]engine.Options, 0, hi-lo)
	for t := lo; t < hi; t++ {
		sc := in.sc
		sc.Seed = sim.SweepSeed(in.baseSeed, 0, t)
		o, err := sc.Build()
		if err != nil {
			return nil, err
		}
		opts = append(opts, o)
	}
	return opts, nil
}

// procsSpeedup times one sim.StreamBatch over the computed shards at
// procs 1 and at procs 2.
func (l *ladder) procsSpeedup(computed []int) error {
	in := l.h.in
	var specs []sim.TrialSpec
	for _, k := range computed {
		s, err := in.sc.ShardSpecs(in.baseSeed, 0, in.trials, l.plan[k])
		if err != nil {
			return err
		}
		specs = append(specs, s...)
	}
	wall := map[int]time.Duration{}
	for _, procs := range []int{1, 2} {
		var got collect
		t0 := time.Now()
		if err := sim.StreamBatch(context.Background(), procs, in.sc.Batch, specs, &got); err != nil {
			return err
		}
		wall[procs] = time.Since(t0)
	}
	l.procs2 = wall[1].Seconds() / wall[2].Seconds()
	return nil
}

// perTrial averages a depth's cost over the shards of one round, in µs
// per trial of the whole sweep (shards a depth skipped cost nothing).
func perTrial(costs map[int]shardCost, trials int) float64 {
	var cpu time.Duration
	for _, c := range costs {
		cpu += c.cpu
	}
	return float64(cpu.Nanoseconds()) / 1e3 / float64(trials)
}

// selfSamples pairs each shard's per-trial cost at depth hi with its
// cost at the depth below, one sample per shard per round.
func (l *ladder) selfSamples(lo, hi string) []float64 {
	var out []float64
	for _, r := range l.rounds {
		for k, c := range r.cpu[hi] {
			below := r.cpu[lo][k]
			out = append(out, (float64(c.cpu.Nanoseconds())-float64(below.cpu.Nanoseconds()))/1e3/float64(c.trials))
		}
	}
	return out
}

// ofDepth keeps the spans named name that sit under the root span of
// the given depth.
func ofDepth(spans []Span, depth, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		i := s.Parent
		for i >= 0 && spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		if i >= 0 && spans[i].Name == "depth."+depth {
			out = append(out, s)
		}
	}
	return out
}

func toMs(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e6
	}
	return out
}

func (l *ladder) report(m metrics, spans []Span) error {
	in := l.h.in
	trials := float64(in.trials)
	rounds := float64(len(l.rounds))

	// Per-depth CPU per trial of the sweep, averaged over rounds; each
	// layer's share of the full pipeline is its depth minus the one below.
	cost := map[string]float64{}
	for _, r := range l.rounds {
		for _, d := range depths[:4] {
			cost[d] += perTrial(r.cpu[d], in.trials) / rounds
		}
		cost["dist"] += float64(r.distCPU.Nanoseconds()) / 1e3 / trials / rounds
	}
	var distSelf []float64
	for _, r := range l.rounds {
		distSelf = append(distSelf, float64(r.distCPU.Nanoseconds())/1e3/trials-perTrial(r.cpu["service"], in.trials))
	}
	shares := map[string]float64{}
	prev := 0.0
	for _, d := range depths {
		shares[d] = ratio(cost[d]-prev, cost["dist"])
		prev = cost[d]
	}

	engineWall := 0.0
	for _, s := range ofDepth(spans, "engine", "engine.run_batch") {
		engineWall += float64(s.dur()) / 1e9
	}
	var submit, svcShard, distShard, distShardSelf []float64
	for _, s := range ofDepth(spans, "service", "service.submit") {
		submit = append(submit, float64(s.dur()))
	}
	for _, s := range ofDepth(spans, "service", "service.shard") {
		svcShard = append(svcShard, float64(s.dur()))
	}
	for i, s := range spans {
		if s.Name == "dist.shard" && s.End >= s.Start {
			distShard = append(distShard, float64(s.dur()))
			distShardSelf = append(distShardSelf, float64(selfTime(spans, i)))
		}
	}
	computed, hits := l.distTap.counts()
	logf := l.logf
	logf("traffic check (%d rounds): CPU share engine %.1f%%, sim %.1f%%, sink %.1f%%, service %.1f%%, dist %.1f%%",
		len(l.rounds), 100*shares["engine"], 100*shares["sim"], 100*shares["sink"], 100*shares["service"], 100*shares["dist"])
	logf("traffic check: per round engine.calls %d, jobs computed %d, store hits %d, of %d shards",
		l.engineCalls/len(l.rounds), computed/len(l.rounds), hits/len(l.rounds), len(l.plan))
	logf("spans: dist.shard p50 %.3f ms, of which outside the worker's handlers %.3f ms",
		summarize(distShard).P50/1e6, summarize(distShardSelf).P50/1e6)

	sets := []struct {
		name, unit string
		v          float64
	}{
		{"engine.trials_per_s", "1/s", ratio(float64(l.engineTrials), engineWall)},
		{"engine.slots_per_trial", "count", ratio(float64(l.slots), float64(l.engineTrials))},
		{"engine.calls", "count", float64(l.engineCalls) / rounds},
		{"engine.allocs_per_trial", "count", ratio(float64(l.engineAllocs), float64(l.engineTrials))},
		{"topology.edges_per_trial", "count", ratio(float64(l.edges)/2, float64(l.topoTrials))},
		{"sim.procs2_speedup", "ratio", l.procs2},
		{"sink.journal_bytes_per_trial", "B", ratio(float64(l.journalBytes), float64(l.sinkTrials))},
		{"sink.output_bytes_per_trial", "B", ratio(float64(l.outputBytes), float64(l.sinkTrials))},
		{"service.feed_mb_per_s", "MB/s", ratio(float64(l.svcTap.feedB.Load())/1e6, float64(l.svcTap.feedNs.Load())/1e9)},
		{"service.jobs_computed", "count", float64(computed) / rounds},
		{"service.store_hits", "count", float64(hits) / rounds},
		{"dist.retries", "count", float64(l.retries)},
		{"dist.allocs_per_trial", "count", ratio(float64(l.pipeAllocs), float64(l.pipeTrials))},
		{"dist.window_peak_lines", "count", float64(l.windowPeak)},
		{"trace.overhead_frac", "ratio", 1 - ratio(median(l.tracedTPS), median(l.untracedTPS))},
	}
	for _, d := range depths {
		sets = append(sets, struct {
			name, unit string
			v          float64
		}{d + ".cpu_share", "ratio", shares[d]})
	}
	for _, e := range sets {
		if err := m.set(e.name, e.unit, e.v); err != nil {
			return err
		}
	}
	dists := []struct {
		name, unit string
		samples    []float64
	}{
		{"engine.cpu_us_per_trial", "us", l.engineCPU},
		{"topology.build_us_per_trial", "us", l.topoUs},
		{"sim.self_us_per_trial", "us", l.selfSamples("engine", "sim")},
		{"sink.self_us_per_trial", "us", l.selfSamples("sim", "sink")},
		{"sink.ndjson_ns_per_trial", "ns", l.ndjsonNs},
		{"service.self_us_per_trial", "us", l.selfSamples("sink", "service")},
		{"service.per_shard_ms", "ms", toMs(svcShard)},
		{"service.submit_ms", "ms", toMs(submit)},
		{"service.ttfb_ms", "ms", toMs(l.svcTap.ttfbSamples())},
		{"dist.self_us_per_trial", "us", distSelf},
		{"dist.shard_ms", "ms", toMs(distShard)},
		{"dist.merge_lag_ms", "ms", toMs(durations(spans, "dist.merge_lag"))},
	}
	for _, d := range dists {
		if err := m.setDist(d.name, d.unit, summarize(d.samples)); err != nil {
			return err
		}
	}
	return nil
}
