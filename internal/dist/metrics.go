package dist

// Metrics is the coordinator's hand-rolled counter snapshot — the
// /metrics body cmd/rccoordd serves, in the same style as the worker
// service's.
type Metrics struct {
	// Workers counts live (non-dead) pool members; Members maps each
	// known worker's base URL to its membership state (ready, draining,
	// suspect, dead). Joins and Leaves count pool transitions over the
	// coordinator's lifetime.
	Workers     int               `json:"workers"`
	Members     map[string]string `json:"members"`
	Joins       int64             `json:"joins"`
	Leaves      int64             `json:"leaves"`
	TotalShards int               `json:"total_shards"`
	// Shards counts shards per lifecycle phase: pending (waiting for a
	// first attempt), assigned (an attempt in flight), done (all lines
	// buffered or merged), retrying (requeued after ≥1 failed attempt).
	Shards            map[string]int `json:"shards"`
	PerWorkerInFlight map[string]int `json:"per_worker_in_flight"`
	Retries           int64          `json:"retries"`
	MergedTrials      int64          `json:"merged_trials"`
	TotalTrials       int64          `json:"total_trials"`
	// ResumedShards counts shards restored from the merged output at
	// startup rather than recomputed — nonzero only after a crash-resume.
	ResumedShards int64 `json:"resumed_shards"`
	// MergeFrontierShard is the next shard index the merge loop will
	// emit; WindowBufferedLines is the reorder window's occupancy —
	// result lines buffered ahead of the frontier, bounded by
	// WindowShards·ShardSize.
	MergeFrontierShard  int `json:"merge_frontier_shard"`
	WindowShards        int `json:"merge_window_shards"`
	WindowBufferedLines int `json:"merge_window_buffered_lines"`
}

// Metrics snapshots the run. Safe from any goroutine, including before
// Run starts (all-zero shard counts) and after it returns.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		Members:           map[string]string{},
		Shards:            map[string]int{},
		PerWorkerInFlight: map[string]int{},
		Retries:           c.retries.Load(),
		MergedTrials:      c.merged.Load(),
		TotalTrials:       c.totalTrials.Load(),
		Joins:             c.joins.Load(),
		Leaves:            c.leaves.Load(),
		ResumedShards:     c.resumed.Load(),
	}
	c.mu.Lock()
	for base, mem := range c.members {
		s := mem.getState()
		m.Members[base] = s
		if s != StateDead {
			m.Workers++
		}
	}
	run := c.run
	for w, n := range c.inflight {
		m.PerWorkerInFlight[w] = n
	}
	c.mu.Unlock()
	if run == nil {
		return m
	}
	m.TotalShards = len(run.shards)
	frontier, _, _ := run.sched.snapshot()
	m.MergeFrontierShard = frontier
	m.WindowShards = run.sched.window
	for i, st := range run.shards {
		st.mu.Lock()
		phase, attempts := st.phase, st.attempts
		st.mu.Unlock()
		if phase == phasePending && attempts > 0 {
			m.Shards["retrying"]++
		} else {
			m.Shards[phase]++
		}
		if i >= frontier {
			m.WindowBufferedLines += len(st.lines)
		}
	}
	return m
}
