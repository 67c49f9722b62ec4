package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"rcbcast/internal/journal"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// The merged output is the coordinator's own durability record: every
// line carries its sweep-global trial index, and the shard plan is
// fixed by the shard size, so the output alone says which shards a
// previous process merged. The frontier journal only pins the output
// to one sweep: an internal/journal log holding a single header line,
// written when the file is created. A SIGKILLed coordinator restarts,
// scans the output (restoreOutput), truncates it back to its last
// complete shard (dropping any torn tail the kill left mid-shard),
// re-folds the kept shards into per-shard summaries (reproducing the
// original fold tree exactly), and dispatches only the rest — the
// final bytes are identical to an uninterrupted run because every kept
// byte was already identical and every regenerated byte is
// deterministic.

// frontierHeader is the journal's one line. ShardSize is recorded
// because the shard plan must be identical across restarts: the
// auto-size heuristic depends on the worker count, which an elastic
// pool changes between runs.
type frontierHeader struct {
	Sweep     string `json:"sweep"`
	Trials    int    `json:"trials"`
	BaseSeed  uint64 `json:"base_seed"`
	ShardSize int    `json:"shard_size"`
}

// openFrontier opens (or creates) the journal and validates it against
// the sweep at hand, returning the shard size to plan with and whether
// the header already existed — the output then holds a previous run's
// progress to resume. An existing header must match the pin
// (scenario.Sweep.Pin), trials, and seed exactly, or the open fails
// with a *sink.JournalError wrapping sink.ErrForeignSweep; a journal
// an older coordinator pinned with a hash of its own fails the same
// way. A matching header's recorded shard size then *overrides*
// the caller's, so the restarted plan tiles identically. Lines after a
// valid header (the per-shard lines older coordinators appended) are
// kept and ignored. A journal with no complete header line is stamped
// with one carrying shardSize, after fresh runs: the caller empties the
// output there, so a kill between the two steps never leaves an old
// output beside a new header.
func openFrontier(path, pin string, trials int, baseSeed uint64, shardSize int, fresh func() error) (size int, resume bool, err error) {
	var reject error // a header this run must not overwrite, returned verbatim
	lg, err := journal.Open(path, func(line []byte) (bool, error) {
		if resume {
			return true, nil
		}
		var h frontierHeader
		if json.Unmarshal(line, &h) != nil || h.Sweep == "" {
			reject = fmt.Errorf(
				"dist: frontier journal %s has an unreadable header — delete it (and the merged output) to restart the sweep", path)
			return false, reject
		}
		if h.Sweep != pin || h.Trials != trials || h.BaseSeed != baseSeed {
			reject = sink.Foreign(path, 1, "pin %s, %d trials, seed %d; this sweep %s, %d, %d",
				h.Sweep, h.Trials, h.BaseSeed, pin, trials, baseSeed)
			return false, reject
		}
		if h.ShardSize > 0 {
			shardSize = h.ShardSize
		}
		resume = true
		return true, nil
	})
	if err != nil {
		if err == reject {
			return 0, false, err
		}
		return 0, false, fmt.Errorf("dist: frontier journal: %w", err)
	}
	if !resume {
		if err = fresh(); err == nil {
			err = lg.Append(frontierHeader{Sweep: pin, Trials: trials, BaseSeed: baseSeed, ShardSize: shardSize})
		}
	}
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, false, fmt.Errorf("dist: frontier journal header: %w", err)
	}
	return shardSize, resume, nil
}

// restoreOutput is the resume scan over a previous run's merged output
// (name is its file), read from byte 0. It keeps whole shards: every
// complete line must parse with sink.ParseRecord and follow the sweep's
// sink.Sequence, seq. Each kept shard's summary is folded per trial, in
// trial order — the original run's fold tree, so the resumed Summary is
// the value an uninterrupted run produces. It returns the kept shard
// count and the byte offset of their end; only a newline-less tail and
// a trailing partial shard lie past it. A complete line that does not
// parse, a wrong trial index or n, or bytes past the sweep's last trial
// mean the output belongs to another sweep: the scan fails with a
// *sink.JournalError wrapping sink.ErrForeignSweep, and the caller
// leaves the file alone.
func restoreOutput(r io.Reader, name string, plan []scenario.Shard, seq sink.Sequence, shards []*shardState) (kept int, size int64, err error) {
	br := bufio.NewReader(r)
	var (
		rec  sink.Record
		sum  Summary // the current shard's fold, kept once it completes
		off  int64
		next int // the trial the next line must carry
	)
	foreign := func(format string, args ...any) error {
		return sink.Foreign(name, next+1, format+"; wrong output file for this journal?", args...)
	}
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && kept == len(plan) {
			return 0, 0, foreign("runs past the sweep's last trial %d", next-1)
		}
		if err == io.EOF {
			return kept, size, nil // a newline-less tail is a torn write
		}
		if err != nil {
			return 0, 0, fmt.Errorf("dist: read merged output: %w", err)
		}
		if err := sink.ParseRecord(line, &rec); err != nil {
			return 0, 0, foreign("line for trial %d is malformed: %v", next, err)
		}
		if err := seq.Check(&rec, next); err != nil {
			return 0, 0, foreign("%v", err)
		}
		sum.add(&rec)
		off += int64(len(line))
		next++
		if next == plan[kept].Hi {
			shards[kept].sum, shards[kept].sent = sum, plan[kept].Len()
			sum = Summary{}
			kept++
			size = off
		}
	}
}
