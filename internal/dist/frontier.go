package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"rcbcast/internal/journal"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// The frontier journal is the coordinator's own durability record, an
// internal/journal log: a header line naming the sweep, then one line
// per *merged* shard recording the cumulative merged-output byte offset
// after it. A SIGKILLed coordinator restarts, truncates its merged
// output back to the last journaled shard boundary (dropping any torn
// tail the kill left mid-shard), re-folds the retained prefix into
// per-shard summaries (reproducing the original fold tree exactly), and
// dispatches only the unmerged shards — the final bytes are identical
// to an uninterrupted run because every retained byte was already
// identical and every regenerated byte is deterministic.
type frontierJournal struct {
	log *journal.Log

	merged    int   // shards [0, merged) are durably merged
	bytes     int64 // merged-output size at the `merged` boundary
	shardSize int   // plan granularity pinned by the header
}

// frontierHeader is the journal's first line. ShardSize is recorded
// because the shard plan must be identical across restarts: the
// auto-size heuristic depends on the worker count, which an elastic
// pool changes between runs.
type frontierHeader struct {
	Sweep     string `json:"sweep"`
	Trials    int    `json:"trials"`
	BaseSeed  uint64 `json:"base_seed"`
	ShardSize int    `json:"shard_size"`
}

// frontierLine records one merged shard: Bytes is the merged output's
// total size after the shard — the truncation point a restart recovers
// to.
type frontierLine struct {
	Shard int   `json:"shard"`
	Bytes int64 `json:"bytes"`
}

// frontierFingerprint hashes the canonical scenario encoding and base
// seed into the journal-header token, so a journal can never resume a
// different sweep's output file.
func frontierFingerprint(enc []byte, baseSeed uint64) string {
	h := fnv.New64a()
	h.Write(enc)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], baseSeed)
	h.Write(b[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// openFrontier opens (or creates) the journal and validates it against
// the sweep at hand. A fresh journal is stamped with a header carrying
// shardSize; an existing one must match fingerprint, trials, and seed
// exactly — its recorded shard size then *overrides* the caller's, so
// the restarted plan tiles identically. Shard lines must be
// consecutive from 0 with non-decreasing byte offsets; the first
// violation (a torn write from the kill) truncates the tail away.
func openFrontier(path, fp string, trials int, baseSeed uint64, shardSize int) (*frontierJournal, error) {
	fj := &frontierJournal{shardSize: shardSize}
	headerDone := false
	var reject error // a header this run must not overwrite, returned verbatim
	lg, err := journal.Open(path, func(line []byte) (bool, error) {
		if !headerDone {
			var h frontierHeader
			if json.Unmarshal(line, &h) != nil || h.Sweep == "" {
				reject = fmt.Errorf(
					"dist: frontier journal %s has an unreadable header — delete it (and the merged output) to restart the sweep", path)
				return false, reject
			}
			if h.Sweep != fp || h.Trials != trials || h.BaseSeed != baseSeed {
				reject = fmt.Errorf(
					"dist: frontier journal %s was written by a different sweep (sweep %s/%d trials/seed %d, this run %s/%d/%d) — delete it or rerun with the original flags",
					path, h.Sweep, h.Trials, h.BaseSeed, fp, trials, baseSeed)
				return false, reject
			}
			if h.ShardSize > 0 {
				fj.shardSize = h.ShardSize
			}
			headerDone = true
			return true, nil
		}
		var fl frontierLine
		if json.Unmarshal(line, &fl) != nil || fl.Shard != fj.merged || fl.Bytes < fj.bytes {
			return false, nil // torn or corrupt tail
		}
		fj.merged++
		fj.bytes = fl.Bytes
		return true, nil
	})
	if err != nil {
		if err == reject {
			return nil, err
		}
		return nil, fmt.Errorf("dist: frontier journal: %w", err)
	}
	fj.log = lg
	if !headerDone {
		if err := lg.Append(frontierHeader{Sweep: fp, Trials: trials, BaseSeed: baseSeed, ShardSize: shardSize}); err != nil {
			lg.Close()
			return nil, fmt.Errorf("dist: frontier journal header: %w", err)
		}
	}
	return fj, nil
}

// record journals one merged shard and flushes, so the boundary is
// durable before the merge loop moves on. The merged output itself is
// flushed first by the caller — on a crash the output may run past the
// last journaled boundary (the restart truncates the excess) but never
// short of it.
func (fj *frontierJournal) record(shard int, bytes int64) error {
	if err := fj.log.Append(frontierLine{Shard: shard, Bytes: bytes}); err != nil {
		return fmt.Errorf("dist: frontier journal: %w", err)
	}
	fj.merged = shard + 1
	fj.bytes = bytes
	return nil
}

func (fj *frontierJournal) Close() error { return fj.log.Close() }

// refoldPrefix rebuilds the per-shard summary folds for the already-
// merged shards [0, frontier) from the retained output prefix —
// per-trial, in trial order, per shard, exactly the fold tree the
// original run used, so the resumed sweep's Summary is the same value
// an uninterrupted run produces. Every line is validated against its
// expected sweep-global trial index: a mismatch means the output file
// does not belong to this journal.
func refoldPrefix(r io.ReaderAt, n int64, plan []scenario.Shard, frontier int, shards []*shardState) error {
	br := bufio.NewReader(io.NewSectionReader(r, 0, n))
	var rec sink.Record
	for i := 0; i < frontier; i++ {
		st := shards[i]
		for t := plan[i].Lo; t < plan[i].Hi; t++ {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return fmt.Errorf(
					"dist: merged output ends before the frontier journal's boundary (shard %s, trial %d) — wrong output file for this journal?: %w",
					plan[i], t, err)
			}
			if err := sink.ParseRecord(line, &rec); err != nil {
				return fmt.Errorf("dist: merged output line for trial %d is malformed — wrong output file for this journal?: %w", t, err)
			}
			if rec.Trial != t {
				return fmt.Errorf("dist: merged output has trial %d where the journal expects %d — wrong output file for this journal?", rec.Trial, t)
			}
			st.sum.add(&rec)
		}
		st.sent = plan[i].Len()
	}
	return nil
}

// countingWriter tracks cumulative bytes written to the merged output,
// giving the frontier journal its truncation offsets.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
