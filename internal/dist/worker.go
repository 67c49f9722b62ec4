package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// clientIDHeader identifies the coordinator to the workers' per-client
// limiter: every shard submission shares one slot pool per worker.
const clientIDHeader = "rccoord"

// workerClient runs shards on one worker service over its HTTP API.
type workerClient struct {
	base  string // normalized base URL, no trailing slash
	http  *http.Client
	sub   submitBody // the sweep's submission; submit fills in the shard
	stall time.Duration
	jit   *jitterSource // per-slot deterministic backoff jitter
}

// jitterSource decorrelates retry backoff across worker slots. When a
// shared dependency fails, every slot's attempt fails in the same
// instant; pure exponential backoff then resubmits them in lockstep,
// hammering whatever just recovered. Scaling each delay by a per-slot
// pseudo-random factor in [0.5, 1.0) breaks the convoy. The source is
// a seeded xorshift64 — deterministic per (JitterSeed, worker, slot) so
// tests can pin exact delays — and needs no locking: each slot owns its
// own source.
type jitterSource struct{ state uint64 }

// newJitter derives a slot's jitter stream from the configured seed,
// the worker's base URL, and the slot ordinal, so no two slots (even on
// one worker) share a sequence.
func newJitter(seed uint64, base string, slot int) *jitterSource {
	h := fnv.New64a()
	io.WriteString(h, base)
	st := h.Sum64() ^ (seed + uint64(slot)*0x9e3779b97f4a7c15)
	if st == 0 {
		st = 1 // xorshift64 has a fixed point at zero
	}
	return &jitterSource{state: st}
}

// scale returns d scaled by the next jitter factor in [0.5, 1.0).
func (j *jitterSource) scale(d time.Duration) time.Duration {
	j.state ^= j.state << 13
	j.state ^= j.state >> 7
	j.state ^= j.state << 17
	f := 0.5 + float64(j.state>>11)/float64(1<<54) // 53 random bits → [0.5, 1.0)
	return time.Duration(float64(d) * f)
}

// submitBody mirrors service.SubmitRequest.
type submitBody struct {
	Scenario json.RawMessage `json:"scenario"`
	Trials   int             `json:"trials"`
	BaseSeed uint64          `json:"base_seed"`
	Shard    scenario.Shard  `json:"shard"`
}

// submit posts the shard job and returns its id. It is idempotent: a
// repeat lands on the same worker-side job and output. Failures carry the
// type classify reads: a transport error, an HTTP status, or an
// unbuildable request.
func (w *workerClient) submit(ctx context.Context, sh scenario.Shard) (string, error) {
	sub := w.sub
	sub.Shard = sh
	body, err := json.Marshal(sub)
	if err != nil {
		return "", &permanentError{fmt.Errorf("dist: encode submission: %w", err)}
	}
	reqCtx, cancel := context.WithTimeout(ctx, w.stall)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientIDHeader)
	resp, err := w.http.Do(req)
	if err != nil {
		return "", &transportError{fmt.Errorf("dist: submit to %s: %w", w.base, err)}
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch code := resp.StatusCode; {
	case code == http.StatusOK || code == http.StatusAccepted:
	case code == http.StatusTooManyRequests:
		return "", &statusError{true, code, fmt.Errorf("dist: %s is busy: %s", w.base, snippet(data))}
	case code >= 400 && code < 500:
		return "", &statusError{true, code, fmt.Errorf("dist: %s rejected shard %s: %s", w.base, sh, snippet(data))}
	default:
		return "", &statusError{true, code, fmt.Errorf("dist: submit to %s: status %d: %s", w.base, code, snippet(data))}
	}
	var status struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &status); err != nil || status.ID == "" {
		return "", &transportError{fmt.Errorf("dist: submit to %s: malformed response: %s", w.base, snippet(data))}
	}
	return status.ID, nil
}

// follow streams the job's NDJSON results into the shard's line buffer.
// The worker replays the stream from byte zero on every attach, so a
// retry skips the st.sent lines already buffered by earlier attempts —
// determinism makes the replayed prefix identical, which is what lets a
// reassigned shard resume mid-stream without re-delivering a trial.
// Each new line is checked and folded into the shard's summary before
// buffering (accept). A watchdog abandons the attempt if the stream
// goes silent — no bytes — for the stall timeout: the SIGKILLed-worker
// signature, since a dead TCP peer otherwise blocks the read
// indefinitely. Every body read that returns bytes resets it
// (stallReader), so a slow stream that keeps trickling bytes never trips
// it, however long a line takes.
func (w *workerClient) follow(ctx context.Context, id string, st *shardState) error {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	wd := time.AfterFunc(w.stall, cancel)
	defer wd.Stop()

	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, w.base+"/v1/jobs/"+id+"/results", nil)
	if err != nil {
		return &permanentError{err}
	}
	req.Header.Set("X-Client-ID", clientIDHeader)
	resp, err := w.http.Do(req)
	if err != nil {
		return &transportError{fmt.Errorf("dist: attach to %s job %s: %w", w.base, id, err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &statusError{false, resp.StatusCode, fmt.Errorf("dist: attach to %s job %s: status %d: %s", w.base, id, resp.StatusCode, snippet(data))}
	}

	skip := st.sent // lines earlier attempts already buffered
	want := st.shard.Len()
	br := bufio.NewReader(&stallReader{r: resp.Body, wd: wd, stall: w.stall})
	var rec sink.Record // parse scratch, reused line to line
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			switch {
			case skip > 0:
				skip--
			default:
				if err := st.accept(line, &rec); err != nil {
					return fmt.Errorf("dist: %s job %s: %w", w.base, id, err)
				}
				if st.sent == want {
					close(st.lines)
					return nil
				}
			}
		}
		if err != nil {
			switch {
			case ctx.Err() != nil:
				return ctx.Err() // the whole run is stopping
			case reqCtx.Err() != nil:
				// Only the watchdog cancels reqCtx once ctx is ruled out.
				return &transportError{fmt.Errorf("dist: %s job %s: stream stalled for %v at %d/%d lines", w.base, id, w.stall, st.sent, want)}
			case errors.Is(err, io.EOF):
				return &transportError{fmt.Errorf("dist: %s job %s: stream ended at %d/%d lines", w.base, id, st.sent, want)}
			default:
				return &transportError{fmt.Errorf("dist: %s job %s: read stream: %w", w.base, id, err)}
			}
		}
	}
}

// stallReader resets the stall watchdog wd on every read of r that
// returns bytes: once per body read rather than once per result line.
type stallReader struct {
	r     io.Reader
	wd    *time.Timer
	stall time.Duration
}

func (s *stallReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 {
		s.wd.Reset(s.stall)
	}
	return n, err
}

// snippet compacts an HTTP error body for a log-friendly message.
func snippet(data []byte) string {
	s := string(bytes.TrimSpace(data))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	if s == "" {
		return "(empty body)"
	}
	return s
}

// accept validates, folds, and buffers one result line. The line must
// parse (sink.ParseRecord) and follow the shard's sink.Sequence, or the
// worker's journal or feed is corrupt and nothing is buffered. rec is
// the caller's parse scratch, reused across a stream.
func (st *shardState) accept(line []byte, rec *sink.Record) error {
	if err := sink.ParseRecord(line, rec); err != nil {
		return fmt.Errorf("malformed result line: %w", err)
	}
	if err := (sink.Sequence{Lo: st.shard.Lo, Hi: st.shard.Hi, N: st.n}).Check(rec, st.sent); err != nil {
		return fmt.Errorf("result line for shard %s: %w", st.shard, err)
	}
	st.sum.add(rec)
	st.lines <- line // never blocks: cap == shard.Len()
	st.sent++
	return nil
}
