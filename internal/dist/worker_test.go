package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// recordLine renders trial's result line as a worker emits it.
func recordLine(t testing.TB, trial int) []byte {
	t.Helper()
	b, err := json.Marshal(sink.Record{Trial: trial, N: 64, Informed: 60, Completed: true,
		Rounds: 3, Slots: 4096, AliceCost: 17, NodeMaxCost: 9, AdversarySpent: 1024, Strategy: "full-jam"})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// malformedLines are corruptions of trial's line that a worker's
// encoder never produces; each must be refused.
func malformedLines(t *testing.T, trial int) []struct {
	name string
	line []byte
} {
	good := recordLine(t, trial)
	edit := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("line %q lacks %q", good, old)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	return []struct {
		name string
		line []byte
	}{
		{"wrong trial index", recordLine(t, trial+1)},
		{"wrong n", edit(`"n":64`, `"n":65`)},
		{"truncated", append(good[:len(good)/2:len(good)/2], '\n')},
		{"trailing garbage after }", edit("}\n", "}x\n")},
		{"reordered fields", edit(fmt.Sprintf(`{"trial":%d,"n":64`, trial), fmt.Sprintf(`{"n":64,"trial":%d`, trial))},
		{"inserted whitespace", edit(`,"n":64`, `, "n":64`)},
		{"leading plus", edit(`"n":64`, `"n":+64`)},
		{"leading zero", edit(`"n":64`, `"n":064`)},
		{"int64 overflow", edit(`"slots":4096`, `"slots":9223372036854775808`)},
		{"missing newline", good[:len(good)-1]},
	}
}

// TestAcceptRejectsMalformedLines: every corrupt line is an error that
// buffers nothing, folds nothing, and advances nothing.
func TestAcceptRejectsMalformedLines(t *testing.T) {
	const lo = 10
	newShard := func() *shardState {
		return &shardState{shard: scenario.Shard{Lo: lo, Hi: lo + 2}, n: 64, lines: make(chan []byte, 2)}
	}
	var rec sink.Record
	for _, tc := range malformedLines(t, lo) {
		st := newShard()
		if err := st.accept(tc.line, &rec); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.line)
		}
		if st.sent != 0 || len(st.lines) != 0 || st.sum.Trials != 0 {
			t.Errorf("%s: rejected line still advanced the shard (sent %d, buffered %d, folded %d)",
				tc.name, st.sent, len(st.lines), st.sum.Trials)
		}
	}
	st := newShard()
	if err := st.accept(recordLine(t, lo), &rec); err != nil || st.sent != 1 || len(st.lines) != 1 || st.sum.Trials != 1 {
		t.Fatalf("well-formed line: err %v, sent %d, buffered %d, folded %d", err, st.sent, len(st.lines), st.sum.Trials)
	}
}

// TestRefoldRejectsMalformedPrefix: a corrupt line anywhere in the
// merged output a resume scans means the output does not belong to the
// journal, and the scan says so.
func TestRefoldRejectsMalformedPrefix(t *testing.T) {
	plan := Plan(4, 2)
	for _, tc := range malformedLines(t, 2) {
		var out bytes.Buffer
		for trial := 0; trial < 4; trial++ {
			if trial == 2 {
				out.Write(tc.line)
			} else {
				out.Write(recordLine(t, trial))
			}
		}
		shards := []*shardState{{shard: plan[0]}, {shard: plan[1]}}
		_, _, err := restoreOutput(bytes.NewReader(out.Bytes()), "merged", plan, sink.Sequence{Hi: 4, N: 64}, shards)
		if err == nil || !strings.Contains(err.Error(), "wrong output file for this journal?") {
			t.Errorf("%s: resume scan error = %v, want a wrong-output-file error", tc.name, err)
		}
	}
}

// runShard is one shard attempt end to end, as a slot with nothing
// submitted ahead runs it: submit, then follow.
func (w *workerClient) runShard(ctx context.Context, st *shardState) error {
	id, err := w.submit(ctx, st.shard)
	if err != nil {
		return err
	}
	return w.follow(ctx, id, st)
}

// TestClassifyFaults pins who is blamed for each way a shard attempt
// fails, from real failures of the worker client against fake workers.
func TestClassifyFaults(t *testing.T) {
	sh := scenario.Shard{Lo: 0, Hi: 2}
	lines := func(w http.ResponseWriter, ls ...[]byte) {
		w.WriteHeader(http.StatusOK)
		for _, l := range ls {
			w.Write(l)
		}
	}
	accepted := func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j1"}`))
	}
	status := func(code int) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) { http.Error(w, `{"error":"injected"}`, code) }
	}
	for _, tc := range []struct {
		name    string
		base    string // overrides the fake worker's URL
		submit  func(http.ResponseWriter)
		results func(http.ResponseWriter, *http.Request)
		want    fault
	}{
		{name: "connection refused", base: "http://127.0.0.1:1", want: memberFault},
		{name: "unbuildable request", base: "http://bad host", want: permanentFault},
		{name: "submit 502", submit: status(http.StatusBadGateway), want: memberFault},
		{name: "submit 500", submit: status(http.StatusInternalServerError), want: memberFault},
		{name: "submit empty body", submit: func(w http.ResponseWriter) { w.WriteHeader(http.StatusAccepted) }, want: memberFault},
		{name: "submit 400", submit: status(http.StatusBadRequest), want: permanentFault},
		{name: "submit 429", submit: status(http.StatusTooManyRequests), want: shardFault},
		{name: "attach 404", submit: accepted, results: func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "no such job", http.StatusNotFound)
		}, want: shardFault},
		{name: "attach 502", submit: accepted, results: func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "", http.StatusBadGateway)
		}, want: memberFault},
		{name: "stream stalls", submit: accepted, results: func(w http.ResponseWriter, r *http.Request) {
			lines(w, recordLine(t, 0))
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}, want: memberFault},
		{name: "stream cut", submit: accepted, results: func(w http.ResponseWriter, _ *http.Request) {
			lines(w, recordLine(t, 0))
		}, want: memberFault},
		{name: "malformed line", submit: accepted, results: func(w http.ResponseWriter, _ *http.Request) {
			lines(w, recordLine(t, 0), []byte("{\"trial\": 1}\n"))
		}, want: shardFault},
		{name: "wrong trial index", submit: accepted, results: func(w http.ResponseWriter, _ *http.Request) {
			lines(w, recordLine(t, 0), recordLine(t, 5))
		}, want: shardFault},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && tc.submit != nil:
					tc.submit(w)
				case strings.HasSuffix(r.URL.Path, "/results") && tc.results != nil:
					tc.results(w, r)
				default:
					http.Error(w, "unexpected request", http.StatusTeapot)
				}
			}))
			defer srv.Close()
			base := srv.URL
			if tc.base != "" {
				base = tc.base
			}
			w := &workerClient{base: base, http: srv.Client(), sub: submitBody{Scenario: json.RawMessage(`{}`), Trials: 2},
				stall: 100 * time.Millisecond, jit: newJitter(0, base, 0)}
			st := &shardState{shard: sh, n: 64, lines: make(chan []byte, sh.Len())}
			err := w.runShard(context.Background(), st)
			if err == nil {
				t.Fatal("attempt succeeded")
			}
			if got := classify(err); got != tc.want {
				t.Fatalf("classify(%v) = %v, want %v", err, got, tc.want)
			}
		})
	}
}

// TestMemberFaultOnHealthyWorkerCharges: a worker that fails every
// submit with 502 but answers its probes is alive, so its failures are
// the shard's — the sweep fails after MaxAttempts instead of requeueing
// uncharged forever.
func TestMemberFaultOnHealthyWorkerCharges(t *testing.T) {
	flaky := func() *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.Write([]byte(`{"status":"ready"}`))
				return
			}
			http.Error(w, "", http.StatusBadGateway)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := flaky(), flaky()
	c, err := New(fastProbes(Config{Workers: []string{a.URL, b.URL}, ShardSize: 4, MaxAttempts: 3, Logf: t.Logf}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), testScenario("dist-healthy-502"), 8, 1, &bytes.Buffer{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "failed 3 attempts") {
			t.Fatalf("Run error = %v, want attempt exhaustion", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run kept requeueing a shard that fails on healthy workers")
	}
}
