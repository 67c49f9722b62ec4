package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rcbcast/internal/scenario"
	"rcbcast/internal/sim/sink"
)

// testScenario is the quick sweep every service test runs: small
// network, bounded rounds, a budgeted full jammer — trials finish in
// microseconds. name distinguishes job ids (it feeds the sweep
// fingerprint without touching execution).
func testScenario(name string) scenario.Scenario {
	return scenario.Scenario{
		Name:      name,
		N:         64,
		Adversary: scenario.AdversarySpec{Kind: "full"},
		Budget:    scenario.BudgetSpec{Pool: 1024},
		Overrides: scenario.Overrides{ExtraRounds: 6},
	}
}

// referenceNDJSON runs the sweep uninterrupted through the plain
// scenario streaming path — the bytes every service path must
// reproduce exactly.
func referenceNDJSON(t *testing.T, sc scenario.Scenario, trials int, base uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.Stream(context.Background(), 2, base, 0, trials, sink.NewNDJSON(&buf)); err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return buf.Bytes()
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Procs == 0 {
		cfg.Procs = 2
	}
	// Through Config, not m.Logf: re-admitted jobs log from the runners
	// as soon as NewManager starts them.
	cfg.Logf = t.Logf
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitStatus polls a job until cond accepts its status.
func waitStatus(t *testing.T, j *Job, what string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := j.Status()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s; job %s is %s (%d/%d, err=%q)",
				what, st.ID, st.State, st.Done, st.Trials, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func stateIs(s State) func(Status) bool {
	return func(st Status) bool { return st.State == s }
}

// submitBody builds the POST /v1/jobs body for a scenario.
func submitBody(t *testing.T, sc scenario.Scenario, trials int) []byte {
	t.Helper()
	raw, err := scenario.Encode(sc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Scenario: raw, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postJob submits over HTTP and decodes the Status reply.
func postJob(t *testing.T, ts *httptest.Server, client string, body []byte) (int, Status) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestSubmitRunsToDoneByteIdentical(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	sc := testScenario("byte-identity")
	const trials = 40
	code, st := postJob(t, ts, "alice", submitBody(t, sc, trials))
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	if st.ID == "" || st.Version == "" {
		t.Fatalf("submit reply missing id or version: %+v", st)
	}

	j, ok := m.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in manager", st.ID)
	}
	final := waitStatus(t, j, "done", stateIs(StateDone))
	if final.Done != trials {
		t.Fatalf("done = %d, want %d", final.Done, trials)
	}

	code, got := getBody(t, ts, "/v1/jobs/"+st.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: got %d", code)
	}
	want := referenceNDJSON(t, sc, trials, 1)
	if !bytes.Equal(got, want) {
		t.Fatalf("service results differ from the plain sweep:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if lines := bytes.Count(got, []byte("\n")); lines != trials {
		t.Fatalf("results hold %d lines, want %d", lines, trials)
	}
}

func TestSubmitIsIdempotent(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	body := submitBody(t, testScenario("idempotent"), 10)
	code1, st1 := postJob(t, ts, "alice", body)
	code2, st2 := postJob(t, ts, "alice", body)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit: got %d, want 202", code1)
	}
	if code2 != http.StatusOK {
		t.Fatalf("duplicate submit: got %d, want 200", code2)
	}
	if st1.ID != st2.ID {
		t.Fatalf("duplicate submit minted a new job: %s vs %s", st1.ID, st2.ID)
	}

	j, _ := m.Get(st1.ID)
	waitStatus(t, j, "done", stateIs(StateDone))
	if code, st := postJob(t, ts, "bob", body); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit after done: got %d/%s, want 200/done", code, st.State)
	}
	if n := m.Metrics().Submitted; n != 1 {
		t.Fatalf("submitted counter = %d, want 1", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want string // substring of the 400 error body
	}{
		{"invalid request json", `{`, "request body"},
		{"unknown request field", `{"scenario": {"n": 64}, "trails": 5}`, "trails"},
		{"missing scenario", `{"trials": 5}`, `"scenario" is required`},
		{"scenario wrong field type", `{"scenario": {"n": "big"}, "trials": 5}`, `field "n"`},
		{"scenario nested wrong type", `{"scenario": {"n": 64, "adversary": {"kind": "full", "p": "high"}}, "trials": 5}`, `field "adversary.p"`},
		{"scenario unknown field", `{"scenario": {"n": 64, "adverse": {}}, "trials": 5}`, "unknown field"},
		{"scenario invalid", `{"scenario": {"n": -3}, "trials": 5}`, "n"},
		{"zero trials", `{"scenario": {"n": 64}}`, "trials must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("got %d (%s), want 400", resp.StatusCode, data)
			}
			var errBody struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &errBody); err != nil {
				t.Fatalf("400 body is not {\"error\": ...} JSON: %s", data)
			}
			if !strings.Contains(errBody.Error, tc.want) {
				t.Fatalf("error %q does not name the problem %q", errBody.Error, tc.want)
			}
		})
	}
	if code, _ := getBody(t, ts, "/v1/jobs/jdeadbeefdeadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown job status: got %d, want 404", code)
	}
}

func TestHealthMetricsAndList(t *testing.T) {
	m := newTestManager(t, Config{Procs: 2})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	code, health := getBody(t, ts, "/healthz")
	if code != http.StatusOK || !bytes.Contains(health, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", code, health)
	}

	_, st := postJob(t, ts, "alice", submitBody(t, testScenario("metrics"), 8))
	j, _ := m.Get(st.ID)
	waitStatus(t, j, "done", stateIs(StateDone))

	code, data := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var met Metrics
	if err := json.Unmarshal(data, &met); err != nil {
		t.Fatal(err)
	}
	if met.Jobs[StateDone] != 1 || met.Submitted != 1 || met.Procs != 2 {
		t.Fatalf("metrics snapshot off: %+v", met)
	}
	if met.LiveResultBound != 8 { // sim.Window(2) = 4·2
		t.Fatalf("live-result bound = %d, want 8", met.LiveResultBound)
	}

	code, data = getBody(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list = %+v, want the one job", list.Jobs)
	}
}

func TestCancelRunningThenResubmitResumes(t *testing.T) {
	const trials = 60
	sc := testScenario("cancel-resume")
	gate := newTrialGate(4) // trials 4.. block until released
	defer setWrapSpecs(gate.wrap)()

	m := newTestManager(t, Config{})
	j, accepted, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: trials, BaseSeed: 1})
	if err != nil || !accepted {
		t.Fatalf("submit: accepted=%v err=%v", accepted, err)
	}
	// Wait until the free prefix is delivered and a trial is parked at
	// the gate: the job is genuinely mid-run.
	waitStatus(t, j, "prefix", func(st Status) bool { return st.Done >= 1 })
	gate.waitParked(t)

	if err := m.Cancel(j.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	gate.release()
	st := waitStatus(t, j, "canceled", stateIs(StateCanceled))
	if st.Done >= trials {
		t.Fatalf("cancel landed after the sweep finished (done=%d); gate did not hold", st.Done)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatalf("cancel is not idempotent on a canceled job: %v", err)
	}

	// Resubmit: same spec, same id — resumes from the journal and the
	// final bytes match an uninterrupted run exactly.
	j2, accepted, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: trials, BaseSeed: 1})
	if err != nil || !accepted {
		t.Fatalf("resubmit: accepted=%v err=%v", accepted, err)
	}
	if j2 != j {
		t.Fatalf("resubmit minted a distinct job")
	}
	final := waitStatus(t, j2, "done", stateIs(StateDone))
	if final.Done != trials {
		t.Fatalf("resumed job done = %d, want %d", final.Done, trials)
	}
	got := readResults(t, j2)
	if want := referenceNDJSON(t, sc, trials, 1); !bytes.Equal(got, want) {
		t.Fatalf("resumed results differ from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if err := m.Cancel(j2.ID); err == nil {
		t.Fatal("canceling a done job should be an error")
	}
}

func TestResultsStreamFollowsLiveAppends(t *testing.T) {
	const trials = 30
	sc := testScenario("live-follow")
	gate := newTrialGate(6)
	defer setWrapSpecs(gate.wrap)()

	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	_, st := postJob(t, ts, "alice", submitBody(t, sc, trials))
	j, _ := m.Get(st.ID)
	waitStatus(t, j, "prefix", func(s Status) bool { return s.Done >= 1 })

	// Attach mid-job: the subscriber must receive the journaled prefix
	// while the job is still gated, then the rest after release.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := newLineReader(resp.Body)
	first := br.readLines(t, 1) // arrives while trials 6.. are parked
	gate.release()
	rest := br.readAll(t)
	got := append(first, rest...)

	waitStatus(t, j, "done", stateIs(StateDone))
	if want := referenceNDJSON(t, sc, trials, 1); !bytes.Equal(got, want) {
		t.Fatalf("live-followed stream differs from the canonical bytes (%d vs %d)", len(got), len(want))
	}
}

// readResults drains a job's results file directly.
func readResults(t *testing.T, j *Job) []byte {
	t.Helper()
	data, err := os.ReadFile(j.out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// lineReader incrementally consumes an HTTP NDJSON stream.
type lineReader struct{ r io.Reader }

func newLineReader(r io.Reader) *lineReader { return &lineReader{r} }

// readLines reads until n newline bytes have arrived.
func (lr *lineReader) readLines(t *testing.T, n int) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 1)
	seen := 0
	for seen < n {
		k, err := lr.r.Read(buf)
		if k > 0 {
			out = append(out, buf[0])
			if buf[0] == '\n' {
				seen++
			}
		}
		if err != nil {
			t.Fatalf("stream ended after %d/%d lines: %v", seen, n, err)
		}
	}
	return out
}

func (lr *lineReader) readAll(t *testing.T) []byte {
	t.Helper()
	data, err := io.ReadAll(lr.r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
