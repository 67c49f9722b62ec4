package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rcbcast/internal/scenario"
)

// submitShardBody builds a POST /v1/jobs body carrying a shard range.
func submitShardBody(t *testing.T, sc scenario.Scenario, trials int, sh scenario.Shard) []byte {
	t.Helper()
	raw, err := scenario.Encode(sc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Scenario: raw, Trials: trials, Shard: &sh})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestShardJobIsByteSliceOfWholeSweep pins the identity the distributed
// coordinator depends on: a shard job's results are exactly lines
// [lo,hi) of the whole-sweep NDJSON, global trial indices included.
func TestShardJobIsByteSliceOfWholeSweep(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	sc := testScenario("shard-slice")
	const trials = 30
	want := bytes.SplitAfter(referenceNDJSON(t, sc, trials, 1), []byte("\n"))

	for _, sh := range []scenario.Shard{{Lo: 0, Hi: 9}, {Lo: 9, Hi: 21}, {Lo: 21, Hi: 30}} {
		code, st := postJob(t, ts, "alice", submitShardBody(t, sc, trials, sh))
		if code != http.StatusAccepted {
			t.Fatalf("submit shard %s: got %d, want 202", sh, code)
		}
		if st.Shard != sh {
			t.Fatalf("submit reply shard = %s, want %s", st.Shard, sh)
		}
		j, ok := m.Get(st.ID)
		if !ok {
			t.Fatalf("job %s not in manager", st.ID)
		}
		final := waitStatus(t, j, "shard done", stateIs(StateDone))
		if final.Done != sh.Len() {
			t.Fatalf("shard %s done = %d, want its own length %d", sh, final.Done, sh.Len())
		}

		code, got := getBody(t, ts, "/v1/jobs/"+st.ID+"/results")
		if code != http.StatusOK {
			t.Fatalf("results: got %d", code)
		}
		if expect := bytes.Join(want[sh.Lo:sh.Hi], nil); !bytes.Equal(got, expect) {
			t.Fatalf("shard %s results differ from reference slice (%d vs %d bytes)",
				sh, len(got), len(expect))
		}
	}
}

// TestShardJobIDsDistinct: the shard range is part of the job identity,
// so different ranges of the same sweep coexist on one worker, and a
// shard never collides with the whole-sweep job.
func TestShardJobIDsDistinct(t *testing.T) {
	m := newTestManager(t, Config{})

	sc := testScenario("shard-ids")
	whole, _, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: 20, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: 20, BaseSeed: 1, Shard: scenario.Shard{Lo: 0, Hi: 10}})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: 20, BaseSeed: 1, Shard: scenario.Shard{Lo: 10, Hi: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if whole.ID == a.ID || whole.ID == b.ID || a.ID == b.ID {
		t.Fatalf("job ids collide: whole=%s a=%s b=%s", whole.ID, a.ID, b.ID)
	}

	// Resubmitting the same shard is idempotent, like whole-sweep jobs.
	a2, _, err := m.Submit("alice", scenario.Sweep{Scenario: sc, Trials: 20, BaseSeed: 1, Shard: scenario.Shard{Lo: 0, Hi: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if a2.ID != a.ID {
		t.Fatalf("same shard resubmit minted a new job: %s vs %s", a2.ID, a.ID)
	}
}

// TestShardSubmitValidation: malformed ranges are rejected at the HTTP
// boundary with a 400, before a job exists.
func TestShardSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	sc := testScenario("shard-validate")
	for _, tc := range []struct {
		sh   scenario.Shard
		want string
	}{
		{scenario.Shard{Lo: -1, Hi: 5}, "shard"},
		{scenario.Shard{Lo: 5, Hi: 5}, "shard"},
		{scenario.Shard{Lo: 0, Hi: 11}, "shard"},
	} {
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs",
			bytes.NewReader(submitShardBody(t, sc, 10, tc.sh)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 512)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("shard %s: got %d, want 400", tc.sh, resp.StatusCode)
		}
		if !strings.Contains(string(body[:n]), tc.want) {
			t.Fatalf("shard %s error %q lacks %q", tc.sh, body[:n], tc.want)
		}
	}
	if n := m.Metrics().Submitted; n != 0 {
		t.Fatalf("rejected shards counted as submissions: %d", n)
	}
}

// TestSubmitRejectsEachInvalidField: one POST /v1/jobs per invalid
// sweep field — the rows of scenario's TestSweepValidate — answers 400
// with exactly scenario.Sweep.Validate's message as the error body, and
// admits nothing.
func TestSubmitRejectsEachInvalidField(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	valid := scenario.Sweep{Scenario: testScenario("invalid-field"), Trials: 100, BaseSeed: 1, Shard: scenario.Shard{Lo: 10, Hi: 50}}
	for _, tc := range []struct {
		name   string
		change func(*scenario.Sweep)
	}{
		{"zero trials", func(sw *scenario.Sweep) { sw.Trials, sw.Shard = 0, scenario.Shard{} }},
		{"negative trials", func(sw *scenario.Sweep) { sw.Trials = -3 }},
		{"shard lo below 0", func(sw *scenario.Sweep) { sw.Shard.Lo = -1 }},
		{"empty shard", func(sw *scenario.Sweep) { sw.Shard.Hi = sw.Shard.Lo }},
		{"shard past trials", func(sw *scenario.Sweep) { sw.Shard.Hi = sw.Trials + 1 }},
		{"invalid scenario", func(sw *scenario.Sweep) { sw.Scenario.N = 0 }},
	} {
		sw := valid
		tc.change(&sw)
		want := sw.Validate()
		if want == nil {
			t.Fatalf("%s: the sweep is valid", tc.name)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
			bytes.NewReader(submitShardBody(t, sw.Scenario, sw.Trials, sw.Shard)))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || body.Error != want.Error() {
			t.Errorf("%s: %d %q (%v), want 400 %q", tc.name, resp.StatusCode, body.Error, err, want)
		}
	}
	if n := m.Metrics().Submitted; n != 0 {
		t.Fatalf("rejected sweeps counted as submissions: %d", n)
	}
}
