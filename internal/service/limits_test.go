package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rcbcast/internal/engine"
	"rcbcast/internal/sim"
)

// TestConcurrencyLimits drives the service with 9 distinct clients — 8
// of them concurrently — against a gated runner pool and pins the two
// admission bounds: the per-client in-flight cap and the shared queue
// bound, with everything beyond them rejected 429.
func TestConcurrencyLimits(t *testing.T) {
	gate := newTrialGate(0) // every trial parks: jobs stay running/queued
	defer setWrapSpecs(gate.wrap)()
	defer gate.release()

	const (
		runners    = 2
		queueDepth = 4
		perClient  = 2
		trials     = 6
	)
	m := newTestManager(t, Config{Runners: runners, QueueDepth: queueDepth, PerClient: perClient})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	// Serial phase: one client walks into its own cap.
	submit := func(client, name string) (int, Status) {
		return postJob(t, ts, client, submitBody(t, testScenario(name), trials))
	}
	if code, _ := submit("c0", "c0-job0"); code != http.StatusAccepted {
		t.Fatalf("c0 first submit: %d, want 202", code)
	}
	if code, _ := submit("c0", "c0-job1"); code != http.StatusAccepted {
		t.Fatalf("c0 second submit: %d, want 202", code)
	}
	code, body := postRaw(t, ts, "c0", submitBody(t, testScenario("c0-job2"), trials))
	if code != http.StatusTooManyRequests {
		t.Fatalf("c0 over-cap submit: %d, want 429", code)
	}
	if !jsonErrorContains(t, body, "too many jobs in flight") {
		t.Fatalf("over-cap body %s does not name the per-client cap", body)
	}

	// Wait until both runners hold a job, so the queue is empty and the
	// concurrent phase sees a deterministic admission capacity.
	waitMetrics(t, m, "both runners busy", func(met Metrics) bool {
		return met.Jobs[StateRunning] == runners && met.QueueLen == 0
	})

	// Concurrent phase: 8 more clients, one job each, racing for the 4
	// queue slots (no runner frees up — every running trial is parked).
	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
		rejected atomic.Int64
	)
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", i)
			code, body := postRaw(t, ts, client, submitBody(t, testScenario(client+"-job"), trials))
			switch code {
			case http.StatusAccepted:
				accepted.Add(1)
			case http.StatusTooManyRequests:
				if jsonErrorContains(t, body, "queue is full") {
					rejected.Add(1)
				} else {
					t.Errorf("%s rejection body %s does not name the queue", client, body)
				}
			default:
				t.Errorf("%s: unexpected status %d: %s", client, code, body)
			}
		}(i)
	}
	wg.Wait()
	if accepted.Load() != queueDepth || rejected.Load() != 8-queueDepth {
		t.Fatalf("concurrent phase admitted %d / rejected %d, want %d / %d",
			accepted.Load(), rejected.Load(), queueDepth, 8-queueDepth)
	}
	met := m.Metrics()
	if met.Rejected < int64(1+8-queueDepth) {
		t.Fatalf("rejected counter = %d, want >= %d", met.Rejected, 1+8-queueDepth)
	}
	for client, n := range met.ClientsInFlight {
		if n > perClient {
			t.Fatalf("client %s holds %d slots, cap is %d", client, n, perClient)
		}
	}

	// Unblock everything and let the admitted jobs drain to done.
	gate.release()
	waitMetrics(t, m, "admitted jobs drained", func(met Metrics) bool {
		return met.Jobs[StateDone] == int(2+accepted.Load()) && met.Jobs[StateRunning] == 0
	})
}

// TestLiveResultBoundHolds measures, from inside the worker pool, the
// maximum number of started-but-undelivered trials a running job holds
// and checks it never exceeds the streaming session's published bound
// sim.Window(procs) = 4·procs. Scenario.Batch is deprecated and ignored;
// the batch8 case checks a job that still carries it keeps the bound.
func TestLiveResultBoundHolds(t *testing.T) {
	const procs = 2
	const trials = 64

	for _, batch := range []int{0, 8} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			var inflight, peak atomic.Int64
			wrap := func(_ *Job, specs []sim.TrialSpec) []sim.TrialSpec {
				out := append([]sim.TrialSpec(nil), specs...)
				for i := range out {
					inner := out[i].Configure
					out[i].Configure = func(o *engine.Options) {
						cur := inflight.Add(1)
						for {
							p := peak.Load()
							if cur <= p || peak.CompareAndSwap(p, cur) {
								break
							}
						}
						if inner != nil {
							inner(o)
						}
					}
				}
				return out
			}
			sinks := func(j *Job) []sim.Sink {
				base := int(j.execBase.Load())
				return []sim.Sink{sinkFunc(func(i int) {
					if i >= base {
						inflight.Add(-1)
					}
				})}
			}
			defer setWrapSpecs(wrap)()
			defer setExtraSinks(sinks)()

			m := newTestManager(t, Config{Procs: procs})
			sc := testScenario("live-bound")
			sc.Batch = batch
			j, _, err := m.Submit("alice", sc, trials, 1)
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, j, "done", stateIs(StateDone))

			bound := sim.Window(procs)
			if got := int(peak.Load()); got == 0 || got > bound {
				t.Fatalf("peak live results = %d, want within (0, %d]", got, bound)
			}
			if m.Metrics().LiveResultBound != bound {
				t.Fatalf("metrics live-result bound = %d, want %d", m.Metrics().LiveResultBound, bound)
			}
		})
	}
}

// sinkFunc adapts a delivery callback to sim.Sink.
type sinkFunc func(i int)

func (f sinkFunc) Trial(i int, _ *engine.Result) error { f(i); return nil }
func (f sinkFunc) Flush() error                        { return nil }

// postRaw submits and returns the raw body (for asserting error JSON).
func postRaw(t *testing.T, ts *httptest.Server, client string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := ts.Client().Do(req)
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

func jsonErrorContains(t *testing.T, body []byte, want string) bool {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %s", body)
	}
	return strings.Contains(e.Error, want)
}

func waitMetrics(t *testing.T, m *Manager, what string, cond func(Metrics) bool) {
	t.Helper()
	waitFor(t, what, func() bool { return cond(m.Metrics()) })
}
