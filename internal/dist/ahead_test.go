package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcbcast/internal/scenario"
)

// aheadWait bounds every wait in the submit-ahead tests. The tests
// check ordering, not speed: a wait that runs out means the event it
// waited for never came.
const aheadWait = 10 * time.Second

// fakeWorker is a scripted worker service. It answers submits with a
// job id naming the shard, serves each shard's slice of a reference
// sweep on attach, and records every submit in arrival order. Hooks
// script the faults and the orderings a test needs.
type fakeWorker struct {
	*httptest.Server
	ref [][]byte // the reference sweep's lines, one per trial

	// submit, when set, may answer a POST itself (returning true).
	submit func(w http.ResponseWriter, sh scenario.Shard) bool
	// results, when set, runs first on every attach; it may serve the
	// request itself (returning true).
	results func(w http.ResponseWriter, r *http.Request, sh scenario.Shard) bool
	// readyz is the readiness probe's status code (0 answers 200).
	readyz atomic.Int32

	mu    sync.Mutex
	posts []scenario.Shard
	watch chan struct{} // closed and replaced on every submit
}

func newFakeWorker(t *testing.T, ref []byte) *fakeWorker {
	f := &fakeWorker{ref: bytes.SplitAfter(ref, []byte("\n")), watch: make(chan struct{})}
	f.ref = f.ref[:len(f.ref)-1] // SplitAfter leaves an empty tail
	f.Server = httptest.NewServer(http.HandlerFunc(f.serve))
	t.Cleanup(f.Close)
	return f
}

func (f *fakeWorker) serve(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/readyz":
		code := int(f.readyz.Load())
		if code == 0 {
			code = http.StatusOK
		}
		w.WriteHeader(code)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		var body submitBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.posts = append(f.posts, body.Shard)
		close(f.watch)
		f.watch = make(chan struct{})
		f.mu.Unlock()
		if f.submit != nil && f.submit(w, body.Shard) {
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"s%d-%d"}`, body.Shard.Lo, body.Shard.Hi)
	case strings.HasSuffix(r.URL.Path, "/results"):
		var sh scenario.Shard
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/results")
		if _, err := fmt.Sscanf(id, "s%d-%d", &sh.Lo, &sh.Hi); err != nil {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		if f.results != nil && f.results(w, r, sh) {
			return
		}
		f.serveLines(w, sh, sh.Len())
	default:
		http.Error(w, "unexpected request", http.StatusTeapot)
	}
}

// serveLines answers an attach with the first n of the shard's lines.
func (f *fakeWorker) serveLines(w http.ResponseWriter, sh scenario.Shard, n int) {
	w.WriteHeader(http.StatusOK)
	for _, line := range f.ref[sh.Lo : sh.Lo+n] {
		w.Write(line)
	}
}

// submits snapshots the shards submitted so far, in arrival order.
func (f *fakeWorker) submits() []scenario.Shard {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]scenario.Shard(nil), f.posts...)
}

// count reports how often the shard starting at lo was submitted.
func (f *fakeWorker) count(lo int) int {
	n := 0
	for _, sh := range f.submits() {
		if sh.Lo == lo {
			n++
		}
	}
	return n
}

// waitSubmit blocks until the shard starting at lo has been submitted
// at least n times, and reports whether it was before aheadWait ran out.
func (f *fakeWorker) waitSubmit(lo, n int) bool {
	return f.waitSubmits(func() bool { return f.count(lo) >= n })
}

// waitSubmits blocks until cond holds, rechecking it on every submit,
// and reports whether it held before aheadWait ran out.
func (f *fakeWorker) waitSubmits(cond func() bool) bool {
	deadline := time.After(aheadWait)
	for {
		f.mu.Lock()
		watch := f.watch
		f.mu.Unlock()
		if cond() {
			return true
		}
		select {
		case <-watch:
		case <-deadline:
			return false
		}
	}
}

// runSweep runs the coordinator to completion, bounded by aheadWait.
func runSweep(t *testing.T, c *Coordinator, sc scenario.Scenario, trials int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*aheadWait)
	defer cancel()
	var got bytes.Buffer
	if _, err := c.Run(ctx, sc, trials, 1, &got); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return got.Bytes()
}

// attempts reports every shard's charged attempts after a run.
func attempts(c *Coordinator) []int {
	out := make([]int, len(c.run.shards))
	for i, st := range c.run.shards {
		st.mu.Lock()
		out[i] = st.attempts
		st.mu.Unlock()
	}
	return out
}

// TestRetryAheadSubmitPrecedesFollow: a slot submits shard k+1 before
// it follows shard k. The fake worker holds each shard's feed until the
// next shard's submit arrives, so a coordinator that followed first
// would never see shard k end. The last shard is the exception: with
// one shard left for one slot, nothing runs ahead (tryClaim), so its
// predecessor's feed is not held.
func TestRetryAheadSubmitPrecedesFollow(t *testing.T) {
	sc := testScenario("dist-ahead-order")
	const trials, size = 24, 4
	want := referenceNDJSON(t, sc, trials, 1)
	w := newFakeWorker(t, want)
	w.results = func(rw http.ResponseWriter, r *http.Request, sh scenario.Shard) bool {
		if sh.Hi+size < trials && !w.waitSubmit(sh.Hi, 1) {
			t.Errorf("shard %s: feed held %v and the next shard was never submitted", sh, aheadWait)
		}
		return false
	}
	c, err := New(Config{Workers: []string{w.URL}, ShardSize: size, WindowShards: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := runSweep(t, c, sc, trials); !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	if n := len(w.submits()); n != trials/size {
		t.Fatalf("%d submits for %d shards: a followed ahead shard was submitted again", n, trials/size)
	}
	if r := c.Metrics().Retries; r != 0 {
		t.Fatalf("retries = %d, want 0", r)
	}
}

// TestRetryAheadFailedFollowRequeuesUncharged: shard 0's stream is cut
// while the slot holds shard 1 ahead. Shard 0 is charged one attempt;
// shard 1 goes back to the queue uncharged and is submitted again, and
// the merged bytes still equal scenario.Stream.
func TestRetryAheadFailedFollowRequeuesUncharged(t *testing.T) {
	sc := testScenario("dist-ahead-cut")
	const trials, size = 12, 4
	want := referenceNDJSON(t, sc, trials, 1)
	w := newFakeWorker(t, want)
	var cut atomic.Bool
	w.results = func(rw http.ResponseWriter, r *http.Request, sh scenario.Shard) bool {
		if sh.Lo != 0 || cut.Swap(true) {
			return false
		}
		if !w.waitSubmit(size, 1) {
			t.Errorf("shard 1 was never submitted ahead of shard 0's feed")
		}
		w.serveLines(rw, sh, 2) // the stream ends mid-shard
		return true
	}
	c, err := New(Config{Workers: []string{w.URL}, ShardSize: size, WindowShards: 64,
		Backoff: time.Millisecond, BackoffCap: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := runSweep(t, c, sc, trials); !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	if r := c.Metrics().Retries; r != 1 {
		t.Fatalf("retries = %d, want 1 (the cut stream only)", r)
	}
	if a := attempts(c); a[0] != 1 || a[1] != 0 || a[2] != 0 {
		t.Fatalf("charged attempts per shard = %v, want [1 0 0]", a)
	}
	if n := w.count(size); n != 2 {
		t.Fatalf("shard 1 submitted %d times, want 2 (ahead, then again after it was put back)", n)
	}
}

// TestRetryAheadSubmitRejectedUncharged: a 429 on the ahead submit puts
// the shard back with no attempt charged, no retry counted and no
// backoff — the backoff here is an hour, so one would stall the run
// past its deadline.
func TestRetryAheadSubmitRejectedUncharged(t *testing.T) {
	sc := testScenario("dist-ahead-429")
	const trials, size = 12, 4
	want := referenceNDJSON(t, sc, trials, 1)
	w := newFakeWorker(t, want)
	var rejected atomic.Bool
	w.submit = func(rw http.ResponseWriter, sh scenario.Shard) bool {
		if sh.Lo != size || rejected.Swap(true) {
			return false
		}
		http.Error(rw, `{"error":"client has too many jobs in flight"}`, http.StatusTooManyRequests)
		return true
	}
	c, err := New(Config{Workers: []string{w.URL}, ShardSize: size, WindowShards: 64,
		Backoff: time.Hour, BackoffCap: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := runSweep(t, c, sc, trials); !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	if r := c.Metrics().Retries; r != 0 {
		t.Fatalf("retries = %d, want 0: a rejected ahead submit never ran", r)
	}
	if a := attempts(c); a[0]+a[1]+a[2] != 0 {
		t.Fatalf("charged attempts per shard = %v, want none", a)
	}
	if n := w.count(size); n != 2 {
		t.Fatalf("shard 1 submitted %d times, want 2 (rejected ahead, then run)", n)
	}
}

// TestProbeAheadDeathRebalancesBoth: the only worker dies while its
// slot follows shard 0 and holds shard 1 ahead. Probes declare it dead;
// both shards go back uncharged (MaxAttempts 1 fails the sweep on any
// charge) and a worker that joins runs them.
func TestProbeAheadDeathRebalancesBoth(t *testing.T) {
	sc := testScenario("dist-ahead-death")
	const trials, size = 16, 4
	want := referenceNDJSON(t, sc, trials, 1)
	victim := newFakeWorker(t, want)
	survivor := newFakeWorker(t, want)
	held := make(chan struct{})
	victim.results = func(rw http.ResponseWriter, r *http.Request, sh scenario.Shard) bool {
		if !victim.waitSubmit(size, 1) {
			t.Errorf("shard 1 was never submitted ahead of shard 0's feed")
		}
		close(held)
		<-r.Context().Done() // the feed never ends: only death ends it
		return true
	}
	cfg := fastProbes(Config{Workers: []string{victim.URL}, ShardSize: size, WindowShards: 64,
		MaxAttempts: 1, StallTimeout: time.Hour, Logf: t.Logf})
	cfg.LivenessDeadline = 500 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	go func() { done <- runSweep(t, c, sc, trials) }()

	select {
	case <-held:
	case <-time.After(aheadWait):
		t.Fatal("the victim's feed was never attached")
	}
	m := c.Metrics()
	if m.PerWorkerInFlight[victim.URL] != 2 || m.Shards[phaseAssigned] != 2 {
		t.Fatalf("with a shard ahead: in flight %v, phases %v; want 2 on the victim, 2 assigned", m.PerWorkerInFlight, m.Shards)
	}
	victim.readyz.Store(http.StatusBadGateway)
	if _, err := c.Join(survivor.URL); err != nil {
		t.Fatal(err)
	}

	if got := <-done; !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	m = c.Metrics()
	if m.Members[victim.URL] != StateDead {
		t.Fatalf("victim is %q, want dead", m.Members[victim.URL])
	}
	if m.Retries != 0 || m.PerWorkerInFlight[victim.URL] != 0 {
		t.Fatalf("retries %d, victim in flight %d; want 0 and 0", m.Retries, m.PerWorkerInFlight[victim.URL])
	}
	if got := victim.submits(); len(got) != 2 || got[0].Lo != 0 || got[1].Lo != size {
		t.Fatalf("victim got submits %v, want shards 0 and 1", got)
	}
	if survivor.count(0) != 1 || survivor.count(size) != 1 {
		t.Fatalf("survivor got submits %v, want both of the victim's shards", survivor.submits())
	}
}

// TestDrainAheadSubmitsNothing: a member that turns draining while its
// slot follows shard 0 with shard 1 ahead gets no further submit. The
// slot puts shard 1 back before it parks, and a worker that joins runs
// the rest of the sweep.
func TestDrainAheadSubmitsNothing(t *testing.T) {
	sc := testScenario("dist-ahead-drain")
	const trials, size = 16, 4
	want := referenceNDJSON(t, sc, trials, 1)
	w := newFakeWorker(t, want)
	helper := newFakeWorker(t, want)
	var c *Coordinator
	var draining atomic.Bool
	var lateSubmits atomic.Int64
	w.submit = func(http.ResponseWriter, scenario.Shard) bool {
		if draining.Load() {
			lateSubmits.Add(1)
		}
		return false
	}
	drained := make(chan struct{})
	w.results = func(rw http.ResponseWriter, r *http.Request, sh scenario.Shard) bool {
		if sh.Lo != 0 {
			return false
		}
		if !w.waitSubmit(size, 1) {
			t.Errorf("shard 1 was never submitted ahead of shard 0's feed")
		}
		draining.Store(true)
		w.readyz.Store(http.StatusServiceUnavailable)
		deadline := time.Now().Add(aheadWait)
		for c.Members()[w.URL] != StateDraining {
			if time.Now().After(deadline) {
				t.Errorf("the prober never saw the worker draining")
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(drained)
		return false // shard 0 still completes: a draining worker finishes what it runs
	}
	cfg := fastProbes(Config{Workers: []string{w.URL}, ShardSize: size, WindowShards: 64, Logf: t.Logf})
	cfg.LivenessDeadline = time.Hour // a draining worker is alive: nothing here may die
	var err error
	if c, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	go func() { done <- runSweep(t, c, sc, trials) }()
	select {
	case <-drained:
	case <-time.After(aheadWait):
		t.Fatal("shard 0's feed was never attached")
	}
	if _, err := c.Join(helper.URL); err != nil {
		t.Fatal(err)
	}

	if got := <-done; !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	if n := lateSubmits.Load(); n != 0 {
		t.Fatalf("the draining worker got %d submits", n)
	}
	if got := w.submits(); len(got) != 2 {
		t.Fatalf("worker got submits %v, want shards 0 and 1 only", got)
	}
	if helper.count(size) != 1 {
		t.Fatalf("helper got submits %v, want the put-back shard 1 among them", helper.submits())
	}
	if m := c.Metrics(); m.Retries != 0 || m.PerWorkerInFlight[w.URL] != 0 {
		t.Fatalf("retries %d, drained worker in flight %d; want 0 and 0", m.Retries, m.PerWorkerInFlight[w.URL])
	}
}

// TestRetryAheadSmallSweepSpreads: two workers, two shards — each
// worker runs one. Each fake worker holds its feed until the other
// worker has a submit, so one slot taking both shards fails the test.
func TestRetryAheadSmallSweepSpreads(t *testing.T) {
	sc := testScenario("dist-ahead-spread")
	const trials, size = 8, 4
	want := referenceNDJSON(t, sc, trials, 1)
	a, b := newFakeWorker(t, want), newFakeWorker(t, want)
	hold := func(self, other *fakeWorker) {
		self.results = func(rw http.ResponseWriter, r *http.Request, sh scenario.Shard) bool {
			if !other.waitSubmits(func() bool { return len(other.submits()) > 0 }) {
				t.Errorf("%s held shard %s and the other worker got no shard", self.URL, sh)
			}
			return false
		}
	}
	hold(a, b)
	hold(b, a)
	c, err := New(Config{Workers: []string{a.URL, b.URL}, ShardSize: size, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := runSweep(t, c, sc, trials); !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	if na, nb := len(a.submits()), len(b.submits()); na != 1 || nb != 1 {
		t.Fatalf("submits per worker %d and %d, want one each", na, nb)
	}
}

// TestSchedulerTryClaimYieldsToWaiters: tryClaim takes nothing while a
// registered slot is fresh, then the lowest pending shard inside the
// window, but never one a slot blocked in claim is waiting for.
func TestSchedulerTryClaimYieldsToWaiters(t *testing.T) {
	ctx := context.Background()
	s := newSched(4, 3, 0)
	s.expect(1)
	if idx, ok := s.tryClaim(); ok {
		t.Fatalf("tryClaim took shard %d before the fresh slot claimed", idx)
	}
	if idx, ok, _ := s.claim(ctx, true); !ok || idx != 0 {
		t.Fatalf("first claim = %d,%v, want 0", idx, ok)
	}
	if idx, ok := s.tryClaim(); !ok || idx != 1 {
		t.Fatalf("tryClaim = %d,%v, want 1", idx, ok)
	}
	if idx, ok := s.tryClaim(); ok {
		t.Fatalf("tryClaim took shard %d, the last one claimable for the slot", idx)
	}
	if idx, ok, _ := s.claim(ctx, false); !ok || idx != 2 {
		t.Fatalf("claim = %d,%v, want 2", idx, ok)
	}

	// Shard 3 lies outside the window, so this claim blocks.
	got := make(chan int, 1)
	go func() {
		idx, _, _ := s.claim(ctx, false)
		got <- idx
	}()
	s.requeue(0)
	if idx, ok := s.tryClaim(); ok {
		t.Fatalf("tryClaim took shard %d while a slot's claim waited for it", idx)
	}
	if idx := <-got; idx != 0 {
		t.Fatalf("the waiting claim got shard %d, want 0", idx)
	}
	s.requeue(0)
	s.leave()
	if idx, ok := s.tryClaim(); !ok || idx != 0 {
		t.Fatalf("with no slot left to claim it, tryClaim = %d,%v, want 0", idx, ok)
	}
}

// TestDrainMemberAtStartLeavesAheadOn: a member that is already
// draining when its slot starts parks that slot, and the parked slot
// stops counting as fresh — a ready slot still submits ahead (its feeds
// are held until it does) and the draining worker gets no submit.
func TestDrainMemberAtStartLeavesAheadOn(t *testing.T) {
	sc := testScenario("dist-ahead-drain-start")
	const trials, size = 40, 4
	want := referenceNDJSON(t, sc, trials, 1)
	ready, draining := newFakeWorker(t, want), newFakeWorker(t, want)
	draining.readyz.Store(http.StatusServiceUnavailable)
	var c *Coordinator
	ready.results = func(rw http.ResponseWriter, r *http.Request, sh scenario.Shard) bool {
		if sh.Lo == 0 {
			// Shard 1 may not have gone ahead: the draining slot counts
			// as fresh from its start until it parks. Once it has
			// parked, no slot is fresh.
			c.mu.Lock()
			s := c.run.sched
			c.mu.Unlock()
			for deadline := time.Now().Add(aheadWait); ; time.Sleep(time.Millisecond) {
				s.mu.Lock()
				fresh := s.fresh
				s.mu.Unlock()
				if fresh == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("the parked slot still counts as fresh")
					break
				}
			}
			return false
		}
		// Two slots: a shard runs ahead only while more than two are
		// claimable, so the feeds of the last three shards are not held.
		if sh.Hi+2*size < trials && !ready.waitSubmit(sh.Hi, 1) {
			t.Errorf("shard %s: feed held %v and the next shard was never submitted ahead", sh, aheadWait)
		}
		return false
	}
	cfg := fastProbes(Config{Workers: []string{ready.URL, draining.URL}, ShardSize: size, WindowShards: 64, Logf: t.Logf})
	cfg.LivenessDeadline = time.Hour
	var err error
	if c, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	c.members[draining.URL].setState(StateDraining)
	if got := runSweep(t, c, sc, trials); !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	if got := draining.submits(); len(got) != 0 {
		t.Fatalf("the draining worker got submits %v", got)
	}
	if m := c.Metrics(); m.Retries != 0 || m.Members[draining.URL] != StateDraining {
		t.Fatalf("retries %d, draining worker %q; want 0 and draining", m.Retries, m.Members[draining.URL])
	}
}

// TestRetryAheadSweepEndGoesToFreeSlot: two workers, four shards. With
// no more claimable shards than slots, neither slot submits ahead: the
// slow worker holds its first feed until the fast one has taken every
// other shard, so a slot that bound a shard to the slow worker ahead
// fails the test. Both slots start deterministically: the fast
// worker's first submit waits for the slow worker's, so goroutine start
// order cannot hand the fast slot every shard.
func TestRetryAheadSweepEndGoesToFreeSlot(t *testing.T) {
	sc := testScenario("dist-ahead-tail")
	const trials, size = 16, 4
	want := referenceNDJSON(t, sc, trials, 1)
	slow, fast := newFakeWorker(t, want), newFakeWorker(t, want)
	var started atomic.Bool
	fast.submit = func(http.ResponseWriter, scenario.Shard) bool {
		if !started.Swap(true) && !slow.waitSubmits(func() bool { return len(slow.submits()) == 1 }) {
			t.Error("the slow worker's slot never submitted")
		}
		return false
	}
	var held atomic.Bool
	slow.results = func(rw http.ResponseWriter, r *http.Request, sh scenario.Shard) bool {
		if held.Swap(true) {
			return false
		}
		if !fast.waitSubmits(func() bool { return len(fast.submits()) == trials/size-1 }) {
			t.Errorf("slow worker held shard %s; the fast worker got %v, want every other shard", sh, fast.submits())
		}
		return false
	}
	c, err := New(Config{Workers: []string{slow.URL, fast.URL}, ShardSize: size, WindowShards: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := runSweep(t, c, sc, trials); !bytes.Equal(got, want) {
		t.Fatalf("merged output differs from scenario.Stream (%d vs %d bytes)", len(got), len(want))
	}
	if ns, nf := len(slow.submits()), len(fast.submits()); ns != 1 || nf != trials/size-1 {
		t.Fatalf("submits slow %d, fast %d; want 1 and %d", ns, nf, trials/size-1)
	}
}

// TestSchedulerTryClaimLeavesOnePerSlot: tryClaim takes a shard only
// while more are claimable than there are slots, and a slot's leave
// lowers the bar.
func TestSchedulerTryClaimLeavesOnePerSlot(t *testing.T) {
	ctx := context.Background()
	s := newSched(5, 8, 0)
	s.expect(2)
	for want := 0; want < 2; want++ {
		if idx, ok, _ := s.claim(ctx, true); !ok || idx != want {
			t.Fatalf("claim = %d,%v, want %d", idx, ok, want)
		}
	}
	if idx, ok := s.tryClaim(); !ok || idx != 2 {
		t.Fatalf("with 3 claimable for 2 slots, tryClaim = %d,%v, want 2", idx, ok)
	}
	if idx, ok := s.tryClaim(); ok {
		t.Fatalf("with 2 claimable for 2 slots, tryClaim took shard %d", idx)
	}
	s.leave()
	if idx, ok := s.tryClaim(); !ok || idx != 3 {
		t.Fatalf("with 2 claimable for 1 slot, tryClaim = %d,%v, want 3", idx, ok)
	}
}
