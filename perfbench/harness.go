package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcbcast/internal/dist"
	"rcbcast/internal/scenario"
	"rcbcast/internal/service"
)

// passTimeout bounds one sweep; a healthy pass takes about a second.
const passTimeout = 60 * time.Second

// harness is one in-process deployment: a worker service (Manager and
// Server on a loopback listener, one runner, Procs 1) and the HTTP
// client the coordinator and the ladder's service depth use. The
// listener outlives the worker, so a pass can swap in a fresh worker
// store without changing the URL.
type harness struct {
	in    *inputs
	ref   reference
	root  string // this deployment's private directory
	dirs  int
	hs    *http.Server
	done  chan struct{}
	url   string
	tr    *http.Transport
	tap   *clientTap
	cli   *http.Client
	cur   atomic.Pointer[http.Handler]
	mgr   *service.Manager
	store string
	stap  *serverTap // non-nil while the server side is traced
}

func newHarness(in *inputs, ref reference, root string) (*harness, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{in: in, ref: ref, root: root, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	h.tr = &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	h.tap = &clientTap{base: h.tr}
	h.cli = &http.Client{Transport: h.tap}
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.cur.Load()).ServeHTTP(w, r)
	})}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln)
	}()
	if err := h.freshWorker(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// newDir makes a fresh directory under the deployment's root.
func (h *harness) newDir(kind string) (string, error) {
	h.dirs++
	dir := filepath.Join(h.root, fmt.Sprintf("%s-%d", kind, h.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// freshWorker replaces the worker with one over an empty store.
func (h *harness) freshWorker() error {
	h.closeWorker()
	if h.store != "" {
		os.RemoveAll(h.store)
	}
	dir, err := h.newDir("store")
	if err != nil {
		return err
	}
	m, err := service.NewManager(service.Config{Dir: dir, Procs: 1, Runners: 1})
	if err != nil {
		return err
	}
	h.mgr, h.store = m, dir
	h.route()
	return nil
}

// route points the listener at the current worker, through the server
// tap when the server side is traced.
func (h *harness) route() {
	var handler http.Handler = service.NewServer(h.mgr)
	if h.stap != nil {
		h.stap.next = handler
		handler = h.stap
	}
	h.cur.Store(&handler)
}

// closeWorker drains the worker so every store write has landed.
func (h *harness) closeWorker() {
	if h.mgr == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.mgr.Close(ctx)
	h.mgr = nil
}

func (h *harness) close() {
	h.hs.Close()
	<-h.done
	h.closeWorker()
	h.tr.CloseIdleConnections()
	os.RemoveAll(h.root)
}

// waitReady polls the worker's readiness endpoint until it answers 200.
func (h *harness) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := h.cli.Get(h.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// passResult is one coordinator sweep's measurements.
type passResult struct {
	trials   int
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	peakLive uint64
	disk     int64
	wire     int64
	shards   int
	retries  int64
	peakWin  int
	err      error // non-nil: the merged output was wrong
}

func (p passResult) attempts() int { return p.shards + int(p.retries) }

func (p passResult) failed() int {
	if p.err != nil {
		return p.attempts()
	}
	return int(p.retries)
}

// sweep runs one coordinator over trials of the workload's sweep (one
// slot, frontier journal on, merged output to a file) and measures it
// from Run's entry to its return. The merged output must match ref
// when trials is the full sweep. For a fresh-store workload the worker
// is drained afterwards so its store writes are complete when counted.
// rec, when set, traces the pass under the span root.
func (h *harness) sweep(trials int, rec *recorder, root int) (passResult, error) {
	res := passResult{trials: trials}
	dir, err := h.newDir("pass")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	outPath, journal := filepath.Join(dir, "merged.ndjson"), filepath.Join(dir, "frontier.journal")
	f, err := os.Create(outPath)
	if err != nil {
		return res, err
	}
	defer f.Close()
	var out dist.DurableOutput = f
	var mt *mergeTap
	if rec != nil {
		mt = &mergeTap{File: f, ends: h.ref.shardEnd, passed: make([]time.Time, len(h.ref.shardEnd))}
		out = mt
	}
	sc, err := scenario.Decode(h.in.scenarioJSON)
	if err != nil {
		return res, err
	}
	c, err := dist.New(dist.Config{
		Workers:   []string{h.url},
		ShardSize: h.in.shardSize,
		Journal:   journal,
		Client:    h.cli,
	})
	if err != nil {
		return res, err
	}
	h.tap.arm(rec, root)
	defer h.tap.arm(nil, -1)
	var win *windowSampler
	if rec != nil {
		win = startWindowSampler(c)
	}
	storeBefore := treeBytes(h.store)
	wireBefore := h.tap.feedBytes.Load()
	runtime.GC()

	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	ps := startPeakSampler(10 * time.Millisecond)
	a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
	_, runErr := c.Run(ctx, sc, trials, h.in.baseSeed, out)
	t1, c1, a1 := time.Now(), cpuTime(), heapAllocs()
	res.peakLive = ps.finish()
	if win != nil {
		res.peakWin = win.finish()
	}
	if runErr != nil {
		return res, fmt.Errorf("coordinator run: %w", runErr)
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	res.wall, res.cpu, res.allocs = t1.Sub(t0), c1-c0, a1-a0
	m := c.Metrics()
	res.shards, res.retries = m.TotalShards, m.Retries
	res.wire = h.tap.feedBytes.Load() - wireBefore
	if mt != nil {
		h.tap.mergeLags(mt, rec, h.in.shardSize, trials)
	}
	if !h.in.warm {
		h.closeWorker()
	}
	res.disk = treeBytes(h.store) - storeBefore + fileSize(outPath) + fileSize(journal)
	if trials == h.in.trials {
		d, n, err := digestFile(outPath)
		if err != nil {
			return res, err
		}
		res.err = h.ref.check("merged output", d, n)
	}
	return res, nil
}

// shardID names a shard in spans: its trial range.
func shardID(sh scenario.Shard) string { return fmt.Sprintf("%d-%d", sh.Lo, sh.Hi) }

// submitShard is the shard part of a submit body, as the coordinator
// sends it.
type submitShard struct {
	Shard scenario.Shard `json:"shard"`
}

// clientTap is the coordinator's http.RoundTripper. It always counts
// result-feed body bytes; when armed with a recorder it also opens a
// dist.shard span per shard, from submit start to result-body close.
type clientTap struct {
	base      http.RoundTripper
	feedBytes atomic.Int64

	mu       sync.Mutex
	rec      *recorder
	root     int
	jobShard map[string]string    // job id → shard id
	closedAt map[string]time.Time // shard id → last result-body close
}

func (t *clientTap) arm(rec *recorder, root int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec, t.root = rec, root
	t.jobShard, t.closedAt = map[string]string{}, map[string]time.Time{}
}

func (t *clientTap) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	rec, root := t.rec, t.root
	t.mu.Unlock()
	if rec != nil && req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" {
		return t.submit(req, rec, root)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/results") {
		return resp, err
	}
	job := strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/v1/jobs/"), "/results")
	t.mu.Lock()
	shard := t.jobShard[job]
	t.mu.Unlock()
	resp.Body = &tapBody{ReadCloser: resp.Body, t: t, shard: shard}
	return resp, nil
}

// submit forwards a traced submission, opening the shard's span and
// learning its job id from the response.
func (t *clientTap) submit(req *http.Request, rec *recorder, root int) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	var sub submitShard
	json.Unmarshal(body, &sub)
	id := shardID(sub.Shard)
	if rec.openSpan(id) < 0 { // a retry continues the shard's span
		rec.begin("dist.shard", id, root)
	}
	req = req.Clone(req.Context())
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var st struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(data, &st) == nil && st.ID != "" {
		t.mu.Lock()
		t.jobShard[st.ID] = id
		t.mu.Unlock()
	}
	return resp, nil
}

// bodyClosed ends the shard's span at the moment the coordinator
// closes its result stream.
func (t *clientTap) bodyClosed(shard string) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rec == nil || shard == "" {
		return
	}
	t.closedAt[shard] = now
	t.rec.end(t.rec.openSpan(shard))
}

// mergeLags records, per shard, the time from its result-body close to
// the merged output passing its end offset.
func (t *clientTap) mergeLags(mt *mergeTap, rec *recorder, shardSize, trials int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, passed := range mt.passed {
		id := shardID(scenario.Shard{Lo: k * shardSize, Hi: min((k+1)*shardSize, trials)})
		if closed, ok := t.closedAt[id]; ok && !passed.IsZero() {
			rec.add("dist.merge_lag", id, t.root, closed, passed)
		}
	}
}

type tapBody struct {
	io.ReadCloser
	t      *clientTap
	shard  string
	closed bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.feedBytes.Add(int64(n))
	return n, err
}

func (b *tapBody) Close() error {
	if !b.closed {
		b.closed = true
		b.t.bodyClosed(b.shard)
	}
	return b.ReadCloser.Close()
}

// mergeTap is the merged-output file, noting when the written prefix
// first covers each shard's end offset.
type mergeTap struct {
	*os.File
	ends   []int64
	passed []time.Time
	n      int64
	next   int
}

func (m *mergeTap) Write(p []byte) (int, error) {
	n, err := m.File.Write(p)
	m.n += int64(n)
	now := time.Now()
	for m.next < len(m.ends) && m.ends[m.next] <= m.n {
		m.passed[m.next] = now
		m.next++
	}
	return n, err
}

// windowSampler polls the coordinator's metrics for the reorder
// window's peak occupancy.
type windowSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int
}

func startWindowSampler(c *dist.Coordinator) *windowSampler {
	w := &windowSampler{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if n := c.Metrics().WindowBufferedLines; n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *windowSampler) finish() int {
	close(w.stop)
	w.wg.Wait()
	return w.peak
}

// serverTap is http.Handler middleware around service.NewServer that
// records the server side of each shard: submit handling and the result
// feed (time to first byte, bytes, duration). Each submit's status
// tells a newly computed job (202) from a store hit (200).
type serverTap struct {
	next     http.Handler
	rec      *recorder
	feedB    atomic.Int64
	feedNs   atomic.Int64
	mu       sync.Mutex
	jobShard map[string]string
	submits  []submitStatus
	ttfb     []float64 // ns
}

type submitStatus struct {
	shard string
	code  int
}

func newServerTap(rec *recorder) *serverTap {
	return &serverTap{rec: rec, jobShard: map[string]string{}}
}

func (s *serverTap) statuses() []submitStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.submits)
}

// counts returns how many submits computed a job and how many hit the
// store.
func (s *serverTap) counts() (computed, hits int) {
	for _, st := range s.statuses() {
		switch st.code {
		case http.StatusAccepted:
			computed++
		case http.StatusOK:
			hits++
		}
	}
	return computed, hits
}

func (s *serverTap) ttfbSamples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.ttfb)
}

func (s *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var sub submitShard
		json.Unmarshal(body, &sub)
		id := shardID(sub.Shard)
		r.Body = io.NopCloser(bytes.NewReader(body))
		tw := &tapWriter{ResponseWriter: w, capture: &bytes.Buffer{}}
		parent, start := s.rec.openSpan(id), time.Now()
		s.next.ServeHTTP(tw, r)
		s.rec.add("service.submit", id, parent, start, time.Now())
		var st struct {
			ID string `json:"id"`
		}
		json.Unmarshal(tw.capture.Bytes(), &st)
		s.mu.Lock()
		s.submits = append(s.submits, submitStatus{shard: id, code: tw.status})
		if st.ID != "" {
			s.jobShard[st.ID] = id
		}
		s.mu.Unlock()
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results"):
		job := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/results")
		s.mu.Lock()
		id := s.jobShard[job]
		s.mu.Unlock()
		tw := &tapWriter{ResponseWriter: w}
		parent, start := s.rec.openSpan(id), time.Now()
		s.next.ServeHTTP(tw, r)
		end := time.Now()
		s.rec.add("service.feed", id, parent, start, end)
		s.feedB.Add(tw.n)
		s.feedNs.Add(end.Sub(start).Nanoseconds())
		if !tw.first.IsZero() {
			s.mu.Lock()
			s.ttfb = append(s.ttfb, float64(tw.first.Sub(start).Nanoseconds()))
			s.mu.Unlock()
		}
	default:
		s.next.ServeHTTP(w, r)
	}
}

// tapWriter notes a response's status, first body byte and size, and
// optionally keeps a copy of the body.
type tapWriter struct {
	http.ResponseWriter
	status  int
	first   time.Time
	n       int64
	capture *bytes.Buffer
}

func (w *tapWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.first.IsZero() && len(p) > 0 {
		w.first = time.Now()
	}
	w.n += int64(len(p))
	if w.capture != nil {
		w.capture.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the real writer's Flush.
func (w *tapWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
