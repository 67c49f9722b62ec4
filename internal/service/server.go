package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"

	"rcbcast/internal/scenario"
)

// Server is the HTTP face of a Manager. Routes (Go 1.22 method
// patterns):
//
//	POST /v1/jobs              submit a sweep (202 accepted, 200 dedupe,
//	                           400 invalid, 429 over a limit)
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         one job's status and progress
//	GET  /v1/jobs/{id}/results stream results as NDJSON: read the
//	                           job's <id>.ndjson from byte 0, then
//	                           follow live appends until the job is
//	                           terminal
//	POST /v1/jobs/{id}/cancel  request cancellation
//	GET  /healthz              liveness + version (200 as long as the
//	                           process serves HTTP, draining or not)
//	GET  /readyz               readiness: 200 while accepting new work,
//	                           503 once draining — the signal membership
//	                           probes use to stop routing shards here
//	GET  /metrics              counter snapshot (JSON)
//
// Error responses are always {"error": "..."} JSON.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer routes a Manager.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.results)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.cancel)
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("GET /readyz", s.ready)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SubmitRequest is the POST /v1/jobs body. The scenario object uses the
// exact schema of rcbcast -scenario files (scenario.Decode: strict,
// unknown fields rejected, errors name the offending field).
type SubmitRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	Trials   int             `json:"trials"`
	// BaseSeed seeds the sweep (trial t runs with sim.SweepSeed(base,
	// 0, t)). Omitted, it defaults to 1 — the rcexp default — so a
	// default submit's results are byte-identical to
	// `rcexp -scenario spec.json -trials N`.
	BaseSeed *uint64 `json:"base_seed,omitempty"`
	// Shard, when present, restricts the job to the sweep trials
	// [lo, hi) — trials above stays the whole sweep's count, and the
	// job's NDJSON is the byte-exact [lo, hi) slice of the full run's.
	Shard *scenario.Shard `json:"shard,omitempty"`
}

// DefaultBaseSeed matches rcexp's -seed default.
const DefaultBaseSeed uint64 = 1

// clientID identifies the caller for the per-client limiter: the
// X-Client-ID header when present, otherwise the remote host.
func clientID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.m.cfg.MaxBody)
	var req SubmitRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("request body: %v", err))
		return
	}
	if len(bytes.TrimSpace(req.Scenario)) == 0 {
		writeError(w, http.StatusBadRequest, `request body: "scenario" is required`)
		return
	}
	// scenario.Decode both validates and names the offending field on
	// type or schema errors — its message is the 400 body verbatim.
	sc, err := scenario.Decode(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	base := DefaultBaseSeed
	if req.BaseSeed != nil {
		base = *req.BaseSeed
	}
	var sh scenario.Shard
	if req.Shard != nil {
		sh = *req.Shard
	}
	j, accepted, err := s.m.SubmitShard(clientID(r), sc, req.Trials, base, sh)
	switch {
	case errors.Is(err, ErrClientBusy), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusOK // dedupe hit: the job already exists
	if accepted {
		code = http.StatusAccepted
	}
	writeJSON(w, code, j.Status())
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.m.List()})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.m.Get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	if err := s.m.Cancel(id); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancel requested"})
}

// results streams the job's NDJSON output over chunked HTTP. The
// backing file is read from byte 0 — determinism makes it the same
// stream every subscriber sees, whenever they attach — then followed
// until the job reaches a terminal state and the subscriber has read
// every byte. A resume keeps the file's complete lines and appends
// after them, so the bytes a subscriber already holds never change.
// The file is opened only once the feed shows bytes: the empty file a
// submit creates may still be replaced before the job's run opens it.
func (s *Server) results(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.m.StreamStart()
	defer s.m.StreamEnd()

	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	if size, _, _ := j.feed.snapshot(); size > 0 {
		var err error
		if f, err = os.Open(j.out); err != nil && !os.IsNotExist(err) {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	var offset int64
	for {
		size, watch, terminal := j.feed.snapshot()
		for offset < size {
			if f == nil {
				var err error
				if f, err = os.Open(j.out); err != nil {
					return
				}
			}
			n := size - offset
			if n > int64(len(buf)) {
				n = int64(len(buf))
			}
			read, err := f.ReadAt(buf[:n], offset)
			if read > 0 {
				if _, werr := w.Write(buf[:read]); werr != nil {
					return
				}
				offset += int64(read)
			}
			if err != nil {
				break
			}
		}
		rc.Flush()
		if terminal && offset >= size {
			return
		}
		select {
		case <-watch:
		case <-r.Context().Done():
			return
		}
	}
}

// copyBufs recycles results' 32 KiB copy buffers: a shard's output is
// about 10 KB, so a fresh buffer per GET would cost more to allocate
// and clear than the copy itself.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32*1024)
	return &b
}}

// health is pure liveness: 200 whenever the process answers at all,
// draining included. Readiness is the separate /readyz signal.
func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  "ok",
		"version": s.m.Version(),
	})
}

// ready distinguishes accepting-work from merely-alive: a draining
// server answers 503 so coordinators park it without declaring it dead.
func (s *Server) ready(w http.ResponseWriter, r *http.Request) {
	if !s.m.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status":  "draining",
			"version": s.m.Version(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  "ready",
		"version": s.m.Version(),
	})
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Metrics())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
