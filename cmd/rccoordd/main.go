// Command rccoordd is the sweep coordinator: it distributes one
// scenario sweep across an elastic pool of rcserved workers
// (internal/dist, DESIGN.md §13, §15) and writes the merged NDJSON —
// byte-identical to a single-machine `rcexp -scenario ... -trials N`
// run — to stdout.
//
// Usage:
//
//	rccoordd -workers http://a:8344,http://b:8344 \
//	         -scenario full-jam -trials 100000 > runs.jsonl
//	rccoordd -workers ... -scenario spec.json -shard-size 500 \
//	         -out runs.jsonl
//	rccoordd -addr :8350 -scenario full-jam -trials 100000 \
//	         -journal sweep.frontier -out runs.jsonl
//	rccoordd -version
//
// The sweep spec flags (-scenario, -topology, -n, -trials, -seed) are
// rcexp's sweep-mode flags, resolved by the same scenario.LoadSweep,
// because the contract is that both produce the same bytes. -addr serves /metrics, /healthz, and the
// worker-registration endpoint while the sweep runs (":0" picks a free
// port; the resolved address is printed to stderr):
//
//	POST /v1/workers {"url": "http://c:8344"}   join the pool mid-sweep
//	GET  /v1/workers                            pool membership snapshot
//
// -workers seeds the pool; with -addr it may be omitted entirely and
// workers register themselves. Workers are probed for readiness
// (-probe-interval) and declared dead after -liveness without a
// successful probe — their shards rebalance onto the live pool
// immediately. With -journal (requires -out), the journal file pins
// the sweep in a one-line header and the output records its progress,
// flushed shard by shard: rerunning the same command after a crash —
// SIGKILL included — resumes from the output's last complete shard and
// still produces byte-identical output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rcbcast/internal/dist"
	"rcbcast/internal/scenario"
	"rcbcast/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rccoordd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rccoordd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers   = fs.String("workers", "", "comma-separated worker base URLs seeding the pool (optional with -addr: workers can register)")
		scn       = fs.String("scenario", "", "named scenario or JSON scenario file (required)")
		topo      = fs.String("topology", "", "override the scenario's topology (KIND[:KNOB=V,...])")
		n         = fs.Int("n", 0, "network size override (0 = scenario default)")
		trials    = fs.Int("trials", 0, "sweep trial count (required)")
		baseSeed  = fs.Uint64("seed", 1, "base seed")
		shardSize = fs.Int("shard-size", 0, "trials per shard (0 = auto: about four shards per worker slot)")
		window    = fs.Int("window", 0, "merge reorder window in shards (0 = auto)")
		perWorker = fs.Int("per-worker", dist.DefaultPerWorker, "shards streamed at once per worker; each slot also keeps one shard submitted ahead in the worker's queue")
		attempts  = fs.Int("attempts", dist.DefaultMaxAttempts, "run attempts per shard before the sweep fails")
		stall     = fs.Duration("stall", dist.DefaultStallTimeout, "abandon a shard attempt whose result stream is silent this long")
		backoff   = fs.Duration("backoff", dist.DefaultBackoff, "first retry delay for a failing worker (doubles per consecutive failure, jittered)")
		probeIvl  = fs.Duration("probe-interval", dist.DefaultProbeInterval, "worker readiness probe interval")
		liveness  = fs.Duration("liveness", dist.DefaultLivenessDeadline, "declare a worker dead after this long without a successful probe")
		journal   = fs.String("journal", "", "frontier journal path, a one-line header pinning the sweep: rerunning resumes an interrupted sweep from the last complete shard in -out (requires -out)")
		outPath   = fs.String("out", "", "write merged NDJSON here instead of stdout")
		addr      = fs.String("addr", "", "serve /metrics, /healthz, and /v1/workers on this address while the sweep runs (empty = no server)")
		showVer   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String())
		return nil
	}
	if *workers == "" && *addr == "" {
		return errors.New("-workers or -addr is required (an empty pool needs the registration endpoint to ever make progress)")
	}
	if *scn == "" {
		return errors.New("-scenario is required")
	}
	if *trials <= 0 {
		return errors.New("-trials must be positive")
	}
	if *journal != "" && *outPath == "" {
		return errors.New("-journal requires -out (resume needs a re-readable, truncatable output file)")
	}

	sw, err := scenario.LoadSweep(*scn, *topo, *n, *trials, *baseSeed)
	if err != nil {
		return err
	}

	var seed []string
	if *workers != "" {
		seed = strings.Split(*workers, ",")
	}
	logger := log.New(stderr, "", log.LstdFlags)
	c, err := dist.New(dist.Config{
		Workers:          seed,
		ShardSize:        *shardSize,
		WindowShards:     *window,
		PerWorker:        *perWorker,
		MaxAttempts:      *attempts,
		StallTimeout:     *stall,
		Backoff:          *backoff,
		ProbeInterval:    *probeIvl,
		LivenessDeadline: *liveness,
		Journal:          *journal,
		Logf:             logger.Printf,
	})
	if err != nil {
		return err
	}

	if *addr != "" {
		ln, lerr := net.Listen("tcp", *addr)
		if lerr != nil {
			return lerr
		}
		defer ln.Close()
		// The resolved address line is the handshake scripts parse; keep
		// its shape stable (stderr: stdout carries the merged NDJSON).
		fmt.Fprintf(stderr, "rccoordd: metrics on %s\n", ln.Addr())
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, c.Metrics())
		})
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": version.String()})
		})
		mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]any{"workers": c.Members()})
		})
		mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				URL string `json:"url"`
			}
			if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.URL == "" {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": `body must be {"url": "http://worker:port"}`})
				return
			}
			joined, jerr := c.Join(req.URL)
			if jerr != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": jerr.Error()})
				return
			}
			status := "already a member"
			if joined {
				status = "joined"
			}
			writeJSON(w, http.StatusOK, map[string]any{"status": status, "workers": c.Members()})
		})
		go http.Serve(ln, mux)
	}

	out := stdout
	if *outPath != "" {
		// With a journal the output must survive restarts: open
		// read-write without truncating, so a resumed run can re-read and
		// keep its already-merged prefix. Without one, a fresh truncating
		// create matches the old behavior.
		mode := os.O_RDWR | os.O_CREATE
		if *journal == "" {
			mode |= os.O_TRUNC
		}
		f, ferr := os.OpenFile(*outPath, mode, 0o644)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		out = f
	}

	start := time.Now()
	sum, err := c.Run(ctx, sw.Scenario, sw.Trials, sw.BaseSeed, out)
	if err != nil {
		return err
	}
	logger.Printf("rccoordd: %s in %v", sum, time.Since(start).Round(time.Millisecond))
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
