// Command rcserved is the sweep-job service: a long-running HTTP server
// over the scenario + streaming stack (internal/service,
// DESIGN.md §12).
//
// Usage:
//
//	rcserved -dir ./jobs                 serve on 127.0.0.1:8344
//	rcserved -dir ./jobs -addr :8344     serve on every interface
//	rcserved -dir ./jobs -runners 2      run two jobs concurrently
//	rcserved -version                    print the build stamp and exit
//
// Submit a sweep, watch it, stream its results:
//
//	curl -s -X POST localhost:8344/v1/jobs \
//	     -d '{"scenario": {"n": 64, "adversary": {"kind": "full"}}, "trials": 1000}'
//	curl -s localhost:8344/v1/jobs/<id>
//	curl -sN localhost:8344/v1/jobs/<id>/results > runs.jsonl
//
// Every job writes its NDJSON output, one flushed line per trial, to
// <id>.ndjson in -dir, and that file is also its resume journal; a
// store journal beside it, jobs.ndjson, records every job and its
// state. Killing the server — SIGKILL included — loses nothing: on
// restart, interrupted jobs keep the output's complete lines and run
// only the trials it lacks, and their final NDJSON output is
// byte-identical to an uninterrupted run (and to
// `rcexp -scenario ... -trials N` with the same spec). A job that
// failed because its output belongs to a different sweep reruns from
// trial 0 once its <id>.ndjson is deleted and it is resubmitted. A -dir
// written in the older one-directory-per-job layout is imported on
// start. SIGINT/SIGTERM shut down gracefully: readiness is withdrawn
// first (GET /readyz turns 503 while GET /healthz stays 200), then
// running jobs stop within -drain, their output a valid prefix to
// resume from.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"rcbcast/internal/service"
	"rcbcast/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcserved:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcserved", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8344", "listen address (host:port; :0 picks a free port)")
		dir       = fs.String("dir", "", "job store directory (required)")
		procs     = fs.Int("procs", 0, "engine workers per running job (0 = GOMAXPROCS)")
		runners   = fs.Int("runners", service.DefaultRunners, "jobs executing concurrently")
		queue     = fs.Int("queue", service.DefaultQueueDepth, "queued-job bound (beyond it submits get 429)")
		perClient = fs.Int("per-client", service.DefaultPerClient, "per-client in-flight job cap")
		drain     = fs.Duration("drain", service.DefaultDrainTimeout, "graceful-shutdown drain deadline")
		showVer   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(out, version.String())
		return nil
	}
	if *dir == "" {
		return errors.New("-dir is required")
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	m, err := service.NewManager(service.Config{
		Dir:        *dir,
		Procs:      *procs,
		Runners:    *runners,
		QueueDepth: *queue,
		PerClient:  *perClient,
		Logf:       logger.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the startup handshake scripts and the
	// e2e test parse; keep its shape stable.
	fmt.Fprintf(out, "rcserved: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: service.NewServer(m)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("rcserved: shutting down (draining up to %s)", *drain)
	deadline, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Withdraw readiness first — /readyz answers 503 while the server
	// still serves, so probing coordinators stop routing new shards and
	// park this worker instead of declaring it dead. Only then drain the
	// jobs and close the listener: in-flight result streams flush their
	// final bytes before Shutdown severs connections.
	m.BeginDrain()
	if err := m.Close(deadline); err != nil {
		srv.Shutdown(deadline)
		return err
	}
	srv.Shutdown(deadline)
	logger.Printf("rcserved: drained")
	return nil
}
