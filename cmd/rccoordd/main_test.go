package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rcbcast/internal/scenario"
	"rcbcast/internal/service"
	"rcbcast/internal/sim/sink"
)

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "rcbcast ") {
		t.Fatalf("version output %q lacks the module stamp", buf.String())
	}
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-workers or -addr is required"},
		{[]string{"-workers", "http://x"}, "-scenario is required"},
		{[]string{"-workers", "http://x", "-scenario", "full-jam"}, "-trials must be positive"},
		{[]string{"-workers", "http://x", "-scenario", "full-jam", "-trials", "4", "-journal", "j"}, "-journal requires -out"},
		{[]string{"-workers", "ftp://x", "-scenario", "full-jam", "-trials", "4"}, "scheme"},
		{[]string{"-workers", "http://x", "-scenario", "no-such", "-trials", "4"}, "unknown scenario"},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestCoordinatedSweepMatchesSingleMachine runs the CLI end to end
// against two in-process workers and compares the merged stdout bytes
// to the single-machine streaming path.
func TestCoordinatedSweepMatchesSingleMachine(t *testing.T) {
	startWorker := func() string {
		m, err := service.NewManager(service.Config{Dir: t.TempDir(), Procs: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(service.NewServer(m))
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Close(ctx)
		})
		return srv.URL
	}
	const trials = 23
	var stdout, stderr bytes.Buffer
	args := []string{
		"-workers", startWorker() + "," + startWorker(),
		"-scenario", "full-jam", "-n", "64",
		"-trials", "23", "-shard-size", "4",
	}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	sc, err := scenario.Load("full-jam")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 64
	var want bytes.Buffer
	if err := sc.Stream(context.Background(), 2, 1, 0, trials, sink.NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("merged stdout differs from single-machine run (%d vs %d bytes)", stdout.Len(), want.Len())
	}
	if !strings.Contains(stderr.String(), "trials=23") {
		t.Fatalf("summary line missing from stderr:\n%s", stderr.String())
	}
}

// syncBuffer lets the test poll stderr while run() is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWorkerRegistrationEndpoint starts the coordinator with an empty
// pool (-addr only) and registers a worker over POST /v1/workers; the
// sweep must then run to completion with single-machine bytes.
func TestWorkerRegistrationEndpoint(t *testing.T) {
	m, err := service.NewManager(service.Config{Dir: t.TempDir(), Procs: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})

	const trials = 23
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-scenario", "full-jam", "-n", "64",
		"-trials", "23", "-shard-size", "4",
		"-probe-interval", "20ms",
	}
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), args, &stdout, stderr) }()

	// Parse the metrics-address handshake off stderr.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no metrics handshake on stderr:\n%s", stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "rccoordd: metrics on "); ok {
				base = "http://" + strings.TrimSpace(addr)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/workers", "application/json",
		strings.NewReader(`{"url":"`+srv.URL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"joined"`) {
		t.Fatalf("registration: status %d body %s", resp.StatusCode, body)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("sweep never completed after registration\nstderr:\n%s", stderr.String())
	}

	sc, err := scenario.Load("full-jam")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 64
	var want bytes.Buffer
	if err := sc.Stream(context.Background(), 2, 1, 0, trials, sink.NewNDJSON(&want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("merged stdout differs from single-machine run (%d vs %d bytes)", stdout.Len(), want.Len())
	}
}
