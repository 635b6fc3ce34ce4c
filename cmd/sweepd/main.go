// Command sweepd is the resident sweep-orchestration daemon: it keeps one
// process-wide memoized job cache and serves simulation batches over an
// HTTP/JSON API.
//
//	sweepd -addr 127.0.0.1:8372 -data sweepd-data
//
// Clients POST batches of job keys to /v1/batches; the daemon deduplicates
// them against everything it has ever run (across batches and tenants),
// executes missing jobs on a supervised worker pool, and streams per-job
// completion events over SSE. Every batch persists a manifest, a streamed
// journal and a final results file under -data, so a killed daemon resumes
// all in-flight batches at next start without resimulating finished jobs.
// cmd/reproduce and cmd/ablations submit their whole plan, paper artifacts
// and ablations alike, to a daemon as one batch with their -server flag.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mgpucompress/internal/cli"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/serve"
	"mgpucompress/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepd: ")
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (host:port; port 0 picks a free port)")
	data := flag.String("data", "sweepd-data", "persistent state directory")
	var jobs int
	cli.JobsVar(flag.CommandLine, &jobs)
	flag.Parse()
	if err := run(*addr, *data, jobs); err != nil {
		log.Fatal(err)
	}
}

func run(addr, data string, jobs int) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	svc, err := serve.New(serve.Config[*runner.Result]{
		Run:      runner.RunJob,
		DataDir:  data,
		Workers:  jobs,
		Describe: describe,
		Logf:     log.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Close()
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// The resolved address (port 0 expands here) is the line clients and the
	// smoke test wait for.
	log.Printf("listening on %s (data %s, %d workers)", ln.Addr(), data, jobs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		svc.Close()
		return err
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	// Close drains in-flight jobs and flushes every batch journal; queued
	// jobs are dropped and re-created from manifests at next start.
	svc.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// describe condenses one simulation result for the SSE event stream.
func describe(r *runner.Result) *serve.JobSummary {
	s := &serve.JobSummary{
		ExecCycles:    r.ExecCycles,
		FabricBytes:   r.FabricBytes,
		MetricSamples: len(r.Snapshot),
	}
	if r.Spans != nil {
		sum := trace.Summarize(r.Spans.Spans())
		s.Spans = &sum
	}
	return s
}
