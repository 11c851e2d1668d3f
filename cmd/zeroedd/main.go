// Command zeroedd runs the ZeroED detection service: a long-running HTTP
// server that accepts tabular uploads as asynchronous detection jobs, runs
// them on one shared bounded worker pool, and serves per-cell verdicts and
// scores. Jobs with a fixed seed return verdicts bit-identical to a
// cmd/zeroed run on the same input.
//
// Every upload endpoint accepts CSV (the default) or NDJSON — negotiated
// by the Content-Type header (parameters like "; charset=utf-8" are fine)
// or forced with ?format=csv|ndjson — and verdicts are byte-identical
// across formats and chunkings of the same rows.
//
// Usage:
//
//	zeroedd [-addr :8080] [-workers N]
//	        [-max-concurrent 2] [-max-queue 16]
//	        [-max-upload-bytes 33554432] [-max-rows 1000000] [-max-cols 256]
//	        [-max-models 32] [-model-dir DIR]
//	        [-stream-chunk 256] [-drift-threshold 0] [-drift-min-rows 256]
//	        [-request-timeout 0] [-refit-backoff 1s] [-refit-breaker-after 5]
//	        [-log-format text|json] [-debug-addr ADDR]
//	        [-trace-dir DIR] [-trace-slow 100ms]
//	        [-list-failpoints]
//
// Quickstart:
//
//	zeroedd -addr :8080 &
//	curl -s -X POST --data-binary @dirty.csv 'localhost:8080/v1/jobs?seed=1'
//	curl -s localhost:8080/v1/jobs/j-000001            # poll state
//	curl -s localhost:8080/v1/jobs/j-000001/result     # verdicts + scores
//
// Online scoring ("fit once, score forever"): POST /v1/models fits a model
// from an upload and registers it (persisted under -model-dir when set);
// POST /v1/models/{id}/score then scores small bodies synchronously against
// the fitted model at a latency orders of magnitude below a fit job. Score,
// stream, and repair uploads may permute the model's columns or carry
// extras (dropped and reported; missing schema columns are a typed 400):
//
//	curl -s -X POST --data-binary @dirty.csv 'localhost:8080/v1/models?seed=1'
//	curl -s -X POST --data-binary @fresh.csv 'localhost:8080/v1/models/m-000001/score'
//
// Served repair: POST /v1/models/{id}/repair scores an upload (no refit)
// and applies the repair strategies to the flagged cells, returning the
// corrected table plus a cell-level change log — bit-identical to
// `zeroed -model-in ... -repair -repair-log ...` on the same artifact and
// bytes. ?table=0 suppresses the corrected table when only the change log
// is wanted:
//
//	curl -s -X POST --data-binary @fresh.csv 'localhost:8080/v1/models/m-000001/repair'
//
// Streaming detection: POST /v1/models/{id}/stream scores a chunked CSV or
// NDJSON body row-by-row (one JSON line per row) against a registered
// model, tracking per-model drift gauges. With -drift-threshold set, a
// tripped gauge triggers a background refit on the accumulated stream and a
// zero-downtime hot swap of the model — the old artifact stays on disk for
// rollback:
//
//	curl -sN -X POST --data-binary @stream.csv 'localhost:8080/v1/models/m-000001/stream'
//
// Durability: with -model-dir set, every artifact commit is atomic
// (temp + fsync + rename + directory fsync) and a manifest.json ledger
// records committed versions; a crash or kill -9 at any instant leaves each
// artifact committed-or-absent, never torn. Startup quarantines corrupt
// files to *.corrupt (counted once, not once per boot) and recovers the
// highest intact version per model. -request-timeout bounds server-side
// work per request with a typed 503 {"error":{"code":"deadline"}};
// -refit-backoff/-refit-breaker-after contain failing drift refits while
// the model keeps serving its last good version. Fault injection for all of
// this is armed via ZEROED_FAILPOINTS (see -list-failpoints and
// internal/faultpoint).
//
// Observability: every request carries an X-Request-ID (honored or
// generated, echoed on responses and in error envelopes) and a span tree
// covering queue wait, ingest, and each pipeline stage — ?trace=1 embeds
// it in synchronous responses, GET /v1/jobs/{id}/trace serves a finished
// job's tree, and /metrics exports per-route RED series. -log-format json
// switches the structured log to JSON lines. -debug-addr starts a second,
// operator-only listener with net/http/pprof, /debug/failpoints, and
// /debug/traces (slow-request Chrome traces, also dumped under -trace-dir
// when requests cross -trace-slow; load them in chrome://tracing).
//
// SIGINT/SIGTERM shut the server down gracefully: the listener stops, and
// in-flight jobs are canceled through their contexts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "shared worker-pool size all jobs draw from (0 = GOMAXPROCS)")
		maxConc     = flag.Int("max-concurrent", 2, "pool-heavy units (detect jobs, fits, refits) running at once (they share the one pool)")
		maxQueue    = flag.Int("max-queue", 16, "admission-queue depth for jobs and fits waiting to run; beyond it they get 429")
		maxBytes    = flag.Int64("max-upload-bytes", 32<<20, "request-body byte cap (413 beyond it)")
		maxRows     = flag.Int("max-rows", 1_000_000, "per-upload row cap")
		maxCols     = flag.Int("max-cols", 256, "per-upload column cap")
		maxModels   = flag.Int("max-models", 32, "fitted-model registry capacity (409 beyond it)")
		modelDir    = flag.String("model-dir", "", "persist fitted models as artifacts under this directory and restore them on startup")
		streamChunk = flag.Int("stream-chunk", 256, "rows per streaming-detection batch (chunk-invariant; latency knob only)")
		driftThresh = flag.Float64("drift-threshold", 0, "drift gauge level that triggers a background refit + hot swap (0 = never refit; gauges still export)")
		driftMin    = flag.Int("drift-min-rows", 256, "minimum streamed rows before the drift threshold may trip")

		reqTimeout   = flag.Duration("request-timeout", 0, "server-side deadline per request; beyond it fits and scores return a typed 503 \"deadline\" (0 = unbounded)")
		refitBackoff = flag.Duration("refit-backoff", time.Second, "base backoff after a failed drift refit, doubling per consecutive failure")
		refitBreaker = flag.Int("refit-breaker-after", 5, "consecutive refit failures that open a per-model breaker until the next successful install (negative = never)")

		logFormat = flag.String("log-format", "text", "structured-log format: text or json")
		debugAddr = flag.String("debug-addr", "", "serve pprof, /debug/failpoints, and /debug/traces on this extra listener (keep it internal; empty = off)")
		traceDir  = flag.String("trace-dir", "", "dump slow-request traces as Chrome trace_event JSON files under this directory")
		traceSlow = flag.Duration("trace-slow", 100*time.Millisecond, "retain traces of requests at or above this duration in the debug ring (and -trace-dir)")

		listFailpoints = flag.Bool("list-failpoints", false, "print the registered fault-injection points ("+faultpoint.EnvVar+" arms them) and exit")
	)
	flag.Parse()

	if *listFailpoints {
		for _, name := range faultpoint.List() {
			fmt.Println(name)
		}
		return
	}

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "zeroedd: bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}

	svc := serve.New(serve.Config{
		Workers:           *workers,
		MaxConcurrentJobs: *maxConc,
		MaxQueuedJobs:     *maxQueue,
		MaxUploadBytes:    *maxBytes,
		MaxRows:           *maxRows,
		MaxCols:           *maxCols,
		MaxModels:         *maxModels,
		ModelDir:          *modelDir,
		StreamChunkRows:   *streamChunk,
		DriftThreshold:    *driftThresh,
		DriftMinRows:      *driftMin,
		RequestTimeout:    *reqTimeout,
		RefitBackoff:      *refitBackoff,
		RefitBreakerAfter: *refitBreaker,
		Logger:            logger,
		TraceDir:          *traceDir,
		TraceSlow:         *traceSlow,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The debug surface is a separate server on purpose: pprof and
	// fault-injection state never share a port with client traffic.
	if *debugAddr != "" {
		dbgSrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           svc.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "zeroedd: debug listener:", err)
			}
		}()
		fmt.Printf("zeroedd: debug listener on %s\n", *debugAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("zeroedd: listening on %s\n", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("zeroedd: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
		svc.Close() // cancels queued and running jobs and refits, and waits for them
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "zeroedd:", err)
			svc.Close()
			os.Exit(1)
		}
	}
}
