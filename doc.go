// Package repro is a from-scratch Go reproduction of "ZeroED: Hybrid
// Zero-Shot Error Detection Through Large Language Model Reasoning"
// (Ni et al., ICDE 2025, arXiv:2504.05345).
//
// The implementation lives under internal/ (README's "Package map"
// section is the system inventory) and the runnable entry points under
// cmd/ and examples/ (quickstart, custom, scoring, serving). The module
// root's bench_test.go times the detection engine (sharded and batched
// detection, the FMED baseline).
//
// Entry points: cmd/zeroed (one-shot CLI detection, plus -model-out /
// -model-in for producing and consuming fitted-model artifacts),
// cmd/zeroedd (the HTTP/JSON detection service over internal/serve,
// including the /v1/models registry for fit-once/score-forever online
// scoring), cmd/experiments (the one way to run the paper's tables and
// figures, whose orderings go test ./internal/experiments asserts), and
// cmd/datagen (benchmark CSV export). The layered benchmark is the
// separate perfbench module, run through perfbench/run.sh.
//
// The pipeline itself is split across internal/zeroed (FitOn: the
// expensive induction/labeling/training phase, returning a reusable Model;
// ScoreOn/ScoreRowsOn: the cheap featurize-and-infer phase, with
// DetectOn ≡ FitOn+ScoreOn bit-for-bit; one entry point per operation, each
// taking a context and a shared worker Pool, nil for a private one; a
// dataset loaded into Model.Bind is interned once, straight into the
// model's dictionaries, and scored without a second pass) and
// internal/model (versioned, checksummed binary artifacts whose
// save→load→score round trip is bit-identical). Every path reachable from
// untrusted input — CSV parsing, schema arity, degenerate dataset
// shapes, non-finite training values, corrupt model artifacts — reports
// errors instead of panicking, so the service can face adversarial
// uploads.
//
// The fit phase is instrumented and optimized like the scoring phase
// before it: FitInfo.Stages reports wall-clock and allocation per
// pipeline stage, measured once by the stage's obs phase span (surfaced
// by perfbench as zeroed.fit.<stage>_ms and by the service as
// zeroedd_fit_stage_seconds), criteria verification and
// guideline labeling are value-ID-deduplicated (criteria.SetMemo,
// llm.JudgeMemo, with the fitted result pinned by TestDetectGolden), the MLP
// trains over a flat feature tile (nn.Train, with training bits pinned by
// TestTrainGoldenBits), and the repo root carries a checked-in PGO profile
// (default.pgo, regenerated by scripts/fitprofile.sh) that CI builds
// against.
//
// Ingest is format-agnostic: internal/table's RowSource abstraction
// (ingest.go) delivers header + chunked rows from CSV (csv.go) or
// NDJSON (jsonl.go, array and object framing, fuzz-hardened) into the
// intern-pool streaming path, and every entry point — the CLI's -dirty
// and -stream inputs, POST /v1/jobs, and the model score/stream/repair
// endpoints — consumes it, with verdict bytes invariant to format and
// chunking. Schema mapping (mapping.go) projects upload headers that
// are permutations or supersets of a model's schema onto the model
// (missing columns are typed errors, extras are dropped and counted),
// and internal/repair turns detections into deterministic cell-level
// fixes, served by POST /v1/models/{id}/repair bit-identical to the
// CLI's -repair on the same artifact and bytes.
//
// The serve layer is chaos-tested: internal/faultpoint registers named
// fault-injection points (zero-cost when disarmed, armed via
// ZEROED_FAILPOINTS=name:action) at every disk-write, artifact-load,
// refit-persist, and LLM-judge boundary; artifact commits are atomic
// (temp + fsync + rename + dir fsync) with a manifest ledger and
// corrupt-file quarantine; transient judge failures retry under
// internal/retry without perturbing any pipeline RNG stream; and
// internal/chaos re-execs a real server subprocess, crashes it at every
// disk-write site, and asserts the highest intact model version recovers
// with bit-identical scores (scripts/chaos.sh runs the sweep in CI).
//
// Observability rides on internal/obs, a zero-dependency context-
// propagated span tracer (one atomic load when disabled; on≡off verdict
// and score bit-identity pinned by TestTraceOnOffBitIdentical): every
// pipeline stage and serve phase is a span, exported as ?trace=1 /
// GET /v1/jobs/{id}/trace span trees, Chrome trace_event JSON
// (zeroed -trace, the zeroedd slow-request ring at /debug/traces), and
// per-route RED metrics; requests carry X-Request-ID correlation through
// responses, error envelopes, and log/slog structured logs.
package repro
