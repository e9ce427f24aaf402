// Package stream is the online localization engine: it consumes telemetry
// window-values as they are produced and re-localizes on every hop without
// recomputing the batch pipeline from zero.
//
// The batch pipeline (core.Detect, core.Localizer) assumes a one-shot
// production snapshot: every call re-sorts every series and re-runs every
// two-sample test. Re-running it per hop over a sliding window costs
// O(n log n) per series per tick. This package keeps, per (metric, service)
// pair, an incremental KS comparison whose baseline is sorted exactly once
// and whose production window is maintained by ordered insert/evict — so a
// hop costs one bounded insert per pair plus the D-walk, never a sort. The
// pairs' state is dense rather than one object per pair: every window's ring
// and sorted index sit side by side in one stats.WindowSlab with a 16-byte
// metadata record each, and every sorted baseline in one stats.KSBaselines
// arena, so at the default window a push touches two adjacent cache lines
// and one record.
//
// Scale contract: each hop's flush recomputes only the pairs whose windows
// actually changed — so a hop that touches T of the S×M pairs costs O(T)
// test evaluations, not O(S·M), and per-hop latency stays flat as the
// service count grows with constant hop density. This holds in strict and
// tolerant mode alike: the flush is the Detector's only detection path.
// With WithSketch, per-pair baseline memory is O(1/eps) regardless of
// baseline length. Both are pure representation changes: verdicts are
// byte-identical at every worker count, and bit-identical to the exact
// baseline whenever the sketch is lossless for it.
//
// Equivalence contract: the Detector's per-hop output is byte-identical to
// core.Detect with its default test (guarded KS) run on the materialized
// sliding window (same alpha-vs-FDR family decision, strict-vs-tolerant
// completeness, min-sample guard, and in strict mode the same errors), and
// the Localizer's per-hop votes are produced by the same vote phase
// (core.Localizer.Aggregate) the batch localizer runs. The conformance suite
// in this package (equivalence tests, golden corpus, FuzzIncrementalKS in
// internal/stats) enforces the contract at every hop for workers 1..8 in
// both alpha and FDR modes.
//
// Configuration is one functional-option set (Option): NewDetector,
// NewLocalizer and NewPipeline all take the same options, each reading the
// subset it understands.
//
// Layering, bottom to top:
//
//   - Detector: sliding-window anomaly sets A(M) per metric.
//   - Localizer: Detector + core vote phase + K-of-N hysteresis, emitting a
//     timestamped Verdict per hop.
//   - Aggregator: telemetry.Sample ticks -> completed hopping windows,
//     incrementally equivalent to telemetry.HoppingWindows.
//   - Pipeline: Aggregator + Localizer, the `causalfl watch` engine.
package stream
