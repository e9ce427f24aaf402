// Package stream is the online localization engine: it consumes telemetry
// window-values as they are produced and re-localizes on every hop without
// recomputing the batch pipeline from zero.
//
// The batch pipeline (core.Detect, core.Localizer) assumes a one-shot
// production snapshot: every call re-sorts every series and re-runs every
// two-sample test. Re-running it per hop over a sliding window costs
// O(n log n) per series per tick. This package keeps, per (metric, service)
// pair, an incremental KS comparison whose production window is maintained
// by ordered insert/evict — so a hop costs one bounded insert per pair plus
// one pass of the D statistic over the baseline, never a sort. The pairs'
// state is dense rather than one object per pair: every window's ring and
// sorted index sit side by side in one stats.WindowSlab with a 16-byte
// metadata record each, so at the default window a push touches two
// adjacent cache lines and one record. The baselines are not copied:
// stats.KSBaselines keeps a reference to each series of the caller's
// baseline snapshot (the model's, for a Localizer) and reads it in place,
// so that snapshot must not be modified while the engine uses it.
//
// Scale contract: each hop's flush recomputes only the pairs whose windows
// actually changed — so a hop that touches T of the S×M pairs costs O(T)
// test evaluations, not O(S·M), and per-hop latency stays flat as the
// service count grows with constant hop density. This holds in strict and
// tolerant mode alike: the flush is the Detector's only detection path.
// Verdicts are byte-identical at every worker count.
//
// Equivalence contract: the Detector's per-hop output is byte-identical to
// core.Detect with its default test (guarded KS) run on the materialized
// sliding window (same alpha-vs-FDR family decision, strict-vs-tolerant
// completeness, min-sample guard, and in strict mode the same errors), and
// the Localizer's per-hop votes are produced by the same vote phase
// (core.Localizer.Aggregate) the batch localizer runs. In strict mode the
// contract covers finite windows only: the Detector never tests a NaN or
// ±Inf production value, while strict core.Detect fails on a NaN and tests
// a ±Inf. The conformance suite
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
