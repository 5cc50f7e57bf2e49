//! Folds a traced reconstruction's spans and the program's public return
//! values into per-layer metrics.

use crate::report::{Metrics, MIB};
use crate::trace::{Span, SpanKind, USFFT_OPS};
use mlr_lamino::FftOpKind;
use mlr_math::Array3;
use mlr_memo::{MemoStats, ParallelStats};
use mlr_solver::{AdmmResult, ConvergenceHistory};
use std::collections::HashMap;

/// Bytes of one complex element (two f64).
const COMPLEX_BYTES: f64 = 16.0;

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Spans of `kind` in a trace: (seconds, spans, items).
fn totals(spans: &[Span], kind: SpanKind) -> (f64, f64, f64) {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .fold((0.0, 0.0, 0.0), |(t, n, i), s| {
            (t + s.seconds(), n + 1.0, i + s.items as f64)
        })
}

/// FFT kernel time and count of one operator, and the time per chunk.
pub fn fft_metrics(op: FftOpKind, seconds: f64, computes: f64, m: &mut Metrics) {
    let ns = if computes > 0.0 {
        seconds * 1e9 / computes
    } else {
        0.0
    };
    m.set(format!("fft.compute_s.{op:?}"), seconds, "s");
    m.set(format!("fft.computes.{op:?}"), computes, "count");
    m.set(format!("fft.ns_per_chunk.{op:?}"), ns, "ns");
}

/// Everything one traced memoized reconstruction attributes: kernels,
/// operator batches, engine overhead, store calls and the solver remainder.
pub fn recon_metrics(
    spans: &[Span],
    wall_s: f64,
    stats: &MemoStats,
    history: &ConvergenceHistory,
    m: &mut Metrics,
) {
    for op in USFFT_OPS {
        let (seconds, n, elems) = totals(spans, SpanKind::Compute(op));
        fft_metrics(op, seconds, n, m);
        let bytes = elems * COMPLEX_BYTES;
        m.set(format!("fft.bytes.{op:?}"), bytes, "B-computed");
    }

    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let batches: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Batch(_)))
        .collect();
    for op in USFFT_OPS {
        let (t, _, c) = totals(spans, SpanKind::Batch(op));
        m.set(format!("lamino.batch_s.{op:?}"), t, "s");
        m.set(format!("lamino.chunks.{op:?}"), c, "count");
    }

    // Engine overhead: batch wall time not covered by exact computes; engine
    // self time: batch wall time covered by neither computes nor store calls.
    let mut overhead_ns = 0;
    let mut self_ns = 0;
    for b in &batches {
        let kids = children.get(&b.id).map(Vec::as_slice).unwrap_or(&[]);
        let span_of = |s: &&Span| (s.start_ns, s.end_ns);
        let computes: Vec<_> = kids
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Compute(_)))
            .map(span_of)
            .collect();
        let all: Vec<_> = kids.iter().map(span_of).collect();
        let dur = b.end_ns - b.start_ns;
        overhead_ns += dur - covered_ns(computes, b.start_ns, b.end_ns);
        self_ns += dur - covered_ns(all, b.start_ns, b.end_ns);
    }
    m.set("memo.overhead_s", overhead_ns as f64 * 1e-9, "s");
    m.set("memo.engine_self_s", self_ns as f64 * 1e-9, "s");

    let (encode_s, _, encoded) = totals(spans, SpanKind::StoreEncode);
    let (prefilter_s, _, _) = totals(spans, SpanKind::StorePrefilter);
    let (probe_s, probes, _) = totals(spans, SpanKind::StoreProbe);
    let (commit_s, _, _) = totals(spans, SpanKind::StoreCommit);
    let (insert_s, inserts, _) = totals(spans, SpanKind::StoreInsert);
    m.set("store.encode_s", encode_s, "s");
    m.set("store.encoded", encoded, "count");
    m.set("store.prefilter_s", prefilter_s, "s");
    m.set("store.probe_s", probe_s, "s");
    m.set("store.probes", probes, "count");
    m.set("store.commit_s", commit_s, "s");
    m.set("store.insert_s", insert_s, "s");
    m.set("store.inserts", inserts, "count");

    let batches_s: f64 = batches.iter().map(|b| b.seconds()).sum();
    m.set("solver.other_s", (wall_s - batches_s).max(0.0), "s");
    solver_metrics(history, m);
    memo_metrics(stats, m);
}

/// The solver's own phase split, as the convergence history reports it.
pub fn solver_metrics(history: &ConvergenceHistory, m: &mut Metrics) {
    let records = history.records();
    m.set(
        "solver.lsp_s",
        records.iter().map(|r| r.lsp_seconds).sum(),
        "s",
    );
    m.set(
        "solver.rsp_s",
        records.iter().map(|r| r.rsp_seconds).sum(),
        "s",
    );
}

/// Engine outcome counters from the public `MemoStats`.
pub fn memo_metrics(stats: &MemoStats, m: &mut Metrics) {
    let t = stats.total();
    m.set("memo.avoided_fraction", t.avoided_fraction(), "1");
    m.set("memo.attempts", t.total() as f64, "count");
    m.set("memo.db_hits", t.db_hits as f64, "count");
    m.set("memo.cache_hits", t.cache_hits as f64, "count");
    m.set("memo.failed", t.failed_memo as f64, "count");
    m.set("memo.prefiltered", t.prefiltered as f64, "count");
    m.set("memo.computed", t.computed as f64, "count");
}

pub fn parallel_metrics(p: &ParallelStats, m: &mut Metrics) {
    m.set("parallel.phase_s", p.phase_seconds, "s");
    m.set("parallel.chunk_s", p.chunk_seconds, "s");
    m.set("parallel.speedup", p.achieved_speedup(), "1");
    m.set("parallel.threads_granted", p.mean_threads(), "threads");
}

pub fn store_size_metrics(entries: usize, resident_bytes: u64, m: &mut Metrics) {
    m.set("store.entries", entries as f64, "count");
    m.set("store.resident_mb", resident_bytes as f64 / MIB, "MiB");
}

/// Compute-closure invocations the engine reports: every outcome that ran
/// the exact FFT (`computed`, failed memo, prefiltered).
pub fn engine_computes(stats: &MemoStats, op: FftOpKind) -> u64 {
    let s = stats.op(op);
    s.computed + s.failed_memo + s.prefiltered
}

/// Exact-run attribution: FFT kernel time per operator and the remainder.
pub fn exact_metrics(spans: &[Span], wall_s: f64, m: &mut Metrics) {
    for op in USFFT_OPS {
        let (seconds, n, _) = totals(spans, SpanKind::Compute(op));
        m.set(format!("exact.compute_s.{op:?}"), seconds, "s");
        m.set(format!("exact.computes.{op:?}"), n, "count");
    }
    let batches_s: f64 = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Batch(_)))
        .map(Span::seconds)
        .sum();
    m.set("exact.other_s", (wall_s - batches_s).max(0.0), "s");
}

/// How good the exact reconstruction itself is: Eq. 5 accuracy against the
/// phantom it was simulated from, and final over first-iteration loss (a
/// ratio above 1 means the exact solve did not converge).
pub fn solution_metrics(ground_truth: &Array3<f64>, exact: &AdmmResult, m: &mut Metrics) {
    m.set(
        "exact.truth_accuracy",
        mlr_solver::accuracy_vs_reference(ground_truth, &exact.reconstruction),
        "1",
    );
    let losses = exact.history.loss_series();
    let ratio = match (losses.first(), losses.last()) {
        (Some(first), Some(last)) if first.1 > 0.0 => last.1 / first.1,
        _ => f64::NAN,
    };
    m.set("exact.loss_ratio", ratio, "1");
}
