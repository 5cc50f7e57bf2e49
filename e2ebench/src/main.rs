//! End-to-end reconstruction benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload solo-reuse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs the public entry points (`MlrPipeline::new`, `run_exact`,
//! `run_memoized`, `Runtime::submit` / `wait`) on one workload for
//! `--seconds`, checks the outputs, and prints one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` next to this file.

mod attribution;
mod report;
mod shared;
mod solo;
mod trace;

use report::{Metrics, Outcome, Tally};
use solo::Solo;
use trace::USFFT_OPS;

/// Where traced runs write their Chrome trace files (relative to the
/// working directory).
pub const TRACE_DIR: &str = ".bench_trace";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

const WORKLOADS: [&str; 4] = [
    "solo-reuse",
    "solo-cold",
    "solo-reuse-2t",
    "shared-replicas",
];

/// A reported metric: name and unit. Whether higher or lower is better, and
/// the bounds, live in `BENCHMARK.json`.
type Spec = (String, &'static str);

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("recon_s", "s"),
    ("exact_s", "s"),
    ("accuracy", "1"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics that are not per operator.
const LAYER: [(&str, &str); 50] = [
    ("memo.overhead_s", "s"),
    ("memo.engine_self_s", "s"),
    ("memo.avoided_fraction", "1"),
    ("memo.attempts", "count"),
    ("memo.db_hits", "count"),
    ("memo.cache_hits", "count"),
    ("memo.failed", "count"),
    ("memo.prefiltered", "count"),
    ("memo.computed", "count"),
    ("memo.cache_hit_rate", "1"),
    ("memo.cache_lookups", "count"),
    ("store.encode_s", "s"),
    ("store.encoded", "count"),
    ("store.prefilter_s", "s"),
    ("store.probe_s", "s"),
    ("store.probes", "count"),
    ("store.commit_s", "s"),
    ("store.insert_s", "s"),
    ("store.inserts", "count"),
    ("store.entries", "count"),
    ("store.resident_mb", "MiB"),
    ("parallel.phase_s", "s"),
    ("parallel.chunk_s", "s"),
    ("parallel.speedup", "1"),
    ("parallel.threads_granted", "threads"),
    ("solver.other_s", "s"),
    ("solver.lsp_s", "s"),
    ("solver.rsp_s", "s"),
    ("runtime.queue_wait_p50_s", "s"),
    ("runtime.run_p50_s", "s"),
    ("runtime.makespan_s", "s"),
    ("runtime.utilisation", "1"),
    ("runtime.rejected", "count"),
    ("runtime.hit_rate", "1"),
    ("runtime.store_queries", "count"),
    ("runtime.cross_job_hit_rate", "1"),
    ("runtime.store_resident_mb", "MiB"),
    ("runtime.jobs_no_reuse", "count"),
    ("core.speedup_vs_exact", "1"),
    ("core.exact_s", "s"),
    ("core.recon_s", "s"),
    ("exact.other_s", "s"),
    ("exact.wall_s", "s"),
    ("exact.truth_accuracy", "1"),
    ("exact.loss_ratio", "1"),
    ("bench.trace_overhead", "1"),
    ("bench.untraced_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.spans", "count"),
    ("bench.error_rate", "1"),
];

/// Per-operator metrics: name prefix and unit.
const PER_OP: [(&str, &str); 8] = [
    ("fft.compute_s", "s"),
    ("fft.computes", "count"),
    ("fft.ns_per_chunk", "ns"),
    ("fft.bytes", "B-computed"),
    ("lamino.batch_s", "s"),
    ("lamino.chunks", "count"),
    ("exact.compute_s", "s"),
    ("exact.computes", "count"),
];

fn end_to_end() -> Vec<Spec> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Every per-layer metric, in reporting order.
fn per_layer() -> Vec<Spec> {
    let per_op = PER_OP.iter().flat_map(|&(prefix, u)| {
        USFFT_OPS
            .iter()
            .map(move |op| (format!("{prefix}.{op:?}"), u))
    });
    let rest = LAYER.iter().map(|&(n, u)| (n.to_string(), u));
    per_op.chain(rest).collect()
}

/// Keeps exactly the metrics `expected` names. A metric the workload's
/// layers do not produce reads 0 and is listed on stderr.
fn conform(outcome: Outcome, expected: &[Spec]) -> Outcome {
    let mut metrics = Metrics::default();
    let mut absent = Vec::new();
    for (name, unit) in expected {
        let value = outcome.metrics.get(name).unwrap_or_else(|| {
            absent.push(name.as_str());
            0.0
        });
        metrics.set(name.clone(), value, unit);
    }
    if !absent.is_empty() {
        eprintln!(
            "not observed on this workload (reported as 0): {}",
            absent.join(", ")
        );
    }
    Outcome { metrics, ..outcome }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let reuse = Solo {
        n: 32,
        angles: 16,
        iterations: 12,
        tau: 0.92,
        threads: 1,
    };
    let solo = match args.workload.as_str() {
        "solo-reuse" => Some(reuse),
        // At tau 0.92 the accuracy of a 24^3 sample ranges from 0.14 to 0.78
        // by phantom, too wide for a run's median to be steady; at 0.95 the
        // hits stay approximate and scarce, and it ranges about 0.5-0.9.
        "solo-cold" => Some(Solo {
            n: 24,
            angles: 12,
            tau: 0.95,
            ..reuse
        }),
        "solo-reuse-2t" => Some(Solo {
            threads: 2,
            ..reuse
        }),
        "shared-replicas" => None,
        other => {
            eprintln!(
                "e2ebench: unknown workload {other}; one of {}",
                WORKLOADS.join(", ")
            );
            std::process::exit(2);
        }
    };
    let mut outcome = match (solo, args.trace) {
        (Some(s), false) => solo::run(&s, &args),
        (Some(s), true) => solo::run_traced(&s, &args, &args.workload),
        (None, trace) => shared::run(&args, trace, &args.workload),
    };
    let expected = if args.trace {
        let Tally { attempted, failed } = outcome.tally;
        let error_rate = failed as f64 / attempted.max(1) as f64;
        outcome.metrics.set("bench.error_rate", error_rate, "1");
        per_layer()
    } else {
        end_to_end()
    };
    println!("{}", conform(outcome, &expected).to_json());
}
