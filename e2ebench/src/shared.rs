//! The shared-runtime workload: one `Runtime` over a shared sharded memo
//! store, fed closed batches of replicate reconstructions.

use crate::attribution::{
    engine_computes, exact_metrics, fft_metrics, memo_metrics, parallel_metrics, solution_metrics,
};
use crate::report::{
    bit_identical, derive_seed, median, peak_rss_mb, sane, timed, Metrics, Outcome, Pace, Tally,
    MIB,
};
use crate::solo::traced_exact;
use crate::trace::{write_chrome_trace, Recorder, SpanKind, USFFT_OPS};
use crate::Args;
use mlr_core::{MlrConfig, MlrPipeline};
use mlr_math::Array3;
use mlr_memo::MemoStats;
use mlr_runtime::{JobReport, JobStatus, ReconJob, Runtime, RuntimeConfig, RuntimeStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 2;
const REPLICAS: usize = 4;
const JOBS: usize = SAMPLES * REPLICAS;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

fn sample_configs(seed: u64) -> Vec<MlrConfig> {
    (0..SAMPLES)
        .map(|s| {
            let mut config = MlrConfig::quick(24, 12).with_iterations(8).with_tau(0.9999);
            config.problem.seed = derive_seed(seed, 10 + s as u64);
            config
        })
        .collect()
}

fn runtime_config(samples: &[MlrConfig]) -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        core_budget: 2,
        intra_job_threads: 1,
        queue_capacity: JOBS,
        ..RuntimeConfig::matching(&samples[0])
    }
}

/// One closed batch: every job submitted at once, the batch ends when the
/// last report is in.
struct Batch {
    /// Per job, in submission order: its report, or `None` if it did not
    /// complete.
    reports: Vec<Option<JobReport>>,
    /// Per job: submit → terminal status, seconds.
    latency: Vec<f64>,
    makespan_s: f64,
    stats: RuntimeStats,
}

fn run_batch(config: &RuntimeConfig, samples: &[MlrConfig], rec: Option<&Recorder>) -> Batch {
    let runtime = Runtime::new(config.clone());
    let t0 = Instant::now();
    // Sample-major order: all replicas of sample 0, then of sample 1.
    let submitted: Vec<_> = (0..JOBS)
        .map(|j| {
            let job = ReconJob::new(
                format!("sample{}-rep{}", j / REPLICAS, j % REPLICAS),
                samples[j / REPLICAS],
            );
            let at = Instant::now();
            let handle = match rec {
                Some(r) => r.leaf(SpanKind::Submit, 1, || runtime.submit(job)),
                None => runtime.submit(job),
            };
            (handle, at)
        })
        .collect();
    let finished: Vec<(Option<JobReport>, f64, Instant)> = std::thread::scope(|scope| {
        let waiters: Vec<_> = submitted
            .into_iter()
            .map(|(handle, at)| {
                scope.spawn(move || {
                    let status = match handle {
                        Ok(h) => match rec {
                            Some(r) => r.leaf(SpanKind::Wait, 1, || h.wait()),
                            None => h.wait(),
                        },
                        Err(e) => {
                            eprintln!("submit rejected: {e:?}");
                            return (None, 0.0, Instant::now());
                        }
                    };
                    let done = Instant::now();
                    let report = match status {
                        JobStatus::Completed(r) => Some((*r).clone()),
                        other => {
                            eprintln!("job did not complete: {}", other.label());
                            None
                        }
                    };
                    (report, (done - at).as_secs_f64(), done)
                })
            })
            .collect();
        waiters
            .into_iter()
            .map(|w| w.join().expect("waiter thread panicked"))
            .collect()
    });
    let last = finished.iter().map(|f| f.2).max().unwrap_or(t0);
    let stats = runtime.shutdown();
    Batch {
        latency: finished.iter().map(|f| f.1).collect(),
        reports: finished.into_iter().map(|f| f.0).collect(),
        makespan_s: (last - t0).as_secs_f64(),
        stats,
    }
}

/// The exact reference reconstruction of one sample.
struct Reference {
    pipeline: MlrPipeline,
    reconstruction: Array3<f64>,
    /// Wall time of the `run_exact` call.
    seconds: f64,
    /// Finite (and, when traced, the traced run identical).
    ok: bool,
    quality: Metrics,
}

impl Reference {
    /// Solves the sample exactly again; returns the wall time and whether
    /// the result is bit-identical to the reference.
    fn rerun(&self) -> (f64, bool) {
        let (again, s) = timed(|| self.pipeline.run_exact());
        let same = bit_identical(
            self.reconstruction.as_slice(),
            again.reconstruction.as_slice(),
        );
        (s, same)
    }
}

/// Solves every sample exactly; with a recorder, also once more through the
/// timing decorator.
fn exact_references(pipelines: Vec<MlrPipeline>, rec: Option<&Arc<Recorder>>) -> Vec<Reference> {
    pipelines
        .into_iter()
        .map(|pipeline| {
            let (exact, seconds) = timed(|| pipeline.run_exact());
            let mut ok = sane(&exact);
            if let Some(rec) = rec {
                let traced = traced_exact(&pipeline, rec);
                ok &= bit_identical(
                    exact.reconstruction.as_slice(),
                    traced.reconstruction.as_slice(),
                );
            }
            let mut quality = Metrics::default();
            solution_metrics(&pipeline.dataset().ground_truth, &exact, &mut quality);
            Reference {
                pipeline,
                reconstruction: exact.reconstruction,
                seconds,
                ok,
                quality,
            }
        })
        .collect()
}

/// Checks a batch's outputs against the exact references and the first
/// batch; returns the lowest accuracy seen.
fn check_batch(
    batch: &Batch,
    exact: &[Reference],
    first: &[Option<Array3<f64>>],
    tally: &mut Tally,
) -> f64 {
    let mut accuracy = f64::INFINITY;
    for (j, report) in batch.reports.iter().enumerate() {
        let Some(report) = report else {
            tally.check(false, "shared job completed");
            continue;
        };
        let recon = report.reconstruction.as_slice();
        let reference = &exact[j / REPLICAS].reconstruction;
        accuracy = accuracy.min(mlr_solver::accuracy_vs_reference(
            reference,
            &report.reconstruction,
        ));
        let same = first[j]
            .as_ref()
            .is_none_or(|f| bit_identical(f.as_slice(), recon));
        tally.check(
            crate::report::all_finite(recon) && same,
            "shared job finite and bit-identical to the first batch",
        );
    }
    accuracy
}

/// Sets up what a batch needs `SETUP_REPS` times: the runtime and the
/// pipeline (phantom, projections, operator plans) of every sample. Returns
/// the last pipelines and the median set-up time. `Runtime::new` alone takes
/// 0.2-0.4 ms, spawning its workers, and which end of that range a whole run
/// lands on follows the host's scheduling, not the program.
fn setup(config: &RuntimeConfig, samples: &[MlrConfig]) -> (Vec<MlrPipeline>, f64) {
    let mut times = Vec::new();
    let mut pipelines = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((runtime, built), s) = timed(|| {
            let runtime = black_box(Runtime::new(config.clone()));
            let built: Vec<MlrPipeline> = samples
                .iter()
                .map(|&c| black_box(MlrPipeline::new(black_box(c))))
                .collect();
            (runtime, built)
        });
        runtime.shutdown();
        times.push(s);
        pipelines = built;
    }
    (pipelines, median(&times))
}

pub fn run(args: &Args, trace: bool, workload: &str) -> Outcome {
    let samples = sample_configs(args.seed);
    let config = runtime_config(&samples);
    eprintln!(
        "problem: {SAMPLES} samples x {REPLICAS} replicas, 24^3, 12 angles, 8 iterations, tau 0.9999, phantom seeds {:?}",
        samples.iter().map(|c| c.problem.seed).collect::<Vec<_>>()
    );
    let mut pace = Pace::new(args.seconds, 2);
    let (pipelines, setup) = setup(&config, &samples);
    let mut tally = Tally::default();

    let rec = trace.then(Recorder::new);
    let exact = exact_references(pipelines, rec.as_ref());
    for r in &exact {
        tally.check(
            r.ok,
            "exact reference finite (and equal to its traced twin)",
        );
    }
    let mut m = Metrics::default();
    if let Some(rec) = &rec {
        let spans = rec.drain();
        let wall: f64 = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Job)
            .map(|s| s.seconds())
            .sum();
        exact_metrics(&spans, wall, &mut m);
        m.set("exact.wall_s", wall, "s");
        m.extend(Metrics::median_of(exact.iter().map(|r| &r.quality)));
    }
    let mut exact_times: Vec<f64> = exact.iter().map(|e| e.seconds).collect();

    let mut first: Vec<Option<Array3<f64>>> = vec![None; JOBS];
    let mut accuracy = f64::INFINITY;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut per_batch = Vec::new();
    let mut latency = Vec::new();
    let mut run_s = Vec::new();
    let mut span_log = Vec::new();
    let mut peak_rss = f64::NAN;
    while pace.next() {
        // In a traced run, the first batch and every second one after it
        // record spans; the others do not.
        let traced_batch = rec.as_ref().filter(|_| pace.started() % 2 == 1);
        let batch = run_batch(&config, &samples, traced_batch.map(|r| &**r));
        accuracy = accuracy.min(check_batch(&batch, &exact, &first, &mut tally));
        for (slot, report) in first.iter_mut().zip(&batch.reports) {
            if slot.is_none() {
                *slot = report.as_ref().map(|r| r.reconstruction.clone());
            }
        }
        tally.check(
            batch.stats.rejected == 0 && batch.stats.completed == JOBS as u64,
            "runtime completed every job and rejected none",
        );
        if pace.started() == 1 {
            peak_rss = peak_rss_mb();
        }
        // One more exact solve after each batch, alternating samples, so the
        // `exact_s` samples span the run like the batches do.
        let (s, same) = exact[(pace.started() - 1) as usize % SAMPLES].rerun();
        exact_times.push(s);
        tally.check(same, "exact rerun bit-identical to the sample's reference");
        latency.extend(&batch.latency);
        run_s.extend(batch.reports.iter().flatten().map(|r| r.run_seconds));
        if let Some(r) = traced_batch {
            traced.push(batch.makespan_s);
            let spans = r.drain();
            let mut bm = batch_metrics(&batch);
            bm.set("bench.spans", spans.len() as f64, "count");
            per_batch.push(bm);
            span_log = spans;
        } else {
            untraced.push(batch.makespan_s);
        }
    }
    let exact_s = median(&exact_times);
    let recon_s = median(&run_s);
    eprintln!(
        "{} batches; makespan median {:.3} s; exact {exact_s:.3} s; job run median {recon_s:.3} s; accuracy {accuracy:.4}",
        pace.started(),
        median(&untraced)
    );

    if trace {
        m.extend(Metrics::median_of(&per_batch));
        let (u, t) = (median(&untraced), median(&traced));
        m.set("bench.trace_overhead", t / u - 1.0, "1");
        m.set("bench.untraced_s", u, "s");
        m.set("bench.traced_s", t, "s");
        m.set("core.speedup_vs_exact", exact_s / recon_s, "1");
        m.set("core.exact_s", exact_s, "s");
        m.set("core.recon_s", recon_s, "s");
        let path = std::path::PathBuf::from(crate::TRACE_DIR)
            .join(format!("{workload}-seed{}.json", args.seed));
        if let Err(e) = write_chrome_trace(&path, &span_log) {
            eprintln!("could not write {}: {e}", path.display());
        }
    } else {
        m.set("setup_s", setup, "s");
        m.set("exact_s", exact_s, "s");
        m.set("recon_s", recon_s, "s");
        m.set("accuracy", accuracy, "1");
        let rates: Vec<f64> = untraced.iter().map(|s| JOBS as f64 / s).collect();
        m.set("jobs_per_s", median(&rates), "1/s");
        m.set("job_latency_p50_s", median(&latency), "s");
        m.set("peak_rss_mb", peak_rss, "MiB");
    }
    Outcome { tally, metrics: m }
}

/// Per-layer view of one batch, from the public `JobReport`s and
/// `RuntimeStats`: the workers build their executors internally, so no
/// decorator reaches inside a shared job.
fn batch_metrics(batch: &Batch) -> Metrics {
    let mut m = Metrics::default();
    let reports: Vec<&JobReport> = batch.reports.iter().flatten().collect();
    let mut memo = MemoStats::new();
    for r in &reports {
        memo.merge(&r.memo);
    }
    for op in USFFT_OPS {
        let s = memo.op(op);
        fft_metrics(
            op,
            s.compute_seconds,
            engine_computes(&memo, op) as f64,
            &mut m,
        );
        m.set(format!("lamino.chunks.{op:?}"), s.total() as f64, "count");
    }
    memo_metrics(&memo, &mut m);
    m.set(
        "memo.cache_hit_rate",
        median(&reports.iter().map(|r| r.cache_hit_rate).collect::<Vec<_>>()),
        "1",
    );
    m.set("store.encoded", memo.total().keys_encoded as f64, "count");
    let st = &batch.stats;
    m.set("store.probes", st.store.queries as f64, "count");
    m.set("store.inserts", st.store.inserts as f64, "count");
    m.set("store.entries", st.store.entries as f64, "count");
    m.set(
        "store.resident_mb",
        st.store.resident_bytes as f64 / MIB,
        "MiB",
    );
    parallel_metrics(&st.parallel, &mut m);

    let queue: Vec<f64> = reports.iter().map(|r| r.queue_seconds).collect();
    let run: Vec<f64> = reports.iter().map(|r| r.run_seconds).collect();
    m.set("runtime.queue_wait_p50_s", median(&queue), "s");
    m.set("runtime.run_p50_s", median(&run), "s");
    m.set("runtime.makespan_s", batch.makespan_s, "s");
    m.set("runtime.utilisation", st.utilisation(), "1");
    m.set("runtime.rejected", st.rejected as f64, "count");
    m.set("runtime.hit_rate", st.hit_rate(), "1");
    m.set("runtime.store_queries", st.store.queries as f64, "count");
    m.set("runtime.cross_job_hit_rate", st.cross_job_hit_rate(), "1");
    m.set(
        "runtime.store_resident_mb",
        st.store.resident_bytes as f64 / MIB,
        "MiB",
    );
    m.set(
        "runtime.jobs_no_reuse",
        reports.iter().filter(|r| r.avoided_fraction == 0.0).count() as f64,
        "count",
    );
    m
}
