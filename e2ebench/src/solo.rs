//! Single-reconstruction workloads: a closed loop of one client that sets
//! up, solves exactly and memoizes one sample (phantom) after another.

use crate::attribution::{
    engine_computes, exact_metrics, parallel_metrics, recon_metrics, solution_metrics,
    store_size_metrics,
};
use crate::report::{
    bit_identical, derive_seed, median, peak_rss_mb, sane, timed, Metrics, Outcome, Pace, Tally,
};
use crate::trace::{write_chrome_trace, Recorder, SpanKind, TimedExecutor, TimedStore, USFFT_OPS};
use crate::Args;
use mlr_core::{MlrConfig, MlrPipeline};
use mlr_lamino::DirectExecutor;
use mlr_memo::{
    LocalMemoStore, MemoDatabase, MemoDbConfig, MemoStats, MemoStore, MemoizedExecutor,
};
use mlr_solver::{AdmmResult, AdmmSolver};
use std::hint::black_box;
use std::sync::Arc;

/// Pipeline constructions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest samples per run, whatever `--seconds` says.
const MIN_SAMPLES: u64 = 2;

/// Problem shape of a solo workload.
pub struct Solo {
    pub n: usize,
    pub angles: usize,
    pub iterations: usize,
    pub tau: f64,
    pub threads: usize,
}

impl Solo {
    /// The problem of sample `index` of a run with workload seed `seed`.
    fn config(&self, seed: u64, index: u64) -> MlrConfig {
        let mut config = MlrConfig::quick(self.n, self.angles)
            .with_iterations(self.iterations)
            .with_tau(self.tau)
            .with_intra_job_threads(self.threads);
        config.problem.seed = derive_seed(seed, 100 + index);
        config
    }
}

/// The outcome counters that must repeat exactly between two runs of one
/// problem (timings excluded).
fn counts(stats: &MemoStats) -> Vec<u64> {
    USFFT_OPS
        .iter()
        .flat_map(|&op| {
            let s = stats.op(op);
            [
                s.computed,
                s.failed_memo,
                s.db_hits,
                s.cache_hits,
                s.prefiltered,
                s.keys_encoded,
                s.remote_bytes,
            ]
        })
        .collect()
}

/// Builds the pipeline of one sample `SETUP_REPS` times; returns the last
/// one and every construction time.
fn setup(solo: &Solo, args: &Args, index: u64) -> (MlrPipeline, Vec<f64>) {
    let config = solo.config(args.seed, index);
    eprintln!(
        "sample {index}: {}^3, {} angles, {} iterations, tau {}, {} thread(s), phantom seed {}",
        solo.n, solo.angles, solo.iterations, solo.tau, solo.threads, config.problem.seed
    );
    let mut times = Vec::new();
    let mut pipeline = None;
    for _ in 0..SETUP_REPS {
        let (p, s) = timed(|| black_box(MlrPipeline::new(black_box(config))));
        times.push(s);
        pipeline = Some(p);
    }
    (pipeline.expect("SETUP_REPS > 0"), times)
}

/// Untraced run: the end-to-end metrics. Samples (distinct phantoms) are
/// reconstructed one after another until `--seconds` have passed: each is
/// set up, solved exactly once and memoized once; the first sample is
/// memoized twice, and the two reps must agree bit-for-bit.
pub fn run(solo: &Solo, args: &Args) -> Outcome {
    let mut pace = Pace::new(args.seconds, MIN_SAMPLES);
    let mut tally = Tally::default();
    let (mut setups, mut exacts, mut recons, mut accuracy) = (vec![], vec![], vec![], vec![]);
    while pace.next() {
        let index = pace.started() - 1;
        let (pipeline, setup_s) = setup(solo, args, index);
        setups.extend(setup_s);
        let (exact, exact_s) = timed(|| pipeline.run_exact());
        exacts.push(exact_s);
        tally.check(sane(&exact), "exact reconstruction finite");

        let reps = if index == 0 { 2 } else { 1 };
        let mut first: Option<(AdmmResult, Vec<u64>)> = None;
        for _ in 0..reps {
            let ((result, executor), s) = timed(|| pipeline.run_memoized());
            recons.push(s);
            let stats = counts(&executor.stats());
            let ok = sane(&result)
                && first.as_ref().is_none_or(|(r, c)| {
                    bit_identical(
                        r.reconstruction.as_slice(),
                        result.reconstruction.as_slice(),
                    ) && *c == stats
                });
            tally.check(
                ok,
                "memoized rep finite and bit-identical to the sample's first rep",
            );
            if first.is_none() {
                first = Some((result, stats));
            }
        }
        let (result, _) = first.expect("reps > 0");
        accuracy.push(mlr_solver::accuracy_vs_reference(
            &exact.reconstruction,
            &result.reconstruction,
        ));
    }
    eprintln!(
        "{} samples; exact median {:.3} s; {} memoized calls, median {:.3} s; accuracy {:.4?}",
        pace.started(),
        median(&exacts),
        recons.len(),
        median(&recons),
        accuracy
    );

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), "s");
    m.set("exact_s", median(&exacts), "s");
    // One client in a closed loop with no queue: a job's latency is its
    // reconstruction time, and throughput is its reciprocal.
    let recon_s = median(&recons);
    m.set("recon_s", recon_s, "s");
    m.set("job_latency_p50_s", recon_s, "s");
    m.set("jobs_per_s", 1.0 / recon_s, "1/s");
    m.set("accuracy", median(&accuracy), "1");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    Outcome { tally, metrics: m }
}

/// `run_exact` through the timing decorator, as one job span.
pub fn traced_exact(pipeline: &MlrPipeline, rec: &Arc<Recorder>) -> AdmmResult {
    rec.job(|| {
        let exec = TimedExecutor::new(&DirectExecutor, rec.clone());
        AdmmSolver::new(pipeline.config().admm).run_with(
            pipeline.operator(),
            &pipeline.dataset().projections,
            &exec,
        )
    })
}

/// Runs one memoized reconstruction exactly as `run_memoized` builds it, but
/// with the benchmark's timing decorators around the store and executor.
fn traced_memoized(
    pipeline: &MlrPipeline,
    rec: &Arc<Recorder>,
) -> (AdmmResult, MemoizedExecutor, f64) {
    let config = pipeline.config();
    let db_config = MemoDbConfig {
        tau: config.memo.tau,
        budget: config.memo.budget,
        eviction: config.memo.eviction,
        ..Default::default()
    };
    let db = MemoDatabase::new(db_config, pipeline.encoder_config(), config.problem.seed);
    let store: Arc<dyn MemoStore> = Arc::new(TimedStore::new(
        Arc::new(LocalMemoStore::new(db)),
        rec.clone(),
    ));
    let executor = MemoizedExecutor::with_store(config.memo, store, 0)
        .with_parallelism(config.intra_job_threads, None);
    let solver = AdmmSolver::new(config.admm);
    let projections = &pipeline.dataset().projections;
    let (result, s) = timed(|| {
        rec.job(|| {
            let timed_exec = TimedExecutor::new(&executor, rec.clone());
            solver.run_with(pipeline.operator(), projections, &timed_exec)
        })
    });
    (result, executor, s)
}

/// Traced run: the per-layer metrics. Untraced and traced reps alternate;
/// every traced rep must reproduce the untraced reconstruction bit-for-bit
/// with the same outcome counters.
pub fn run_traced(solo: &Solo, args: &Args, workload: &str) -> Outcome {
    let mut pace = Pace::new(args.seconds, 2);
    let (pipeline, _) = setup(solo, args, 0);
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    let (exact, exact_s) = timed(|| pipeline.run_exact());
    let rec = Recorder::new();
    let (exact_traced, exact_traced_s) = timed(|| traced_exact(&pipeline, &rec));
    tally.check(
        sane(&exact)
            && bit_identical(
                exact.reconstruction.as_slice(),
                exact_traced.reconstruction.as_slice(),
            ),
        "traced exact run bit-identical to run_exact",
    );
    let mut exact_spans = rec.drain();
    exact_metrics(&exact_spans, exact_traced_s, &mut m);
    m.set("exact.wall_s", exact_traced_s, "s");
    solution_metrics(&pipeline.dataset().ground_truth, &exact, &mut m);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut per_rep = Vec::new();
    let mut reference: Option<(AdmmResult, MemoizedExecutor)> = None;
    let mut last_spans = Vec::new();
    while pace.next() {
        let ((result, executor), s) = timed(|| pipeline.run_memoized());
        untraced.push(s);
        if let Some((r, e)) = &reference {
            tally.check(
                bit_identical(
                    r.reconstruction.as_slice(),
                    result.reconstruction.as_slice(),
                ) && counts(&e.stats()) == counts(&executor.stats()),
                "memoized rep bit-identical to the first rep",
            );
        }
        let reference = reference.get_or_insert((result, executor));

        let (t_result, t_executor, t_s) = traced_memoized(&pipeline, &rec);
        traced.push(t_s);
        let spans = rec.drain();
        let stats = t_executor.stats();
        let same_counts = counts(&stats) == counts(&reference.1.stats());
        let fft_counts_agree = USFFT_OPS.iter().all(|&op| {
            let seen = spans
                .iter()
                .filter(|s| s.kind == SpanKind::Compute(op))
                .count() as u64;
            seen == engine_computes(&stats, op)
        });
        let p = t_executor.parallel_stats();
        let q = reference.1.parallel_stats();
        tally.check(
            sane(&t_result)
                && bit_identical(
                    reference.0.reconstruction.as_slice(),
                    t_result.reconstruction.as_slice(),
                )
                && same_counts
                && (p.batches, p.chunks) == (q.batches, q.chunks),
            "traced rep bit-identical to run_memoized with equal MemoStats",
        );
        tally.check(
            fft_counts_agree,
            "compute spans match the engine's exact-FFT outcome counts",
        );

        let mut rep = Metrics::default();
        recon_metrics(&spans, t_s, &stats, &t_result.history, &mut rep);
        let cache = t_executor.cache_stats();
        rep.set("memo.cache_hit_rate", cache.hit_rate(), "1");
        rep.set("memo.cache_lookups", cache.lookups as f64, "count");
        let store = t_executor.store();
        store_size_metrics(store.len(), store.resident_bytes(), &mut rep);
        rep.set("bench.spans", spans.len() as f64, "count");
        per_rep.push(rep);
        last_spans = spans;
    }
    let (reference, reference_exec) = reference.expect("at least one rep ran");
    m.extend(Metrics::median_of(&per_rep));
    parallel_metrics(&reference_exec.parallel_stats(), &mut m);

    let untraced_s = median(&untraced);
    let traced_s = median(&traced);
    m.set("bench.trace_overhead", traced_s / untraced_s - 1.0, "1");
    m.set("bench.untraced_s", untraced_s, "s");
    m.set("bench.traced_s", traced_s, "s");
    m.set("core.speedup_vs_exact", exact_s / untraced_s, "1");
    m.set("core.exact_s", exact_s, "s");
    m.set("core.recon_s", untraced_s, "s");
    let accuracy =
        mlr_solver::accuracy_vs_reference(&exact.reconstruction, &reference.reconstruction);
    eprintln!(
        "traced: {} reps, overhead {:+.1} %, accuracy {accuracy:.4}",
        traced.len(),
        100.0 * (traced_s / untraced_s - 1.0)
    );

    exact_spans.extend(last_spans);
    let path = std::path::PathBuf::from(crate::TRACE_DIR)
        .join(format!("{workload}-seed{}.json", args.seed));
    if let Err(e) = write_chrome_trace(&path, &exact_spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
    Outcome { tally, metrics: m }
}
