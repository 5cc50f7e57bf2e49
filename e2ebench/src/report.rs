//! Metric collection, summary statistics and the one-line JSON result.

use mlr_solver::AdmmResult;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Metrics by name → (value, unit). A `BTreeMap` so output order repeats.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Per-metric median over several reps (every rep reports the same names).
    pub fn median_of<'a>(reps: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let reps: Vec<&Metrics> = reps.into_iter().collect();
        let mut out = Metrics::default();
        if let Some(first) = reps.first() {
            for (name, (_, unit)) in &first.0 {
                let values: Vec<f64> = reps.iter().filter_map(|m| m.get(name)).collect();
                out.set(name.clone(), median(&values), unit);
            }
        }
        out
    }
}

/// Outcome of one benchmark run: the output checks and the metrics.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line. A non-finite metric is an error of the benchmark,
    /// so it marks the run incorrect rather than printing invalid JSON.
    pub fn to_json(&self) -> String {
        let Tally { attempted, failed } = self.tally;
        let mut correct = failed == 0 && attempted > 0;
        let fields: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() {
                    *value
                } else {
                    correct = false;
                    -1.0
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        )
    }
}

/// Median (mean of the middle two for an even count; NaN for no samples).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bit-for-bit equality of two reconstructions.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

/// SplitMix64: derives the problem seeds of a run from its workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks every reconstruction must pass: finite, and not stopped early.
pub fn sane(result: &AdmmResult) -> bool {
    all_finite(result.reconstruction.as_slice()) && result.stopped.is_none()
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Tally of checked operations.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Paces a closed loop over `--seconds`: the next unit of work starts while
/// fewer than `min` units ran, or while a whole unit (at the mean pace so
/// far) still fits before the deadline, so a run does not overshoot its
/// budget.
pub struct Pace {
    start: Instant,
    deadline: Instant,
    started: u64,
    min: u64,
}

impl Pace {
    pub fn new(seconds: f64, min: u64) -> Self {
        let start = Instant::now();
        Self {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            started: 0,
            min,
        }
    }

    /// Whether to start another unit; counts it if so.
    pub fn next(&mut self) -> bool {
        let go = self.started < self.min || {
            let mean = self.start.elapsed() / self.started as u32;
            Instant::now() + mean < self.deadline
        };
        self.started += u64::from(go);
        go
    }

    /// Units started so far.
    pub fn started(&self) -> u64 {
        self.started
    }
}
