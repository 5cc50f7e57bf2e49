//! Benchmark-owned tracing: an in-memory span recorder and timing
//! decorators around the program's public `FftExecutor` and `MemoStore`
//! traits. Nothing inside the program is instrumented; every span is taken
//! at a call that crosses one of those two seams (or, for the runtime, at
//! `submit` / `wait_report`).

use mlr_lamino::{ChunkRequest, FftExecutor, FftOpKind};
use mlr_math::Complex64;
use mlr_memo::{
    ChunkFingerprint, MemoDbConfig, MemoStore, ProbeOutcome, Provenance, QueryOutcome, StoreStats,
};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The four memoizable operators, in the order metrics are reported.
pub const USFFT_OPS: [FftOpKind; 4] = [
    FftOpKind::Fu1D,
    FftOpKind::Fu1DAdj,
    FftOpKind::Fu2D,
    FftOpKind::Fu2DAdj,
];

/// What a span covers. The nesting is job → iteration → operator batch →
/// chunk compute / store call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Job,
    Iteration,
    Batch(FftOpKind),
    Compute(FftOpKind),
    StoreEncode,
    StorePrefilter,
    StoreProbe,
    StoreCommit,
    StoreInsert,
    StoreOther,
    Submit,
    Wait,
}

impl SpanKind {
    pub fn name(self) -> String {
        match self {
            SpanKind::Job => "job".into(),
            SpanKind::Iteration => "iteration".into(),
            SpanKind::Batch(op) => format!("batch.{op:?}"),
            SpanKind::Compute(op) => format!("compute.{op:?}"),
            SpanKind::StoreEncode => "store.encode".into(),
            SpanKind::StorePrefilter => "store.prefilter".into(),
            SpanKind::StoreProbe => "store.probe".into(),
            SpanKind::StoreCommit => "store.commit".into(),
            SpanKind::StoreInsert => "store.insert".into(),
            SpanKind::StoreOther => "store.other".into(),
            SpanKind::Submit => "runtime.submit".into(),
            SpanKind::Wait => "runtime.wait".into(),
        }
    }
}

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the span covers: chunks of a batch, elements (input +
    /// output) of a compute, inputs of an encode, 1 otherwise.
    pub items: u64,
    /// Thread the span ran on (a small dense index, for trace export).
    pub thread: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans in memory. Ids start at 1; parent 0 means "root".
///
/// The open job, iteration and batch are tracked in atomics so that store
/// calls made from the engine's worker threads find their parent batch.
/// The solver opens at most one batch at a time, so one slot per level is
/// enough.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    job: AtomicU64,
    iteration: AtomicU64,
    iteration_start: AtomicU64,
    batch: AtomicU64,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            job: AtomicU64::new(0),
            iteration: AtomicU64::new(0),
            iteration_start: AtomicU64::new(0),
            batch: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The innermost open span: the running batch, else the running
    /// iteration, else the job (0 outside any job).
    fn current_parent(&self) -> u64 {
        [&self.batch, &self.iteration, &self.job]
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .find(|&id| id != 0)
            .unwrap_or(0)
    }

    fn close(&self, id: u64, parent: u64, kind: SpanKind, start_ns: u64, items: u64) {
        let span = Span {
            id,
            parent,
            kind,
            start_ns,
            end_ns: self.now_ns(),
            items,
            thread: THREAD_ID.with(|t| *t),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Times `f` as a leaf span under the innermost open span.
    pub fn leaf<T>(&self, kind: SpanKind, items: u64, f: impl FnOnce() -> T) -> T {
        let parent = self.current_parent();
        let start = self.now_ns();
        let out = f();
        self.close(self.new_id(), parent, kind, start, items);
        out
    }

    /// Runs one exact chunk compute as a span under `parent`; its items are
    /// the input plus output elements.
    fn compute(
        &self,
        parent: u64,
        kind: FftOpKind,
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
        input: &[Complex64],
    ) -> Vec<Complex64> {
        let start = self.now_ns();
        let out = compute(input);
        let items = (input.len() + out.len()) as u64;
        self.close(self.new_id(), parent, SpanKind::Compute(kind), start, items);
        out
    }

    /// Runs `f` as one job span; iterations opened inside are closed with it.
    pub fn job<T>(&self, f: impl FnOnce() -> T) -> T {
        let id = self.new_id();
        let start = self.now_ns();
        self.job.store(id, Ordering::Release);
        let out = f();
        self.end_iteration();
        self.job.store(0, Ordering::Release);
        self.close(id, 0, SpanKind::Job, start, 1);
        out
    }

    fn begin_iteration(&self) {
        self.end_iteration();
        let id = self.new_id();
        self.iteration_start.store(self.now_ns(), Ordering::Release);
        self.iteration.store(id, Ordering::Release);
    }

    fn end_iteration(&self) {
        let id = self.iteration.swap(0, Ordering::AcqRel);
        if id != 0 {
            let start = self.iteration_start.load(Ordering::Acquire);
            let job = self.job.load(Ordering::Acquire);
            self.close(id, job, SpanKind::Iteration, start, 1);
        }
    }

    /// Takes every span recorded so far, sorted by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Writes spans as a Chrome trace-event file (loadable in Perfetto).
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"items\":{}}}}}{sep}",
            s.kind.name(),
            s.thread,
            s.start_ns as f64 * 1e-3,
            (s.end_ns - s.start_ns) as f64 * 1e-3,
            s.id,
            s.parent,
            s.items,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Timing decorator around any [`FftExecutor`]: one span per operator batch
/// (`execute_batch_into`), one per exact chunk compute (the wrapped
/// `ChunkRequest::compute` closures), and one per outer iteration
/// (`begin_iteration`). Every trait method is forwarded, so the wrapped
/// executor sees exactly the calls it would see unwrapped.
pub struct TimedExecutor<'a> {
    inner: &'a dyn FftExecutor,
    rec: Arc<Recorder>,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a dyn FftExecutor, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

type ComputeFn<'c> = dyn Fn(&[Complex64]) -> Vec<Complex64> + Sync + 'c;

impl FftExecutor for TimedExecutor<'_> {
    fn execute(
        &self,
        kind: FftOpKind,
        loc: usize,
        input: &[Complex64],
        compute: &dyn Fn(&[Complex64]) -> Vec<Complex64>,
    ) -> Vec<Complex64> {
        let parent = self.rec.current_parent();
        let timed = |x: &[Complex64]| self.rec.compute(parent, kind, compute, x);
        self.inner.execute(kind, loc, input, &timed)
    }

    fn execute_batch_into(
        &self,
        kind: FftOpKind,
        batch: &[ChunkRequest<'_>],
        outputs: &mut [&mut [Complex64]],
    ) {
        let rec = &self.rec;
        let id = rec.new_id();
        let parent = rec.current_parent();
        let start = rec.now_ns();
        rec.batch.store(id, Ordering::Release);
        let wrapped: Vec<Box<ComputeFn<'_>>> = batch
            .iter()
            .map(|r| {
                let compute = r.compute;
                Box::new(move |x: &[Complex64]| rec.compute(id, kind, compute, x))
                    as Box<ComputeFn<'_>>
            })
            .collect();
        let requests: Vec<ChunkRequest<'_>> = batch
            .iter()
            .zip(&wrapped)
            .map(|(r, w)| ChunkRequest {
                loc: r.loc,
                input: r.input,
                compute: &**w,
            })
            .collect();
        self.inner.execute_batch_into(kind, &requests, outputs);
        rec.batch.store(0, Ordering::Release);
        rec.close(id, parent, SpanKind::Batch(kind), start, batch.len() as u64);
    }

    fn begin_iteration(&self, iteration: usize) {
        self.rec.begin_iteration();
        self.inner.begin_iteration(iteration);
    }

    fn finish(&self) {
        self.inner.finish();
    }
}

/// Timing decorator around any [`MemoStore`]. It forwards **every** trait
/// method, including the ones the trait defaults (`encode_batch`,
/// `has_fingerprint_neighbor`, `note_fingerprint`, `is_empty`, `pressure`):
/// falling back to a default would admit every chunk past the norm
/// prefilter and silently change what the engine does.
pub struct TimedStore {
    inner: Arc<dyn MemoStore>,
    rec: Arc<Recorder>,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn MemoStore>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl MemoStore for TimedStore {
    fn config(&self) -> MemoDbConfig {
        self.inner.config()
    }

    fn encode(&self, input: &[Complex64]) -> Vec<f64> {
        self.rec
            .leaf(SpanKind::StoreEncode, 1, || self.inner.encode(input))
    }

    fn encode_batch(&self, inputs: &[&[Complex64]]) -> Vec<Vec<f64>> {
        self.rec
            .leaf(SpanKind::StoreEncode, inputs.len() as u64, || {
                self.inner.encode_batch(inputs)
            })
    }

    fn has_fingerprint_neighbor(&self, op: FftOpKind, loc: usize, fp: &ChunkFingerprint) -> bool {
        self.rec.leaf(SpanKind::StorePrefilter, 1, || {
            self.inner.has_fingerprint_neighbor(op, loc, fp)
        })
    }

    fn note_fingerprint(&self, op: FftOpKind, loc: usize, fp: ChunkFingerprint) {
        self.rec.leaf(SpanKind::StorePrefilter, 1, || {
            self.inner.note_fingerprint(op, loc, fp)
        })
    }

    fn query_with_key(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: Vec<f64>,
        origin: Provenance,
    ) -> QueryOutcome {
        self.rec.leaf(SpanKind::StoreProbe, 1, || {
            self.inner.query_with_key(op, loc, input, key, origin)
        })
    }

    fn probe_with_key(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: &[f64],
        origin: Provenance,
    ) -> ProbeOutcome {
        self.rec.leaf(SpanKind::StoreProbe, 1, || {
            self.inner.probe_with_key(op, loc, input, key, origin)
        })
    }

    fn commit_hit(
        &self,
        op: FftOpKind,
        loc: usize,
        entry: u64,
        entry_origin: Provenance,
        origin: Provenance,
    ) {
        self.rec.leaf(SpanKind::StoreCommit, 1, || {
            self.inner.commit_hit(op, loc, entry, entry_origin, origin)
        })
    }

    fn commit_miss(&self, op: FftOpKind, loc: usize) {
        self.rec
            .leaf(SpanKind::StoreCommit, 1, || self.inner.commit_miss(op, loc))
    }

    fn reclaim_expired(&self, op: FftOpKind, loc: usize, entry: u64) {
        self.rec.leaf(SpanKind::StoreCommit, 1, || {
            self.inner.reclaim_expired(op, loc, entry)
        })
    }

    fn insert(
        &self,
        op: FftOpKind,
        loc: usize,
        input: &[Complex64],
        key: Vec<f64>,
        output: Vec<Complex64>,
        origin: Provenance,
        recompute_cost: f64,
    ) -> u64 {
        self.rec.leaf(SpanKind::StoreInsert, 1, || {
            self.inner
                .insert(op, loc, input, key, output, origin, recompute_cost)
        })
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn value_bytes(&self) -> u64 {
        self.inner.value_bytes()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn advance_epoch(&self) -> u64 {
        self.rec
            .leaf(SpanKind::StoreOther, 1, || self.inner.advance_epoch())
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn pressure(&self) -> f64 {
        self.inner.pressure()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn comparisons_per_query(&self) -> f64 {
        self.inner.comparisons_per_query()
    }

    fn train_encoder(&self, samples: &[Vec<Complex64>], epochs: usize) -> f64 {
        self.inner.train_encoder(samples, epochs)
    }
}
