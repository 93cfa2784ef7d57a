//! The scenario engine: cached, admission-controlled job execution.

use crate::cache::{gamma_decade, ArtifactCache, CacheSizes, DcKey, PlanKey, SetupKey};
use crate::job::{CacheReport, ExecutionMode, Hit, HitPath, JobId, JobOutcome, JobSpec, JobStatus};
use crate::ServeError;
use matex_circuit::MnaSystem;
use matex_core::{
    CancelToken, FaultHook, KrylovKind, MatexOptions, MatexSetup, MatexSolver, MatexSymbolic,
    SmwOptions, TransientEngine,
};
use matex_dist::{list_schedule_makespan, plan_groups, run_distributed, DistributedOptions};
use matex_par::{AdmitError, AdmitRequest, ParOptions, ParPool, ThreadBudget};
use matex_store::{ArtifactStore, DcStoreKey, PlanStoreKey, SetupStoreKey, SymbolicStoreKey};
use matex_waveform::GroupingStrategy;
use matex_waveform::SpotSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`ScenarioEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Total thread budget shared by all concurrently running jobs
    /// (admission control never oversubscribes it). `None` uses
    /// [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
    /// Executor threads draining the job queue (the maximum number of
    /// jobs *attempting* admission at once).
    pub executors: usize,
    /// Kernel threads per monolithic job / total intra-node budget per
    /// distributed job. `0` (default) runs the legacy serial kernels —
    /// the reference point for bitwise comparisons against standalone
    /// runs.
    pub kernel_threads: usize,
    /// Default worker count for distributed jobs that leave `workers`
    /// unset.
    pub dist_workers: usize,
    /// Maximum distinct circuit structures kept in the artifact cache
    /// (whole-circuit LRU eviction beyond this).
    pub max_circuits: usize,
    /// Resolved job outcomes retained for polling/streaming. Beyond
    /// this, the oldest resolved job's outcome (its full waveform) is
    /// dropped and its status becomes [`JobStatus::Expired`], so a
    /// long-running service's memory is bounded by recent traffic.
    /// Outcomes the TCP service has already streamed to a client leave
    /// this window: they count as delivered, and only the few most
    /// recently delivered are kept (for re-streams) before they expire.
    pub max_retained: usize,
    /// How many γ decades away a symbolic anchor may be reused
    /// (`0` = exact decade only).
    pub anchor_span: i32,
    /// Maximum touched-row rank a value edit may have to be served by
    /// the what-if fast path (Sherman–Morrison–Woodbury correction of a
    /// cached base factorization). `0` disables the fast path.
    pub whatif_max_rank: usize,
    /// Fully-prepared systems retained per pattern as what-if base
    /// candidates. `0` disables the fast path.
    pub whatif_bases: usize,
    /// Maximum jobs waiting in the engine queue. Beyond this,
    /// [`ScenarioEngine::submit`] rejects immediately with
    /// [`ServeError::Rejected`] and a `retry_after` hint instead of
    /// queueing without bound — the overload-safety valve: admitted
    /// jobs' latency stays bounded by `max_queue` service times, and
    /// excess offered load is shed at the door.
    pub max_queue: usize,
    /// Disk-backed artifact store shared by the fleet. When set, every
    /// in-memory cache miss consults the store before computing, and
    /// every computed artifact is written back — so a restarted (or
    /// newly joined) engine pointed at the same directory hydrates its
    /// cache from disk and skips the cold path, bitwise. `None`
    /// (default) keeps the engine purely in-memory.
    pub store: Option<Arc<ArtifactStore>>,
    /// Compute-failure retry budget: a job whose execution fails or
    /// panics is retried (after quarantining the cached artifacts it
    /// ran against and sleeping `retry_backoff`) up to this many times
    /// before the failure surfaces. Cancellations and missed deadlines
    /// are never retried. Default 1.
    pub max_compute_retries: usize,
    /// Base backoff slept before each compute retry (doubled per
    /// attempt).
    pub retry_backoff: Duration,
    /// Per-node retry budget forwarded to distributed runs (see
    /// [`matex_dist::DistributedOptions::max_node_retries`]).
    pub max_node_retries: usize,
    /// Ceiling on every `retry_after` hint the engine emits (rejections
    /// and drain estimates). A miscalibrated cost model can otherwise
    /// tell clients to back off for minutes. Default 60 s.
    pub retry_after_cap: Duration,
    /// Fault-injection hook threaded into every job's solver options,
    /// distributed runs, and (via [`matex_store::StoreOptions`]) the
    /// artifact store the caller opens. Disarmed by default.
    pub faults: FaultHook,
    /// Observability handle threaded into every job's solver options
    /// and distributed runs, plus the engine's own queue-wait / run
    /// spans (hit-path labeled), admission counters, and latency
    /// histograms. Disabled by default: one branch per event, and job
    /// waveforms are bitwise-unchanged either way.
    pub obs: matex_obs::Obs,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: None,
            executors: 2,
            kernel_threads: 0,
            dist_workers: 2,
            max_circuits: 32,
            max_retained: 1024,
            anchor_span: 1,
            whatif_max_rank: 16,
            whatif_bases: 4,
            max_queue: 256,
            store: None,
            max_compute_retries: 1,
            retry_backoff: Duration::from_millis(10),
            max_node_retries: 1,
            retry_after_cap: Duration::from_secs(60),
            faults: FaultHook::default(),
            obs: matex_obs::Obs::disabled(),
        }
    }
}

/// Monotonic counters of engine activity (a snapshot; see
/// [`ScenarioEngine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs accepted by [`ScenarioEngine::submit`] or run synchronously.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs that hit the full numeric-setup cache (skipped all
    /// factorization).
    pub warm_jobs: u64,
    /// Symbolic-analysis cache hits (exact or neighbouring anchor).
    pub symbolic_hits: u64,
    /// Symbolic analyses performed (cache misses + replanted anchors).
    pub symbolic_misses: u64,
    /// Numeric-setup cache hits.
    pub setup_hits: u64,
    /// Numeric setups prepared.
    pub setup_misses: u64,
    /// DC-solution cache hits.
    pub dc_hits: u64,
    /// Group-plan cache hits.
    pub plan_hits: u64,
    /// Jobs served by the what-if fast path (low-rank correction of a
    /// cached base setup instead of refactoring).
    pub whatif_hits: u64,
    /// Cumulative touched-row rank across what-if hits (average edit
    /// rank = `whatif_rank / whatif_hits`).
    pub whatif_rank: u64,
    /// What-if candidates that fell back to a full preparation (edit
    /// rank above the cap, or an ill-conditioned capture matrix).
    pub whatif_fallbacks: u64,
    /// Fresh symbolic anchors replanted after a cached anchor's pivots
    /// stopped surviving replay.
    pub anchor_plants: u64,
    /// Jobs refused at submit time (queue full or deadline predicted
    /// unmeetable).
    pub rejected: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Deadlines missed: jobs dropped unstarted past their deadline,
    /// jobs that gave up waiting for threads, and jobs that completed
    /// late.
    pub deadline_misses: u64,
    /// Jobs currently waiting in the engine queue (a gauge, not a
    /// counter).
    pub queue_depth: u64,
    /// Whole-circuit LRU evictions from the artifact cache.
    pub evictions: u64,
    /// Artifacts hydrated from the disk-backed store (cache misses
    /// served without recomputation).
    pub store_hits: u64,
    /// Artifacts persisted to the disk-backed store.
    pub store_writes: u64,
    /// Store I/O failures absorbed by computing through (never
    /// surfaced to jobs).
    pub store_errors: u64,
    /// Job panics contained by the engine's supervision (executor- or
    /// compute-level), payload message preserved in the job error.
    pub panics: u64,
    /// Compute retries performed after a failed or panicked execution.
    pub retries: u64,
    /// Cached artifacts quarantined (evicted for recompute) after the
    /// execution they served failed.
    pub quarantined: u64,
    /// Artifact counts currently cached.
    pub cache: CacheSizes,
}

impl EngineStats {
    /// Fraction of resolved jobs that ran on the warm path.
    pub fn warm_rate(&self) -> f64 {
        let done = self.completed.max(1);
        self.warm_jobs as f64 / done as f64
    }
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    warm_jobs: AtomicU64,
    symbolic_hits: AtomicU64,
    symbolic_misses: AtomicU64,
    setup_hits: AtomicU64,
    setup_misses: AtomicU64,
    dc_hits: AtomicU64,
    plan_hits: AtomicU64,
    whatif_hits: AtomicU64,
    whatif_rank: AtomicU64,
    whatif_fallbacks: AtomicU64,
    anchor_plants: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    deadline_misses: AtomicU64,
    store_hits: AtomicU64,
    store_writes: AtomicU64,
    panics: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
}

/// Queue order: priority class, deadline tier, instant, id.
type Rank = (u8, u8, Instant, JobId);

/// One job of an `Inner::schedule` forecast.
struct Planned {
    rank: Rank,
    /// Predicted seconds until its outcome is delivered.
    eta: f64,
    /// Whether that is past its deadline.
    late: bool,
}

struct JobRecord {
    /// The job until an executor takes it to run, so a resolved record
    /// keeps no circuit alive (boxed: the table keeps one record per
    /// job ever submitted).
    spec: Option<Box<JobSpec>>,
    /// Priority class ([`matex_par::Priority::class`]).
    class: u8,
    status: JobStatus,
    submitted_at: Instant,
    /// Absolute deadline (submission time + the spec's relative one).
    deadline_at: Option<Instant>,
    /// Predicted service cost in LTS units (the `GroupPlan` makespan
    /// proxy), fixed at submission.
    units: f64,
    /// Cooperative cancel token observed by the running solver.
    cancel: CancelToken,
}

impl JobRecord {
    /// Queue rank: strict priority class, then EDF (deadline-less jobs
    /// rank infinitely late and fall back to FIFO among themselves).
    fn rank(&self, id: JobId) -> Rank {
        match self.deadline_at {
            Some(d) => (self.class, 0, d, id),
            None => (self.class, 1, self.submitted_at, id),
        }
    }
}

#[derive(Default)]
struct JobTable {
    records: Vec<JobRecord>,
    queue: VecDeque<JobId>,
    /// Resolved, undelivered job ids (and when they resolved) in
    /// completion order, for outcome retention (`max_retained`).
    resolved: VecDeque<(JobId, Instant)>,
    /// Delivered job ids in delivery order (at most `MAX_DELIVERED`).
    delivered: VecDeque<JobId>,
    /// The jobs executors are running now (at most `executors`).
    running: Vec<RunningJob>,
    /// When `running` last changed (their `load` is settled up to it).
    load_at: Option<Instant>,
    /// Seconds per predicted unit, learned from completed jobs.
    cost: CostModel,
}

impl JobTable {
    /// Charges each running job for the time since `running` last
    /// changed, times how many jobs ran in it. Called on every change.
    fn settle_load(&mut self, now: Instant) {
        let n = self.running.len() as f64;
        let dt = self
            .load_at
            .map_or(0.0, |t| now.saturating_duration_since(t).as_secs_f64());
        for r in &mut self.running {
            r.load += n * dt;
        }
        self.load_at = Some(now);
    }
}

/// A job an executor took off the queue, for deadline triage.
struct RunningJob {
    id: JobId,
    started: Instant,
    units: f64,
    /// Job-seconds of all running jobs while this one ran: divided by
    /// its run time, how many jobs ran at once on average.
    load: f64,
}

/// Admission's service-time model, learned from completed jobs.
///
/// Jobs running at once slow each other down when they share cores,
/// caches and memory bandwidth with each other and with whatever else
/// runs on the host (a client on the same machine, for one). So the
/// cost per unit is kept per concurrency level. Like TCP's
/// retransmission timer (RFC 6298), each level keeps a smoothed mean
/// and a smoothed mean deviation that follow the host's current load.
/// Deadline triage prices shared work at the mean plus `DEV_WEIGHT`
/// deviations, so it admits a deadline when a slow run would still meet
/// it, not an average one.
#[derive(Debug, Default)]
struct CostModel {
    /// Per concurrency level (how many jobs ran at once, minus one):
    /// seconds of execution per predicted LTS unit, as (mean,
    /// deviation); a zero mean where no job has run at that level.
    unit_secs: Vec<(f64, f64)>,
    /// Seconds from a job's resolution until its outcome was delivered
    /// (its `stream` reply flushed), for jobs a client streamed.
    delivery_secs: f64,
}

/// Deviations added to the mean cost (see [`CostModel`]).
const DEV_WEIGHT: f64 = 4.0;

impl CostModel {
    /// Seconds per unit before any job completed (conservative).
    const PRIOR: f64 = 1e-3;
    /// Weight of a new sample in the smoothed means.
    const GAIN: f64 = 1.0 / 8.0;
    /// Weight of a new sample in the smoothed deviations.
    const DEV_GAIN: f64 = 1.0 / 4.0;

    /// Folds in a job of `units` that ran for `wall` with `level` jobs
    /// running at once (itself included).
    fn observe(&mut self, units: f64, wall: Duration, level: usize) {
        if units <= 0.0 {
            return;
        }
        let x = wall.as_secs_f64() / units;
        let at = level.max(1) - 1;
        if self.unit_secs.len() <= at {
            self.unit_secs.resize(at + 1, (0.0, 0.0));
        }
        let (mean, dev) = &mut self.unit_secs[at];
        if *mean == 0.0 {
            (*mean, *dev) = (x, x / 2.0);
        } else {
            *dev += ((x - *mean).abs() - *dev) * Self::DEV_GAIN;
            *mean += (x - *mean) * Self::GAIN;
        }
    }

    fn observe_delivery(&mut self, took: Duration) {
        self.delivery_secs += (took.as_secs_f64() - self.delivery_secs) * Self::GAIN;
    }

    /// Seconds per unit with `level` jobs running at once: the mean
    /// plus `devs` deviations. A level no job has run at yet is priced
    /// from the nearest level below it as if running more jobs at once
    /// gained nothing: deadline triage then admits a job at a new level
    /// only when its deadline holds even so, and jobs without deadlines
    /// measure the level.
    fn unit_secs(&self, level: usize, devs: f64) -> f64 {
        let level = level.max(1);
        (1..=level.min(self.unit_secs.len()))
            .rev()
            .map(|l| (l, self.unit_secs[l - 1]))
            .find(|&(_, (mean, _))| mean > 0.0)
            .map_or(Self::PRIOR, |(l, (mean, dev))| {
                (mean + devs * dev) * level as f64 / l as f64
            })
    }
}

/// Delivered outcomes kept for re-streams. A client that streamed a job
/// has its waveform; keeping the newest few still lets it (or a peer)
/// stream a recent job again, without holding one waveform per job of
/// the last `max_retained`.
pub(crate) const MAX_DELIVERED: usize = 32;

struct Inner {
    opts: EngineOptions,
    cache: ArtifactCache,
    budget: ThreadBudget,
    table: Mutex<JobTable>,
    queue_cv: Condvar,
    done_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    /// Idle kernel pools (each `kernel_threads` wide), reused across
    /// monolithic jobs so the warm fast path never pays thread spawn.
    idle_pools: Mutex<Vec<Arc<ParPool>>>,
}

/// The scenario engine: accepts [`JobSpec`]s, amortizes per-circuit
/// analysis through a structure-fingerprint cache, and multiplexes
/// concurrent jobs over a fixed thread budget.
///
/// # Example
///
/// ```
/// use matex_circuit::PdnBuilder;
/// use matex_core::TransientSpec;
/// use matex_serve::{EngineOptions, JobSpec, ScenarioEngine};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = ScenarioEngine::new(EngineOptions::default());
/// let grid = Arc::new(PdnBuilder::new(6, 6).num_loads(8).window(1e-9).build()?);
/// let spec = TransientSpec::new(0.0, 1e-9, 2e-11)?;
/// let cold = engine.run(&JobSpec::new(grid.clone(), spec.clone()))?;
/// let warm = engine.run(&JobSpec::new(grid, spec))?;
/// assert!(!cold.cache.is_warm() && warm.cache.is_warm());
/// // Cache hits replay the identical factors: waveforms are bitwise equal.
/// assert_eq!(cold.result.series(), warm.result.series());
/// # Ok(())
/// # }
/// ```
pub struct ScenarioEngine {
    inner: Arc<Inner>,
    executors: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ScenarioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEngine")
            .field("opts", &self.inner.opts)
            .field("executors", &self.executors.len())
            .finish()
    }
}

impl ScenarioEngine {
    /// Starts an engine with `opts.executors` queue-draining threads.
    pub fn new(opts: EngineOptions) -> ScenarioEngine {
        let threads = opts.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let inner = Arc::new(Inner {
            cache: ArtifactCache::new(opts.max_circuits),
            budget: ThreadBudget::new(threads),
            table: Mutex::new(JobTable::default()),
            queue_cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            idle_pools: Mutex::new(Vec::new()),
            opts,
        });
        let executors = (0..inner.opts.executors.max(1))
            .map(|k| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("matex-serve-exec-{k}"))
                    .spawn(move || executor_loop(&inner))
                    .expect("spawn engine executor")
            })
            .collect();
        ScenarioEngine { inner, executors }
    }

    /// The configured options.
    pub fn options(&self) -> &EngineOptions {
        &self.inner.opts
    }

    /// Queues a job; returns its id immediately. Queued jobs run in
    /// strict priority order, EDF within a class (see
    /// [`JobSpec::priority`] / [`JobSpec::deadline`]); the order never
    /// changes any admitted job's waveform, only when it runs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] after the engine began
    /// shutting down, or [`ServeError::Rejected`] — with a
    /// `retry_after` hint computed from the queued predicted cost —
    /// when the queue is at `max_queue`, when the job's deadline is
    /// already unmeetable under the learned cost estimates, or when
    /// admitting it would make a queued job miss its deadline.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let now = Instant::now();
        let units = self.inner.predicted_units(&spec);
        let deadline_at = spec.deadline.map(|d| now + d);
        let mut table = self.inner.lock_table();
        if table.queue.len() >= self.inner.opts.max_queue {
            let retry_after = self.inner.drain_estimate(&table);
            drop(table);
            self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            self.inner.opts.obs.add_labeled(
                "engine_rejected_total",
                &[("reason", "queue_full")],
                1,
            );
            return Err(ServeError::Rejected {
                reason: format!("queue full ({} jobs)", self.inner.opts.max_queue),
                retry_after,
            });
        }
        let id = table.records.len() as JobId;
        let mut record = JobRecord {
            spec: None,
            class: spec.priority.class(),
            status: JobStatus::Queued,
            submitted_at: now,
            deadline_at,
            units,
            cancel: CancelToken::new(),
        };
        // Deadline triage: a deadline the estimate already rules out is
        // refused now — cheaper for everyone than queueing a job that
        // will be dropped at its deadline later. So is a job that would
        // run ahead of queued ones (EDF) and make one of them miss a
        // deadline it would have met.
        if let Some(d) = spec.deadline {
            let me = record.rank(id);
            let before = self.inner.schedule(&table, None, now);
            let after = self
                .inner
                .schedule(&table, Some((me, units, deadline_at)), now);
            let misses = |plan: &[Planned]| plan.iter().filter(|p| p.rank != me && p.late).count();
            let eta = after.iter().find(|p| p.rank == me).map_or(0.0, |p| p.eta);
            let displaces = misses(&after) > misses(&before);
            if eta > d.as_secs_f64() || displaces {
                let retry_after = self.inner.drain_estimate(&table);
                drop(table);
                self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.opts.obs.add_labeled(
                    "engine_rejected_total",
                    &[("reason", "deadline")],
                    1,
                );
                return Err(ServeError::Rejected {
                    reason: if displaces {
                        "deadline unmeetable without a queued job missing its own".into()
                    } else {
                        format!(
                            "deadline unmeetable (predicted {:.1}ms > deadline {:.1}ms)",
                            eta * 1e3,
                            d.as_secs_f64() * 1e3
                        )
                    },
                    retry_after,
                });
            }
        }
        record.spec = Some(Box::new(spec));
        table.records.push(record);
        table.queue.push_back(id);
        let depth = table.queue.len();
        drop(table);
        self.inner
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        if self.inner.opts.obs.is_enabled() {
            self.inner.opts.obs.add("engine_submitted_total", 1);
            self.inner
                .opts
                .obs
                .gauge("engine_queue_depth", depth as i64);
        }
        self.inner.queue_cv.notify_one();
        Ok(id)
    }

    /// Cancels a job. A queued job is removed from the queue and
    /// resolves to [`JobStatus::Cancelled`] immediately; a running job
    /// has its cooperative token tripped and resolves to `Cancelled` at
    /// the solver's next transient-step (or distributed node) boundary,
    /// returning its thread lease with it. Jobs already resolved are
    /// left untouched.
    ///
    /// Returns the job's status as observed *after* the cancellation
    /// attempt, or `None` for an unknown id. Cancelling never perturbs
    /// other jobs' results or the artifact cache.
    pub fn cancel(&self, id: JobId) -> Option<JobStatus> {
        let mut table = self.inner.lock_table();
        let status = table.records.get(id as usize)?.status.clone();
        match status {
            JobStatus::Queued => {
                table.queue.retain(|&q| q != id);
                let rec = &mut table.records[id as usize];
                rec.status = JobStatus::Cancelled;
                rec.spec = None;
                // Trip the token too: an executor that popped the id
                // concurrently must not start the solve.
                rec.cancel.cancel();
                drop(table);
                self.inner
                    .counters
                    .cancelled
                    .fetch_add(1, Ordering::Relaxed);
                self.inner
                    .opts
                    .obs
                    .add_labeled("engine_cancelled_total", &[("at", "queued")], 1);
                self.inner.done_cv.notify_all();
                Some(JobStatus::Cancelled)
            }
            JobStatus::Running => {
                table.records[id as usize].cancel.cancel();
                Some(JobStatus::Running)
            }
            other => Some(other),
        }
    }

    /// The job's current status, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let table = self.inner.lock_table();
        table.records.get(id as usize).map(|r| r.status.clone())
    }

    /// Blocks until the job finishes; returns its outcome.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an unsubmitted id, or the job's
    /// own failure as [`ServeError::InvalidJob`] text.
    pub fn wait(&self, id: JobId) -> Result<Arc<JobOutcome>, ServeError> {
        let mut table = self.inner.lock_table();
        loop {
            match table.records.get(id as usize) {
                None => return Err(ServeError::UnknownJob(id)),
                Some(r) => match &r.status {
                    JobStatus::Done(out) => return Ok(out.clone()),
                    JobStatus::Failed(msg) => return Err(ServeError::InvalidJob(msg.clone())),
                    JobStatus::Cancelled => return Err(ServeError::Cancelled(id)),
                    JobStatus::Expired => {
                        return Err(ServeError::InvalidJob(format!(
                            "job {id} resolved but its outcome expired (retention limit)"
                        )))
                    }
                    _ => {
                        table = self
                            .inner
                            .done_cv
                            .wait(table)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                },
            }
        }
    }

    /// Runs a job synchronously on the calling thread, still under
    /// admission control and against the shared cache. This is the
    /// engine's core execution path — the queued path calls it too.
    ///
    /// # Errors
    ///
    /// Propagates circuit/solver/distributed failures.
    pub fn run(&self, spec: &JobSpec) -> Result<JobOutcome, ServeError> {
        let seq = self
            .inner
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let out = self.inner.admit_and_execute(spec, seq);
        self.inner.note_result(&out);
        out
    }

    /// Marks a done job's outcome as delivered (the TCP service calls
    /// this once a `stream` reply was flushed). It leaves the
    /// `max_retained` window and joins the delivered ones, of which only
    /// the newest [`MAX_DELIVERED`] are kept; older ones expire. A
    /// re-delivered job becomes the newest again.
    pub(crate) fn mark_delivered(&self, id: JobId) {
        let mut table = self.inner.lock_table();
        let table = &mut *table;
        if !matches!(
            table.records.get(id as usize).map(|r| &r.status),
            Some(JobStatus::Done(_))
        ) {
            return;
        }
        // A first delivery times the path from resolution to the client.
        if let Some(pos) = table.resolved.iter().rposition(|&(r, _)| r == id) {
            if let Some((_, resolved_at)) = table.resolved.remove(pos) {
                table.cost.observe_delivery(resolved_at.elapsed());
            }
        }
        if let Some(pos) = table.delivered.iter().rposition(|&r| r == id) {
            table.delivered.remove(pos);
        }
        table.delivered.push_back(id);
        while table.delivered.len() > MAX_DELIVERED {
            if let Some(old) = table.delivered.pop_front() {
                table.records[old as usize].status = JobStatus::Expired;
            }
        }
    }

    /// A consistent snapshot of the engine's counters and cache sizes.
    ///
    /// Every field is an independent atomic, so a single read pass can
    /// observe a torn state mid-flight (e.g. a job counted in
    /// `completed` but not yet in `warm_jobs`). This method re-reads
    /// until two consecutive passes agree (bounded retries), so the
    /// returned struct is a state the engine actually passed through —
    /// the one snapshot path shared by the TCP `stats`/`metrics` verbs
    /// and the tests.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats_snapshot()
    }

    /// The engine's observability handle ([`EngineOptions::obs`]) — the
    /// TCP service exports its Prometheus page and Chrome trace, and
    /// embedders can read quantiles directly. Disabled by default.
    pub fn obs(&self) -> &matex_obs::Obs {
        &self.inner.opts.obs
    }
}

impl Drop for ScenarioEngine {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.queue_cv.notify_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

fn executor_loop(inner: &Inner) {
    loop {
        let (id, spec, submitted_at, deadline_at, units, cancel) = {
            let mut table = inner.lock_table();
            loop {
                // Pop the best-ranked queued job: strict priority class
                // first, EDF within a class, FIFO among deadline-less
                // peers. The queue is bounded (`max_queue`), so the
                // linear scan stays cheap.
                let best = table
                    .queue
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &q)| table.records[q as usize].rank(q))
                    .map(|(pos, _)| pos);
                if let Some(pos) = best {
                    let id = table.queue.remove(pos).expect("position just observed");
                    let units = table.records[id as usize].units;
                    let now = Instant::now();
                    table.settle_load(now);
                    table.running.push(RunningJob {
                        id,
                        started: now,
                        units,
                        load: 0.0,
                    });
                    let rec = &mut table.records[id as usize];
                    rec.status = JobStatus::Running;
                    break (
                        id,
                        *rec.spec.take().expect("a queued job holds its spec"),
                        rec.submitted_at,
                        rec.deadline_at,
                        rec.units,
                        rec.cancel.clone(),
                    );
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                table = inner
                    .queue_cv
                    .wait(table)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let queue_wait = submitted_at.elapsed();
        if inner.opts.obs.is_enabled() {
            inner
                .opts
                .obs
                .record_span("engine.queue_wait", id, submitted_at, queue_wait, &[]);
            inner
                .opts
                .obs
                .observe("engine_queue_wait_seconds", queue_wait);
        }
        // A job already past its deadline is dropped unstarted: running
        // it would burn capacity on an answer nobody is waiting for.
        let dead_on_arrival = deadline_at.is_some_and(|d| Instant::now() >= d);
        let exec_started = Instant::now();
        // Panic isolation: a job that panics must resolve to Failed —
        // never leave its record stuck in Running (wedging every waiter)
        // or kill this executor thread. The budget lease is RAII, so it
        // is returned during the unwind.
        let outcome = if dead_on_arrival {
            Err(ServeError::DeadlineMissed(
                "deadline passed while queued".into(),
            ))
        } else if cancel.is_cancelled() {
            Err(ServeError::Cancelled(id))
        } else {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner.admit_and_execute_cancellable(&spec, deadline_at, Some(&cancel), id)
            })) {
                Ok(out) => out,
                Err(payload) => {
                    // Panics escaping the compute retry loop (admission,
                    // bookkeeping): still contained, payload preserved.
                    inner.counters.panics.fetch_add(1, Ordering::Relaxed);
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    Err(ServeError::InvalidJob(format!("job panicked: {msg}")))
                }
            }
        };
        // Accounting: cancellations are neither completions nor
        // failures; deadline givenups count as misses; completed jobs
        // calibrate the admission cost model (below, under the table
        // lock) and count as late when they resolve past their deadline.
        let exec_wall = exec_started.elapsed();
        match &outcome {
            Ok(_) => {
                if let Some(d) = deadline_at {
                    if Instant::now() > d {
                        inner
                            .counters
                            .deadline_misses
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                inner.note_result(&outcome);
            }
            Err(e) if e.is_cancelled() => {
                inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                inner
                    .opts
                    .obs
                    .add_labeled("engine_cancelled_total", &[("at", "running")], 1);
            }
            Err(ServeError::DeadlineMissed(_)) => {
                inner
                    .counters
                    .deadline_misses
                    .fetch_add(1, Ordering::Relaxed);
                inner.counters.failed.fetch_add(1, Ordering::Relaxed);
                inner
                    .opts
                    .obs
                    .add_labeled("engine_deadline_misses_total", &[("at", "queued")], 1);
            }
            Err(_) => inner.note_result(&outcome),
        }
        let mut table = inner.lock_table();
        let now = Instant::now();
        table.settle_load(now);
        if let Some(pos) = table.running.iter().position(|r| r.id == id) {
            let ran = table.running.swap_remove(pos);
            if outcome.is_ok() {
                let secs = now.duration_since(ran.started).as_secs_f64();
                let level = if secs > 0.0 { ran.load / secs } else { 1.0 };
                table.cost.observe(units, exec_wall, level.round() as usize);
            }
        }
        table.records[id as usize].status = match outcome {
            Ok(mut out) => {
                out.queue_wait = queue_wait;
                JobStatus::Done(Arc::new(out))
            }
            Err(e) if e.is_cancelled() => JobStatus::Cancelled,
            Err(e) => JobStatus::Failed(e.to_string()),
        };
        // Outcome retention: a long-running service must not accumulate
        // every waveform it ever computed. Beyond the limit, the oldest
        // resolved job keeps its id but drops its payload.
        table.resolved.push_back((id, Instant::now()));
        while table.resolved.len() > inner.opts.max_retained.max(1) {
            if let Some((old, _)) = table.resolved.pop_front() {
                table.records[old as usize].status = JobStatus::Expired;
            }
        }
        drop(table);
        inner.done_cv.notify_all();
    }
}

impl Inner {
    fn lock_table(&self) -> std::sync::MutexGuard<'_, JobTable> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One full read pass over every counter (torn when racing).
    fn read_stats(&self) -> EngineStats {
        let c = &self.counters;
        EngineStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            warm_jobs: c.warm_jobs.load(Ordering::Relaxed),
            symbolic_hits: c.symbolic_hits.load(Ordering::Relaxed),
            symbolic_misses: c.symbolic_misses.load(Ordering::Relaxed),
            setup_hits: c.setup_hits.load(Ordering::Relaxed),
            setup_misses: c.setup_misses.load(Ordering::Relaxed),
            dc_hits: c.dc_hits.load(Ordering::Relaxed),
            plan_hits: c.plan_hits.load(Ordering::Relaxed),
            whatif_hits: c.whatif_hits.load(Ordering::Relaxed),
            whatif_rank: c.whatif_rank.load(Ordering::Relaxed),
            whatif_fallbacks: c.whatif_fallbacks.load(Ordering::Relaxed),
            anchor_plants: c.anchor_plants.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline_misses: c.deadline_misses.load(Ordering::Relaxed),
            queue_depth: self.lock_table().queue.len() as u64,
            evictions: self.cache.evictions(),
            store_hits: c.store_hits.load(Ordering::Relaxed),
            store_writes: c.store_writes.load(Ordering::Relaxed),
            store_errors: self.opts.store.as_ref().map_or(0, |s| s.io_errors()),
            panics: c.panics.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            cache: self.cache.sizes(),
        }
    }

    /// Double-read-until-stable snapshot: two identical consecutive
    /// passes prove no counter moved mid-read, so the snapshot is
    /// internally consistent. Under sustained churn the retry budget
    /// runs out and the last pass is returned (best effort — identical
    /// to the historical single-pass behaviour).
    fn stats_snapshot(&self) -> EngineStats {
        let mut prev = self.read_stats();
        for _ in 0..8 {
            let cur = self.read_stats();
            if cur == prev {
                return cur;
            }
            prev = cur;
        }
        prev
    }

    fn note_result(&self, out: &Result<JobOutcome, ServeError>) {
        match out {
            Ok(o) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                if o.cache.is_warm() {
                    self.counters.warm_jobs.fetch_add(1, Ordering::Relaxed);
                }
                self.opts.obs.add("engine_completed_total", 1);
            }
            Err(_) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                self.opts.obs.add("engine_failed_total", 1);
            }
        }
    }

    /// Threads the job will occupy while running.
    fn demand(&self, spec: &JobSpec) -> usize {
        match &spec.mode {
            ExecutionMode::Monolithic => self.opts.kernel_threads.max(1),
            ExecutionMode::Distributed { workers, .. } => {
                let w = workers.unwrap_or(self.opts.dist_workers).max(1);
                // Each worker owns max(1, kernel/workers) kernel threads.
                w * (self.opts.kernel_threads / w).max(1)
            }
        }
    }

    fn admit_and_execute(&self, spec: &JobSpec, job_id: u64) -> Result<JobOutcome, ServeError> {
        let deadline_at = spec.deadline.map(|d| Instant::now() + d);
        self.admit_and_execute_cancellable(spec, deadline_at, None, job_id)
    }

    fn admit_and_execute_cancellable(
        &self,
        spec: &JobSpec,
        deadline_at: Option<Instant>,
        cancel: Option<&CancelToken>,
        job_id: u64,
    ) -> Result<JobOutcome, ServeError> {
        let t0 = Instant::now();
        // Thread admission inherits the job's class and deadline: a
        // high-priority job outranks queued normal acquirers, and a job
        // whose deadline passes while waiting for threads gives up
        // instead of running uselessly late.
        let mut req = AdmitRequest::new(self.demand(spec)).priority(spec.priority);
        if let Some(d) = deadline_at {
            req = req.deadline(d);
        }
        let lease = match self.budget.acquire_admit(req) {
            Ok(l) => l,
            Err(AdmitError::DeadlineExpired) => {
                self.opts.obs.add_labeled(
                    "engine_deadline_misses_total",
                    &[("at", "admission")],
                    1,
                );
                return Err(ServeError::DeadlineMissed(
                    "deadline passed while waiting for threads".into(),
                ));
            }
            Err(e) => {
                self.opts
                    .obs
                    .add_labeled("engine_rejected_total", &[("reason", "admission")], 1);
                return Err(ServeError::Rejected {
                    reason: e.to_string(),
                    retry_after: Duration::from_millis(
                        (self.lock_table().cost.unit_secs(1, 0.0) * 1e3).clamp(
                            1.0,
                            (self.opts.retry_after_cap.as_secs_f64() * 1e3).max(1.0),
                        ) as u64,
                    ),
                });
            }
        };
        // Transient-failure recovery: each attempt runs under its own
        // catch_unwind so solver panics are retryable too. A failed
        // attempt quarantines the cached artifacts it executed against
        // (evict + recompute) so one corrupted cache entry cannot poison
        // every subsequent hit, then backs off and recomputes.
        // Cancellations and missed deadlines are terminal.
        let mut attempt = 0usize;
        let mut out = loop {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.execute(spec, cancel, job_id)
            }))
            .unwrap_or_else(|payload| {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(ServeError::InvalidJob(format!("job panicked: {msg}")))
            });
            match result {
                Ok(out) => break out,
                Err(e) => {
                    let terminal = e.is_cancelled()
                        || matches!(e, ServeError::DeadlineMissed(_))
                        || cancel.is_some_and(|c| c.is_cancelled())
                        || deadline_at.is_some_and(|d| Instant::now() >= d)
                        || attempt >= self.opts.max_compute_retries;
                    if terminal {
                        return Err(e);
                    }
                    self.quarantine(spec);
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    self.opts.obs.add("engine_retries_total", 1);
                    let backoff = self.opts.retry_backoff.saturating_mul(1 << attempt.min(16));
                    if !backoff.is_zero() {
                        let b0 = Instant::now();
                        std::thread::sleep(backoff);
                        self.opts
                            .obs
                            .record_span("engine.backoff", job_id, b0, b0.elapsed(), &[]);
                    }
                    attempt += 1;
                }
            }
        };
        drop(lease);
        out.wall = t0.elapsed();
        // The job span: admission wait + every attempt, labeled with
        // the hit path the (final) execution actually took.
        if self.opts.obs.is_enabled() {
            let path = out.cache.hit_path.label();
            self.opts
                .obs
                .record_span("engine.run", job_id, t0, out.wall, &[("path", path)]);
            self.opts
                .obs
                .observe_labeled("engine_job_seconds", &[("path", path)], out.wall);
            self.opts
                .obs
                .add_labeled("engine_jobs_total", &[("path", path)], 1);
        }
        Ok(out)
    }

    /// Evicts the cached numeric artifacts a failed execution ran
    /// against — the setup and the DC solution for the job's exact keys
    /// — so the retry (and every later job) recomputes them instead of
    /// re-hitting a possibly corrupted entry. Disk-store records are
    /// checksummed, so hydration after the eviction is safe.
    fn quarantine(&self, job: &JobSpec) {
        let Ok(sys) = job.effective_circuit() else {
            return;
        };
        let opts = job.effective_options();
        let pattern = sys.pattern_fingerprint();
        let value_fp = sys.value_fingerprint();
        let key = SetupKey {
            value_fp,
            kind: opts.kind,
            gamma_bits: opts.gamma.to_bits(),
            regularize_bits: opts.regularize_eps.to_bits(),
            scheduled: self.opts.kernel_threads > 0,
        };
        let dc_key = DcKey {
            value_fp,
            source_fp: sys.source_fingerprint(),
            t_start_bits: job.spec.t_start().to_bits(),
        };
        let mut evicted = 0;
        if self.cache.remove_setup(pattern, &key) {
            evicted += 1;
        }
        if self.cache.remove_dc(pattern, &dc_key) {
            evicted += 1;
        }
        self.counters
            .quarantined
            .fetch_add(evicted, Ordering::Relaxed);
        self.opts.obs.add("engine_quarantined_total", evicted);
    }

    /// Predicted service cost of a job in LTS units — the scheduling
    /// currency the `GroupPlan` makespan model uses. Monolithic jobs
    /// cost the union of their sources' transition spots (the number of
    /// fresh Krylov subspaces the march must build); distributed jobs
    /// cost the LPT makespan over the cached plan's group LTS counts
    /// when the plan is cached, else an equal-split estimate. Pure
    /// waveform arithmetic on the base circuit — never assembles or
    /// factors anything, so `submit` stays cheap.
    fn predicted_units(&self, job: &JobSpec) -> f64 {
        let t0 = job.spec.t_start();
        let t1 = job.spec.t_stop();
        let spots: Vec<SpotSet> = job
            .circuit
            .sources()
            .iter()
            .map(|s| SpotSet::from_times(s.waveform.transition_spots(t1)))
            .collect();
        let total = SpotSet::union(&spots).clip(t0, t1).len().max(1) as f64;
        match &job.mode {
            ExecutionMode::Monolithic => total,
            ExecutionMode::Distributed { strategy, workers } => {
                let w = workers.unwrap_or(self.opts.dist_workers).max(1);
                let pattern = job.circuit.pattern_fingerprint();
                let plan_key = PlanKey {
                    source_fp: job.circuit.source_fingerprint(),
                    strategy: strategy_tag(*strategy),
                    t_start_bits: t0.to_bits(),
                    t_stop_bits: t1.to_bits(),
                };
                match self.cache.plan(pattern, &plan_key) {
                    Some(plan) => {
                        let costs: Vec<f64> =
                            plan.jobs().iter().map(|j| j.lts.len() as f64).collect();
                        list_schedule_makespan(plan.order(), &costs, w).max(1.0)
                    }
                    None => (total / w as f64).max(1.0),
                }
            }
        }
    }

    /// The queued jobs, and `extra` (rank, units, deadline) about to
    /// join them, as the executors will run them: each executor is busy
    /// for the rest of its running job, and jobs go in rank order to the
    /// executor that frees up first. A job's `eta` (seconds from `now`)
    /// adds its own execution and the usual time to deliver an outcome.
    /// Work is priced at the cost of running as many jobs at once as
    /// there will be, with a margin for slow runs. A lone job on an idle
    /// engine is priced at the mean: nothing could serve it sooner, and
    /// refusing it protects no one.
    fn schedule(
        &self,
        table: &JobTable,
        extra: Option<(Rank, f64, Option<Instant>)>,
        now: Instant,
    ) -> Vec<Planned> {
        let mut jobs: Vec<(Rank, f64, Option<Instant>)> = table
            .queue
            .iter()
            .map(|&q| {
                let r = &table.records[q as usize];
                (r.rank(q), r.units, r.deadline_at)
            })
            .chain(extra)
            .collect();
        jobs.sort_by_key(|&(rank, ..)| rank);
        let executors = self.opts.executors.max(1);
        let level = (table.running.len() + jobs.len()).clamp(1, executors);
        let devs = if table.running.is_empty() && jobs.len() == 1 {
            0.0
        } else {
            DEV_WEIGHT
        };
        let unit_secs = table.cost.unit_secs(level, devs);
        let mut free: Vec<f64> = table
            .running
            .iter()
            .map(|r| {
                let ran = now.saturating_duration_since(r.started).as_secs_f64();
                (r.units * unit_secs - ran).max(0.0)
            })
            .collect();
        free.resize(executors.max(free.len()), 0.0);
        jobs.into_iter()
            .map(|(rank, units, deadline)| {
                let first = (0..free.len())
                    .min_by(|&a, &b| free[a].total_cmp(&free[b]))
                    .expect("at least one executor");
                free[first] += units * unit_secs;
                let eta = free[first] + table.cost.delivery_secs;
                Planned {
                    rank,
                    eta,
                    late: deadline
                        .is_some_and(|d| d.saturating_duration_since(now).as_secs_f64() < eta),
                }
            })
            .collect()
    }

    /// Estimated time for the current queue to drain — the structured
    /// `retry_after` hint attached to rejections: total queued predicted
    /// cost divided across the executor threads.
    fn drain_estimate(&self, table: &JobTable) -> Duration {
        let queued: f64 = table
            .queue
            .iter()
            .map(|&q| table.records[q as usize].units)
            .sum();
        let secs = (queued / self.opts.executors.max(1) as f64)
            * table.cost.unit_secs(self.opts.executors, 0.0);
        // Clamp to a sane hint window: at least 1ms (a plain busy signal
        // still means "back off"), at most the configured ceiling — a
        // miscalibrated cost model must not tell clients to disappear
        // for minutes.
        let cap = self.opts.retry_after_cap.as_secs_f64().max(1e-3);
        Duration::from_secs_f64(secs.clamp(1e-3, cap))
    }

    /// Takes an idle kernel pool (or spawns one) when kernel threads
    /// are configured. Pools are returned by [`Inner::return_pool`] and
    /// reused, so warm jobs never pay per-job thread spawn.
    fn take_pool(&self) -> Option<Arc<ParPool>> {
        if self.opts.kernel_threads == 0 {
            return None;
        }
        let recycled = self
            .idle_pools
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        Some(recycled.unwrap_or_else(|| Arc::new(ParPool::new(self.opts.kernel_threads))))
    }

    /// Returns a pool to the idle list (bounded by the executor count —
    /// beyond that the pool is simply dropped).
    fn return_pool(&self, pool: Arc<ParPool>) {
        let mut idle = self.idle_pools.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < self.opts.executors.max(1) + 1 {
            idle.push(pool);
        }
    }

    /// Resolves cached artifacts and runs the job. The cancel token, if
    /// any, is observed by the solver between transient steps (and by
    /// distributed workers between node runs) — never inside a
    /// factorization or cache store, so cancellation cannot leave a
    /// half-written artifact behind.
    fn execute(
        &self,
        job: &JobSpec,
        cancel: Option<&CancelToken>,
        job_id: u64,
    ) -> Result<JobOutcome, ServeError> {
        let sys = job.effective_circuit()?;
        let mut opts = job.effective_options();
        // The engine's hook reaches the solver ("core.solver.run") of
        // every job it executes; disarmed hooks are free.
        opts.faults = self.opts.faults.clone();
        // So do its spans: the solver's phase spans carry this job's id
        // on the shared timeline. Disabled handles clone for free.
        opts.obs = self.opts.obs.tagged(job_id);
        let pattern = sys.pattern_fingerprint();
        let value_fp = sys.value_fingerprint();
        let mut report = CacheReport::default();
        let (setup, symbolic_hit, setup_hit, hit_path) =
            self.setup_for(&sys, &opts, pattern, value_fp)?;
        report.symbolic = symbolic_hit;
        report.setup = setup_hit;
        report.hit_path = hit_path;

        match &job.mode {
            ExecutionMode::Monolithic => {
                let source_fp = sys.source_fingerprint();
                let dc_key = DcKey {
                    value_fp,
                    source_fp,
                    t_start_bits: job.spec.t_start().to_bits(),
                };
                let dc_store_key = DcStoreKey {
                    value_fp,
                    source_fp,
                    t_start_bits: dc_key.t_start_bits,
                };
                let (x0, dc_hit) = match self.cache.dc(pattern, &dc_key) {
                    Some(x0) => (x0, Hit::Hit),
                    None => match self
                        .opts
                        .store
                        .as_ref()
                        .and_then(|st| st.load_dc(&dc_store_key))
                    {
                        Some(dc) => {
                            let x0 = Arc::new(dc);
                            self.cache.store_dc(pattern, dc_key, x0.clone());
                            self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                            (x0, Hit::Hit)
                        }
                        None => {
                            // The exact solve the solver would perform
                            // (SMW-corrected for what-if setups).
                            let x0 = Arc::new(setup.solve_g(&sys.bu_at(job.spec.t_start())));
                            self.cache.store_dc(pattern, dc_key, x0.clone());
                            if let Some(store) = &self.opts.store {
                                if store.save_dc(&dc_store_key, &x0).is_ok() {
                                    self.counters.store_writes.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            (x0, Hit::Miss)
                        }
                    },
                };
                if dc_hit == Hit::Hit {
                    self.counters.dc_hits.fetch_add(1, Ordering::Relaxed);
                }
                report.dc = dc_hit;
                let mut solver = MatexSolver::new(opts).with_setup(setup).with_dc(x0);
                if let Some(token) = cancel {
                    solver = solver.with_cancel(token.clone());
                }
                let pool = self.take_pool();
                if let Some(p) = &pool {
                    solver = solver.with_parallelism(p.clone());
                }
                let result = solver.run(&sys, &job.spec);
                if let Some(p) = pool {
                    self.return_pool(p);
                }
                let result = result?;
                Ok(JobOutcome {
                    result,
                    cache: report,
                    groups: None,
                    wall: Duration::ZERO,
                    queue_wait: Duration::ZERO,
                })
            }
            ExecutionMode::Distributed { strategy, workers } => {
                let source_fp = sys.source_fingerprint();
                let plan_key = PlanKey {
                    source_fp,
                    strategy: strategy_tag(*strategy),
                    t_start_bits: job.spec.t_start().to_bits(),
                    t_stop_bits: job.spec.t_stop().to_bits(),
                };
                let plan_store_key = PlanStoreKey {
                    source_fp,
                    strategy: plan_key.strategy,
                    t_start_bits: plan_key.t_start_bits,
                    t_stop_bits: plan_key.t_stop_bits,
                };
                let (plan, plan_hit) = match self.cache.plan(pattern, &plan_key) {
                    Some(p) => (p, Hit::Hit),
                    None => match self
                        .opts
                        .store
                        .as_ref()
                        .and_then(|st| st.load_plan(&plan_store_key))
                    {
                        Some(p) => {
                            let p = Arc::new(p);
                            self.cache.store_plan(pattern, plan_key, p.clone());
                            self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                            (p, Hit::Hit)
                        }
                        None => {
                            let p = Arc::new(plan_groups(&sys, &job.spec, *strategy));
                            self.cache.store_plan(pattern, plan_key, p.clone());
                            if let Some(store) = &self.opts.store {
                                if store.save_plan(&plan_store_key, &p).is_ok() {
                                    self.counters.store_writes.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            (p, Hit::Miss)
                        }
                    },
                };
                if plan_hit == Hit::Hit {
                    self.counters.plan_hits.fetch_add(1, Ordering::Relaxed);
                }
                report.plan = plan_hit;
                let groups = plan.num_jobs();
                let job_obs = opts.obs.clone();
                let dist_opts = DistributedOptions {
                    matex: opts,
                    strategy: *strategy,
                    workers: Some(workers.unwrap_or(self.opts.dist_workers).max(1)),
                    par: ParOptions::with_threads(self.opts.kernel_threads),
                    symbolic: None,
                    setup: Some(setup),
                    plan: Some(plan),
                    cancel: cancel.cloned(),
                    max_node_retries: self.opts.max_node_retries,
                    faults: self.opts.faults.clone(),
                    obs: job_obs,
                };
                let run = run_distributed(&sys, &job.spec, &dist_opts)?;
                Ok(JobOutcome {
                    result: run.result,
                    cache: report,
                    groups: Some(groups),
                    wall: Duration::ZERO,
                    queue_wait: Duration::ZERO,
                })
            }
        }
    }

    /// Resolves (or builds) the numeric setup for `(sys, opts)`:
    /// exact-value cache hit, else the what-if fast path (a low-rank
    /// correction of a retained base's factors), else a full
    /// preparation consulting the γ-decade symbolic anchors.
    fn setup_for(
        &self,
        sys: &Arc<MnaSystem>,
        opts: &MatexOptions,
        pattern: u64,
        value_fp: u64,
    ) -> Result<(Arc<MatexSetup>, Hit, Hit, HitPath), ServeError> {
        let scheduled = self.opts.kernel_threads > 0;
        let key = SetupKey {
            value_fp,
            kind: opts.kind,
            gamma_bits: opts.gamma.to_bits(),
            regularize_bits: opts.regularize_eps.to_bits(),
            scheduled,
        };
        if let Some(setup) = self.cache.setup(pattern, &key) {
            self.counters.setup_hits.fetch_add(1, Ordering::Relaxed);
            // The symbolic layer was not even consulted.
            return Ok((setup, Hit::Skipped, Hit::Hit, HitPath::Cache));
        }
        // An exact persisted setup beats the approximate what-if path:
        // hydrating it replays the original factors bitwise.
        if let Some(setup) = self
            .opts
            .store
            .as_ref()
            .and_then(|s| s.load_setup(&store_setup_key(&key)))
        {
            let setup = Arc::new(setup);
            self.cache.store_setup(pattern, key, setup.clone());
            self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
            // Persisted setups are uncorrected by construction, so the
            // hydrated system is a valid what-if base too.
            if self.opts.whatif_max_rank > 0 {
                self.cache
                    .record_base(pattern, value_fp, sys.clone(), self.opts.whatif_bases);
            }
            return Ok((setup, Hit::Skipped, Hit::Hit, HitPath::Store));
        }
        if let Some(setup) = self.try_whatif(sys, pattern, value_fp, &key) {
            self.cache.store_setup(pattern, key, setup.clone());
            return Ok((setup, Hit::Skipped, Hit::Whatif, HitPath::Whatif));
        }
        let sym_store_key = SymbolicStoreKey {
            pattern_fp: pattern,
            kind_tag: kind_wire_tag(opts.kind),
            gamma_decade: gamma_decade(opts.gamma),
        };
        let (symbolic, mut sym_hit) =
            match self
                .cache
                .symbolic(pattern, opts.kind, opts.gamma, self.opts.anchor_span)
            {
                Some((s, false)) => (s, Hit::Hit),
                Some((s, true)) => (s, Hit::Neighbor),
                None => {
                    // Disk anchor before fresh analysis: a persisted
                    // exact-decade anchor replays like a cache hit.
                    let (s, hit) = match self
                        .opts
                        .store
                        .as_ref()
                        .and_then(|st| st.load_symbolic(&sym_store_key))
                    {
                        Some(s) => {
                            self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                            (Arc::new(s), Hit::Hit)
                        }
                        None => {
                            let s = Arc::new(MatexSymbolic::analyze(sys, opts)?);
                            self.persist_symbolic(&sym_store_key, &s);
                            self.counters
                                .symbolic_misses
                                .fetch_add(1, Ordering::Relaxed);
                            (s, Hit::Miss)
                        }
                    };
                    self.cache
                        .store_symbolic(pattern, opts.kind, opts.gamma, s.clone());
                    (s, hit)
                }
            };
        // The engine factors here (the solver is handed the prepared
        // setup), so the solver's own factor span never fires on this
        // path — record the equivalent span at this site instead.
        let factor_t0 = opts.obs.is_enabled().then(Instant::now);
        let setup = MatexSetup::prepare(sys, opts, Some(&symbolic), scheduled)?;
        if let Some(t0) = factor_t0 {
            let d = t0.elapsed();
            opts.obs
                .record_span("solver.factor", opts.obs.job(), t0, d, &[]);
            opts.obs.observe("solver_factor_seconds", d);
        }
        // Survival check: a replay that fell back to full factorization
        // means the anchor's pinned pivots no longer apply at this γ (or
        // these values). The run is still bitwise-correct — the fallback
        // IS the full factorization — but future jobs deserve a fresh
        // anchor at this decade, so plant one.
        let expected = match opts.kind {
            KrylovKind::Rational => 2,
            _ => 1,
        };
        if sym_hit.is_hit() {
            if setup.refactorizations() < expected {
                let fresh = Arc::new(MatexSymbolic::analyze(sys, opts)?);
                self.persist_symbolic(&sym_store_key, &fresh);
                self.cache
                    .store_symbolic(pattern, opts.kind, opts.gamma, fresh);
                self.counters
                    .symbolic_misses
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.anchor_plants.fetch_add(1, Ordering::Relaxed);
                sym_hit = Hit::Miss;
            } else {
                self.counters.symbolic_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        let setup = Arc::new(setup);
        self.cache.store_setup(pattern, key, setup.clone());
        self.counters.setup_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.opts.store {
            if store.save_setup(&store_setup_key(&key), &setup).is_ok() {
                self.counters.store_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        // A fully-prepared (uncorrected) system is a base other
        // same-pattern jobs can correct against.
        if self.opts.whatif_max_rank > 0 {
            self.cache
                .record_base(pattern, value_fp, sys.clone(), self.opts.whatif_bases);
        }
        Ok((setup, sym_hit, Hit::Miss, HitPath::Cold))
    }

    /// The what-if fast path: finds the retained base whose values are
    /// closest to `sys` (minimal touched-row rank, value fingerprint as
    /// the deterministic tiebreak — independent of arrival order) and
    /// wraps its cached setup with SMW corrections. `None` sends the
    /// job to a full preparation.
    fn try_whatif(
        &self,
        sys: &Arc<MnaSystem>,
        pattern: u64,
        value_fp: u64,
        key: &SetupKey,
    ) -> Option<Arc<MatexSetup>> {
        if self.opts.whatif_max_rank == 0 || self.opts.whatif_bases == 0 {
            return None;
        }
        let mut best: Option<(usize, u64, matex_circuit::ValueDiff, Arc<MatexSetup>)> = None;
        let mut rejected = false;
        for (base_fp, base_sys) in self.cache.bases(pattern) {
            if base_fp == value_fp {
                continue;
            }
            let Some(diff) = sys.value_diff(&base_sys) else {
                continue;
            };
            let rank = diff.rank();
            if rank > self.opts.whatif_max_rank {
                rejected = true;
                continue;
            }
            let base_key = SetupKey {
                value_fp: base_fp,
                ..*key
            };
            // The base's factors must still be cached — and uncorrected
            // (corrections never chain).
            let Some(base_setup) = self.cache.setup(pattern, &base_key) else {
                continue;
            };
            if base_setup.is_corrected() {
                continue;
            }
            if best
                .as_ref()
                .is_none_or(|(r, fp, _, _)| (rank, base_fp) < (*r, *fp))
            {
                best = Some((rank, base_fp, diff, base_setup));
            }
        }
        let Some((rank, _, diff, base_setup)) = best else {
            if rejected {
                self.counters
                    .whatif_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
            }
            return None;
        };
        match MatexSetup::correct(base_setup, &diff, &self.smw_options()) {
            Ok(corrected) => {
                self.counters.whatif_hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .whatif_rank
                    .fetch_add(rank as u64, Ordering::Relaxed);
                Some(Arc::new(corrected))
            }
            Err(_) => {
                // Ill-conditioned capture (or over-rank per-matrix
                // update): refactor instead — bitwise the cold path.
                self.counters
                    .whatif_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn smw_options(&self) -> SmwOptions {
        SmwOptions {
            max_rank: self.opts.whatif_max_rank,
            ..SmwOptions::default()
        }
    }

    /// Best-effort write-back of a symbolic anchor (store failures are
    /// silent: the store is an accelerator, never a correctness
    /// dependency).
    fn persist_symbolic(&self, key: &SymbolicStoreKey, sym: &MatexSymbolic) {
        if let Some(store) = &self.opts.store {
            if store.save_symbolic(key, sym).is_ok() {
                self.counters.store_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Stable wire tag for a Krylov variant, shared with the store's key
/// encoding.
fn kind_wire_tag(kind: KrylovKind) -> u8 {
    match kind {
        KrylovKind::Standard => 0,
        KrylovKind::Inverted => 1,
        KrylovKind::Rational => 2,
    }
}

/// The store-side mirror of an in-memory [`SetupKey`].
fn store_setup_key(key: &SetupKey) -> SetupStoreKey {
    SetupStoreKey {
        value_fp: key.value_fp,
        kind_tag: kind_wire_tag(key.kind),
        gamma_bits: key.gamma_bits,
        regularize_bits: key.regularize_bits,
        scheduled: key.scheduled,
    }
}

/// Stable tag for plan-cache keys (injective over the strategies).
fn strategy_tag(s: GroupingStrategy) -> u64 {
    match s {
        GroupingStrategy::ByBumpFeature => 0,
        GroupingStrategy::BySource => 1,
        GroupingStrategy::Single => 2,
        GroupingStrategy::MaxGroups(k) => 3 + ((k as u64) << 8),
        // Future strategies fall into one shared slot; the run-time
        // GroupPlan::check still rejects any true mismatch.
        _ => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::PdnBuilder;
    use matex_core::TransientSpec;

    fn grid(seed: u64) -> Arc<MnaSystem> {
        Arc::new(
            PdnBuilder::new(6, 6)
                .num_loads(8)
                .num_features(3)
                .window(1e-9)
                .seed(seed)
                .build()
                .unwrap(),
        )
    }

    fn spec() -> TransientSpec {
        TransientSpec::new(0.0, 1e-9, 2e-11).unwrap()
    }

    #[test]
    fn stats_snapshots_are_internally_consistent_under_concurrent_load() {
        // Satellite-1 regression: `stats()` used to take one racing
        // pass over the independent atomics, so a poller could observe
        // skewed states (a job in `completed` but not yet `warm_jobs`,
        // or hit counters ahead of `submitted`). The double-read
        // snapshot must only return states whose accounting invariants
        // hold, no matter how hard it races the executors.
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 3,
            threads: Some(3),
            ..EngineOptions::default()
        }));
        let sys = grid(11);
        // Populate the cache synchronously first — otherwise two
        // executors can race the same cold miss and the final warm
        // count would depend on scheduling.
        engine.run(&JobSpec::new(sys.clone(), spec())).unwrap();
        let mut ids = Vec::new();
        for k in 0..12 {
            let job = JobSpec::new(sys.clone(), spec()).source_scale(1.0 + 0.05 * (k % 4) as f64);
            ids.push(engine.submit(job).unwrap());
        }
        // Poll snapshots while the fleet drains.
        let poller = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let s = engine.stats();
                    assert!(
                        s.completed + s.failed + s.cancelled <= s.submitted,
                        "resolved more than submitted: {s:?}"
                    );
                    assert!(s.warm_jobs <= s.completed, "warm ahead of completed: {s:?}");
                    assert!(
                        s.setup_hits <= s.submitted,
                        "hits ahead of submissions: {s:?}"
                    );
                    std::thread::yield_now();
                }
            })
        };
        for id in ids {
            engine.wait(id).unwrap();
        }
        poller.join().unwrap();
        let s = engine.stats();
        assert_eq!(s.completed, 13);
        assert_eq!(s.warm_jobs, 12);
    }

    #[test]
    fn cold_then_warm_bitwise_and_counted() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(1);
        let job = JobSpec::new(sys.clone(), spec());
        let cold = engine.run(&job).unwrap();
        assert_eq!(cold.cache.setup, Hit::Miss);
        assert_eq!(cold.cache.symbolic, Hit::Miss);
        assert_eq!(cold.cache.dc, Hit::Miss);
        let warm = engine.run(&job).unwrap();
        assert_eq!(warm.cache.setup, Hit::Hit);
        assert_eq!(warm.cache.dc, Hit::Hit);
        assert_eq!(cold.result.series(), warm.result.series());
        // Standalone comparison: the engine never changes a bit.
        let standalone = MatexSolver::new(job.effective_options())
            .run(&sys, &job.spec)
            .unwrap();
        assert_eq!(standalone.series(), warm.result.series());
        let stats = engine.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.warm_jobs, 1);
        assert_eq!(stats.setup_hits, 1);
        assert_eq!(stats.cache.circuits, 1);
    }

    #[test]
    fn scenario_overrides_share_the_structure_cache() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(2);
        let base = JobSpec::new(sys.clone(), spec());
        engine.run(&base).unwrap();
        // Scaled sources: same matrices, so the setup cache hits.
        let scaled = base.clone().source_scale(1.5);
        let out = engine.run(&scaled).unwrap();
        assert_eq!(out.cache.setup, Hit::Hit);
        assert_eq!(out.cache.dc, Hit::Miss, "DC depends on the sources");
        let standalone = MatexSolver::new(scaled.effective_options())
            .run(&scaled.effective_circuit().unwrap(), &scaled.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
        // Same-decade γ override: symbolic anchor replays, new setup.
        let swept = base.clone().gamma(2.5e-10);
        let out = engine.run(&swept).unwrap();
        assert_eq!(out.cache.setup, Hit::Miss);
        assert_eq!(out.cache.symbolic, Hit::Hit);
        let standalone = MatexSolver::new(swept.effective_options())
            .run(&sys, &swept.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
        // Neighbouring decade: anchor reused (pivots survive on this
        // diagonally dominant grid).
        let neighbor = base.clone().gamma(2e-9);
        let out = engine.run(&neighbor).unwrap();
        assert!(matches!(out.cache.symbolic, Hit::Neighbor | Hit::Miss));
        let standalone = MatexSolver::new(neighbor.effective_options())
            .run(&sys, &neighbor.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
    }

    #[test]
    fn distributed_jobs_cache_plan_and_setup() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(3);
        let job = JobSpec::new(sys.clone(), spec()).mode(ExecutionMode::Distributed {
            strategy: GroupingStrategy::ByBumpFeature,
            workers: Some(2),
        });
        let cold = engine.run(&job).unwrap();
        assert_eq!(cold.cache.plan, Hit::Miss);
        assert!(cold.groups.unwrap() >= 2);
        let warm = engine.run(&job).unwrap();
        assert_eq!(warm.cache.plan, Hit::Hit);
        assert_eq!(warm.cache.setup, Hit::Hit);
        assert_eq!(cold.result.series(), warm.result.series());
        // Standalone distributed run agrees bitwise.
        let standalone = run_distributed(&sys, &job.spec, &DistributedOptions::default()).unwrap();
        assert_eq!(standalone.result.series(), warm.result.series());
    }

    #[test]
    fn submit_poll_wait_lifecycle() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 2,
            ..EngineOptions::default()
        });
        let sys = grid(4);
        let ids: Vec<JobId> = (0..4)
            .map(|k| {
                engine
                    .submit(JobSpec::new(sys.clone(), spec()).source_scale(1.0 + k as f64 * 0.25))
                    .unwrap()
            })
            .collect();
        let outs: Vec<_> = ids.iter().map(|&id| engine.wait(id).unwrap()).collect();
        // All jobs of one structure agree with their own standalone runs
        // and the repeats hit the cache.
        assert!(outs.iter().skip(1).any(|o| o.cache.setup == Hit::Hit));
        for (&id, out) in ids.iter().zip(&outs) {
            assert!(matches!(engine.status(id), Some(JobStatus::Done(_))));
            assert_eq!(out.result.times().len(), 51);
        }
        assert!(engine.status(99).is_none());
        assert!(matches!(engine.wait(99), Err(ServeError::UnknownJob(99))));
        let stats = engine.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn outcome_retention_expires_oldest_jobs() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            max_retained: 2,
            ..EngineOptions::default()
        });
        let sys = grid(6);
        let ids: Vec<JobId> = (0..4)
            .map(|_| engine.submit(JobSpec::new(sys.clone(), spec())).unwrap())
            .collect();
        // Resolve everything (single executor: completion order = ids).
        engine.wait(ids[3]).unwrap();
        assert!(matches!(engine.status(ids[0]), Some(JobStatus::Expired)));
        assert!(matches!(engine.status(ids[1]), Some(JobStatus::Expired)));
        assert!(matches!(engine.status(ids[3]), Some(JobStatus::Done(_))));
        assert!(matches!(
            engine.wait(ids[0]),
            Err(ServeError::InvalidJob(_))
        ));
        // Expired ids still answer polls with a stable label.
        assert_eq!(engine.status(ids[0]).unwrap().label(), "expired");
    }

    #[test]
    fn variant_cap_bounds_setups_and_dcs_and_keeps_the_whatif_base() {
        use crate::cache::MAX_VARIANTS;
        let bits = |out: &JobOutcome| -> Vec<u64> {
            out.result
                .series()
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        };
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(13);
        let base = JobSpec::new(sys.clone(), spec());
        engine.run(&base).unwrap();
        let capped: Vec<usize> = (0..sys.num_nodes())
            .filter(|&r| sys.c().get(r, r) > 0.0)
            .collect();
        // 200 distinct rank-1 edits: each leaves one corrected setup and
        // one DC operating point behind.
        let edits: Vec<JobSpec> = (0..200)
            .map(|k| {
                base.clone()
                    .cap_scale(capped[k % capped.len()], 1.5 + 0.01 * k as f64)
            })
            .collect();
        let mut outs = Vec::new();
        for edit in &edits {
            outs.push(engine.run(edit).unwrap());
            let sizes = engine.stats().cache;
            assert!(sizes.setups <= MAX_VARIANTS, "{sizes:?}");
            assert!(sizes.dcs <= MAX_VARIANTS, "{sizes:?}");
        }
        // The base setup was never evicted: the late edits still correct it.
        let late = 190;
        for out in &outs[late..] {
            assert_eq!(out.cache.hit_path, HitPath::Whatif);
        }
        // And eviction changed no bit: a fresh engine holding only the
        // base serves the late edits identically.
        let fresh = ScenarioEngine::new(EngineOptions::default());
        fresh.run(&base).unwrap();
        for (edit, out) in edits[late..].iter().zip(&outs[late..]) {
            let again = fresh.run(edit).unwrap();
            assert_eq!(again.cache.hit_path, HitPath::Whatif);
            assert_eq!(bits(&again), bits(out));
        }
    }

    #[test]
    fn deadline_triage_counts_the_jobs_already_running() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            threads: Some(1),
            ..EngineOptions::default()
        });
        // A long cold job occupies the lone executor.
        let big = Arc::new(
            PdnBuilder::new(24, 24)
                .num_loads(32)
                .num_features(3)
                .window(1e-8)
                .seed(14)
                .build()
                .unwrap(),
        );
        let blocker = JobSpec::new(big, TransientSpec::new(0.0, 1e-7, 1e-11).unwrap());
        let blocker_units = engine.inner.predicted_units(&blocker);
        // Every unit costs 10 ms, so the running job's remaining work
        // dwarfs the time between it starting and the submit below.
        engine.inner.lock_table().cost.unit_secs = vec![(10e-3, 0.0)];
        let running = engine.submit(blocker).unwrap();
        while matches!(engine.status(running), Some(JobStatus::Queued)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Alone the job would fit this deadline; behind the running job
        // it cannot.
        let job = JobSpec::new(grid(15), spec());
        let own_units = engine.inner.predicted_units(&job);
        let deadline = Duration::from_secs_f64((own_units + blocker_units / 2.0) * 10e-3);
        match engine.submit(job.deadline(deadline)) {
            Err(ServeError::Rejected { reason, .. }) => {
                assert!(reason.contains("unmeetable"), "reason: {reason}");
            }
            other => panic!("expected a deadline rejection, got {other:?}"),
        }
        assert!(matches!(engine.status(running), Some(JobStatus::Running)));
        engine.cancel(running);
    }

    #[test]
    fn deadline_triage_refuses_a_job_that_would_make_a_queued_one_late() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            threads: Some(1),
            ..EngineOptions::default()
        });
        let big = Arc::new(
            PdnBuilder::new(24, 24)
                .num_loads(32)
                .num_features(3)
                .window(1e-8)
                .seed(14)
                .build()
                .unwrap(),
        );
        let job =
            |stop: f64| JobSpec::new(big.clone(), TransientSpec::new(0.0, stop, 1e-11).unwrap());
        let blocker = job(1e-7);
        let (a, b) = (job(2e-8), job(3e-8));
        let units = |j: &JobSpec| engine.inner.predicted_units(j);
        let (blocker_units, ua, ub) = (units(&blocker), units(&a), units(&b));
        // Every unit costs 10 ms, so the slack below (`ub / 2` units)
        // dwarfs the time between the blocker starting and the submits.
        engine.inner.lock_table().cost.unit_secs = vec![(10e-3, 0.0)];
        let ms = |u: f64| Duration::from_secs_f64(u * 10e-3);
        let running = engine.submit(blocker).unwrap();
        while matches!(engine.status(running), Some(JobStatus::Queued)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A fits behind the running job with `ub / 2` to spare.
        let queued = engine
            .submit(a.deadline(ms(blocker_units + ua + ub / 2.0)))
            .unwrap();
        // B fits too, but it is due sooner, so EDF would run it first
        // and push A past its deadline.
        match engine.submit(b.clone().deadline(ms(blocker_units + ub + ub / 4.0))) {
            Err(ServeError::Rejected { reason, .. }) => {
                assert!(reason.contains("queued job"), "reason: {reason}");
            }
            other => panic!("expected a deadline rejection, got {other:?}"),
        }
        // Due after A, B runs after it and harms no one.
        let after = engine
            .submit(b.deadline(ms(blocker_units + ua + ub + ub / 2.0)))
            .unwrap();
        for id in [after, queued, running] {
            engine.cancel(id);
        }
    }

    #[test]
    fn cost_model_assumes_no_speedup_at_an_unmeasured_level() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let mut cost = CostModel::default();
        assert!(close(cost.unit_secs(3, DEV_WEIGHT), CostModel::PRIOR));
        // First sample: 2 ms per unit, deviation half of it.
        cost.observe(10.0, Duration::from_millis(20), 1);
        assert!(close(cost.unit_secs(1, 0.0), 2e-3));
        assert!(close(cost.unit_secs(1, 2.0), 4e-3));
        // No job ran two at a time yet: two at once take twice as long.
        assert!(close(cost.unit_secs(2, 0.0), 4e-3));
        // Once measured, a level prices at its own mean.
        cost.observe(10.0, Duration::from_millis(25), 2);
        assert!(close(cost.unit_secs(2, 0.0), 2.5e-3));
        assert!(close(cost.unit_secs(3, 0.0), 2.5e-3 * 3.0 / 2.0));
        // Later samples move the mean by 1/8 of the difference.
        cost.observe(10.0, Duration::from_millis(28), 1);
        assert!(close(cost.unit_secs(1, 0.0), 2e-3 + 0.8e-3 / 8.0));
    }

    #[test]
    fn an_idle_engine_judges_a_lone_deadline_at_the_mean_cost() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            threads: Some(1),
            ..EngineOptions::default()
        });
        let job = JobSpec::new(grid(15), spec());
        let units = engine.inner.predicted_units(&job);
        // 1 ms per unit on average, but erratic: a slow run could take
        // three times as long.
        engine.inner.lock_table().cost.unit_secs = vec![(1e-3, 0.5e-3)];
        let deadline = Duration::from_secs_f64(units * 1.5e-3);
        let id = engine.submit(job.deadline(deadline)).unwrap();
        engine.cancel(id);
    }

    #[test]
    fn panicking_job_fails_cleanly_and_executors_survive() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            ..EngineOptions::default()
        });
        let sys = grid(7);
        // An out-of-range observed row panics inside the recorder (the
        // TCP layer validates this; the direct API can still trigger it).
        let bad_spec = spec().observing(vec![99_999]);
        let id = engine.submit(JobSpec::new(sys.clone(), bad_spec)).unwrap();
        let err = engine.wait(id).unwrap_err();
        assert!(
            err.to_string().contains("panicked"),
            "expected a panic-failure, got {err}"
        );
        // The single executor must still be alive to serve the next job.
        let ok = engine.submit(JobSpec::new(sys, spec())).unwrap();
        assert!(engine.wait(ok).is_ok());
    }

    #[test]
    fn kernel_pools_are_recycled_across_jobs() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            kernel_threads: 2,
            threads: Some(2),
            ..EngineOptions::default()
        });
        let sys = grid(8);
        let job = JobSpec::new(sys, spec());
        let a = engine.run(&job).unwrap();
        assert_eq!(engine.inner.idle_pools.lock().unwrap().len(), 1);
        let b = engine.run(&job).unwrap();
        // Reuse keeps the list at one pool, and the pooled waveforms are
        // width-invariant so the repeat is still bitwise identical.
        assert_eq!(engine.inner.idle_pools.lock().unwrap().len(), 1);
        assert_eq!(a.result.series(), b.result.series());
    }

    #[test]
    fn whatif_edit_corrects_instead_of_refactoring() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(9);
        let base = JobSpec::new(sys.clone(), spec());
        engine.run(&base).unwrap();
        // A small cap edit: same pattern, one changed value row. The
        // engine serves it by correcting the cached base factors.
        let edit = base.clone().cap_scale(7, 3.0);
        let fast = engine.run(&edit).unwrap();
        assert_eq!(fast.cache.setup, Hit::Whatif);
        assert!(fast.cache.is_whatif() && !fast.cache.is_warm());
        // Accuracy vs the full-refactor standalone run.
        let edited_sys = edit.effective_circuit().unwrap();
        let standalone = MatexSolver::new(edit.effective_options())
            .run(&edited_sys, &edit.spec)
            .unwrap();
        let (max_dev, _) = fast.result.error_vs(&standalone).unwrap();
        assert!(max_dev <= 1e-8, "what-if deviates by {max_dev:e}");
        // The corrected setup is cached: repeats are direct hits, and
        // bitwise identical (fixed-order SMW evaluation).
        let again = engine.run(&edit).unwrap();
        assert_eq!(again.cache.setup, Hit::Hit);
        assert_eq!(fast.result.series(), again.result.series());
        let stats = engine.stats();
        assert_eq!(stats.whatif_hits, 1);
        assert!(stats.whatif_rank >= 1);
        assert_eq!(stats.whatif_fallbacks, 0);
    }

    #[test]
    fn over_rank_edit_falls_back_to_full_preparation() {
        let engine = ScenarioEngine::new(EngineOptions {
            whatif_max_rank: 1,
            ..EngineOptions::default()
        });
        let sys = grid(10);
        engine.run(&JobSpec::new(sys.clone(), spec())).unwrap();
        // Two touched rows > max_rank 1: full preparation, counted as a
        // fallback — and still the exact standalone waveform.
        let edited = Arc::new(
            sys.with_cap_scaled(3, 2.0)
                .unwrap()
                .with_cap_scaled(11, 2.0)
                .unwrap(),
        );
        let job = JobSpec::new(edited.clone(), spec());
        let out = engine.run(&job).unwrap();
        assert_eq!(out.cache.setup, Hit::Miss);
        let standalone = MatexSolver::new(job.effective_options())
            .run(&edited, &job.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
        let stats = engine.stats();
        assert_eq!(stats.whatif_hits, 0);
        assert_eq!(stats.whatif_fallbacks, 1);
    }

    #[test]
    fn whatif_disabled_always_refactors() {
        let engine = ScenarioEngine::new(EngineOptions {
            whatif_max_rank: 0,
            ..EngineOptions::default()
        });
        let sys = grid(11);
        let base = JobSpec::new(sys, spec());
        engine.run(&base).unwrap();
        let out = engine.run(&base.clone().cap_scale(7, 3.0)).unwrap();
        assert_eq!(out.cache.setup, Hit::Miss);
        assert_eq!(engine.stats().whatif_hits, 0);
    }

    #[test]
    fn warm_store_restart_skips_all_analyses_bitwise() {
        let dir = std::env::temp_dir().join(format!(
            "matex-engine-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sys = grid(12);
        let mono = JobSpec::new(sys.clone(), spec());
        let dist = JobSpec::new(sys.clone(), spec()).mode(ExecutionMode::Distributed {
            strategy: GroupingStrategy::ByBumpFeature,
            workers: Some(2),
        });
        let a = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
            ..EngineOptions::default()
        });
        let cold_mono = a.run(&mono).unwrap();
        let cold_dist = a.run(&dist).unwrap();
        let stats_a = a.stats();
        assert_eq!(stats_a.store_hits, 0);
        assert!(
            stats_a.store_writes >= 4,
            "symbolic+setup+dc+plan persisted, got {}",
            stats_a.store_writes
        );
        drop(a);

        // "Restart": a fresh engine — empty in-memory cache — pointed
        // at the same directory must serve the same jobs without a
        // single symbolic analysis, factorization, or DC solve.
        let b = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
            ..EngineOptions::default()
        });
        let warm_mono = b.run(&mono).unwrap();
        let warm_dist = b.run(&dist).unwrap();
        assert_eq!(warm_mono.cache.setup, Hit::Hit);
        assert_eq!(warm_mono.cache.dc, Hit::Hit);
        assert_eq!(warm_dist.cache.plan, Hit::Hit);
        let stats_b = b.stats();
        assert_eq!(stats_b.setup_misses, 0, "restart must not prepare a setup");
        assert_eq!(stats_b.symbolic_misses, 0, "restart must not re-analyze");
        assert!(stats_b.store_hits >= 3, "got {}", stats_b.store_hits);
        assert_eq!(stats_b.store_writes, 0);
        assert_eq!(cold_mono.result.series(), warm_mono.result.series());
        assert_eq!(cold_dist.result.series(), warm_dist.result.series());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_hydrated_setups_serve_as_whatif_bases() {
        let dir = std::env::temp_dir().join(format!(
            "matex-engine-whatif-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sys = grid(13);
        let base = JobSpec::new(sys.clone(), spec());
        {
            let a = ScenarioEngine::new(EngineOptions {
                store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
                ..EngineOptions::default()
            });
            a.run(&base).unwrap();
        }
        let b = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
            ..EngineOptions::default()
        });
        b.run(&base).unwrap();
        // A small edit against the hydrated base takes the what-if
        // fast path — the restart preserved the base candidates too.
        let fast = b.run(&base.clone().cap_scale(7, 3.0)).unwrap();
        assert_eq!(fast.cache.setup, Hit::Whatif);
        assert_eq!(b.stats().whatif_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_report_their_error() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(5);
        // A NaN source scale fails in the circuit layer.
        let id = engine
            .submit(JobSpec::new(sys, spec()).source_scale(f64::NAN))
            .unwrap();
        let err = engine.wait(id).unwrap_err();
        assert!(matches!(err, ServeError::InvalidJob(_)));
        assert!(matches!(engine.status(id), Some(JobStatus::Failed(_))));
        assert_eq!(engine.stats().failed, 1);
    }

    #[test]
    fn solver_fault_is_retried_with_quarantine_and_recovers_bitwise() {
        use matex_core::{FaultKind, FaultPlan};
        let sys = grid(31);
        let job = JobSpec::new(sys.clone(), spec());
        let clean = ScenarioEngine::new(EngineOptions::default())
            .run(&job)
            .unwrap();
        // Occurrence 0 of "core.solver.run" warms the cache cleanly;
        // occurrence 1 (the warm repeat) fails, forcing the retry to
        // quarantine the warm artifacts and recompute them.
        let engine = ScenarioEngine::new(EngineOptions {
            faults: FaultHook::new(FaultPlan::new().fail_at(
                "core.solver.run",
                1,
                FaultKind::Error,
            )),
            retry_backoff: Duration::ZERO,
            ..EngineOptions::default()
        });
        engine.run(&job).unwrap();
        let recovered = engine.run(&job).unwrap();
        // Recovery never changes a bit of the waveform.
        assert_eq!(recovered.result.series(), clean.result.series());
        let stats = engine.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 1);
        assert!(stats.quarantined >= 1, "warm artifacts were quarantined");
    }

    #[test]
    fn solver_panic_is_contained_counted_and_retried() {
        use matex_core::{FaultKind, FaultPlan};
        let sys = grid(32);
        let job = JobSpec::new(sys.clone(), spec());
        let engine = ScenarioEngine::new(EngineOptions {
            faults: FaultHook::new(FaultPlan::new().fail_at(
                "core.solver.run",
                0,
                FaultKind::Panic,
            )),
            retry_backoff: Duration::ZERO,
            ..EngineOptions::default()
        });
        // The first attempt panics inside the solver; the engine
        // contains it, counts it, and the retry completes the job.
        let out = engine.run(&job).unwrap();
        let standalone = MatexSolver::new(job.effective_options())
            .run(&sys, &job.spec)
            .unwrap();
        assert_eq!(out.result.series(), standalone.series());
        let stats = engine.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn exhausted_retry_budget_fails_the_job_cleanly() {
        use matex_core::{FaultKind, FaultPlan};
        let sys = grid(33);
        let job = JobSpec::new(sys, spec());
        let engine = ScenarioEngine::new(EngineOptions {
            faults: FaultHook::new(
                FaultPlan::new()
                    .fail_at("core.solver.run", 0, FaultKind::Error)
                    .fail_at("core.solver.run", 1, FaultKind::Error),
            ),
            max_compute_retries: 1,
            retry_backoff: Duration::ZERO,
            ..EngineOptions::default()
        });
        let err = engine.run(&job).unwrap_err();
        assert!(!err.is_cancelled());
        let stats = engine.stats();
        assert_eq!(stats.retries, 1, "one retry was attempted");
        assert_eq!(stats.failed, 1);
        // The engine survives: the same job (occurrence 2+) now runs.
        let job2 = JobSpec::new(grid(33), spec());
        engine.run(&job2).unwrap();
        assert_eq!(engine.stats().completed, 1);
    }

    #[test]
    fn store_faults_degrade_to_compute_through_and_are_counted() {
        use matex_core::{FaultKind, FaultPlan};
        use matex_store::StoreOptions;
        let dir = std::env::temp_dir().join(format!(
            "matex-engine-store-faults-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Every store read and write fails: the store degrades to a
        // pure compute-through layer and the jobs never notice.
        let store = ArtifactStore::open_with(
            &dir,
            StoreOptions {
                faults: FaultHook::new(
                    FaultPlan::new()
                        .seeded(7, 1000, FaultKind::Error)
                        .on_sites(&["store.read", "store.write"]),
                ),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let engine = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(store)),
            ..EngineOptions::default()
        });
        let sys = grid(34);
        let job = JobSpec::new(sys.clone(), spec());
        let out = engine.run(&job).unwrap();
        let standalone = MatexSolver::new(job.effective_options())
            .run(&sys, &job.spec)
            .unwrap();
        assert_eq!(out.result.series(), standalone.series());
        let stats = engine.stats();
        assert_eq!(stats.failed, 0);
        assert!(stats.store_errors > 0, "store faults were tallied");
        assert_eq!(stats.store_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
