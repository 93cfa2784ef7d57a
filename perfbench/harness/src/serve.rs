//! `serve_warm` and `serve_cold`: two closed-loop clients against the
//! real TCP service, in one process, over protocol-v2 binary frames.
//!
//! Each client times a job from its `submit` to the last waveform frame
//! it receives, and hashes the frames' canonical content. After the
//! timed rounds, every job that ran is solved standalone and each
//! served hash must equal the standalone one; the repo's own load
//! generator (`run_load`) also replays the jobs and must report
//! `deterministic`.

use crate::grid::{self, Rng};
use crate::ledger::{self, Event, Ledger};
use crate::{ms, Args, Outcome};
use matex_circuit::{parse_netlist, MnaSystem, PdnBuilder};
use matex_core::{
    MatexSolver, MatexSymbolic, SolveStats, TransientEngine, TransientResult, TransientSpec,
};
use matex_dist::{run_distributed, DistributedOptions};
use matex_obs::Obs;
use matex_serve::{
    run_load, serve, EngineOptions, EngineStats, ExecutionMode, FrameMode, JobSpec, LoadJob,
    LoadMode, LoadReport, LoadSpec, ScenarioEngine, ServiceHandle, ServiceOptions,
};
use matex_store::{ArtifactStore, StoreOptions};
use matex_waveform::{Fnv64, GroupingStrategy, WaveFrame};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Output samples per streamed frame (the service default).
const CHUNK: usize = 32;
const T_STOP: f64 = 1e-9;
const DT_OUT: f64 = 2e-11;
/// Observed rows: every `ROW_STRIDE`-th node.
const ROW_STRIDE: usize = 29;
/// Set-up rounds per untraced run (fresh service each; median set-up).
const ROUNDS: usize = 3;
/// `serve_warm` circuits (fine-mesh sides), and the sequence shape:
/// each pass shuffles the warmed jobs with `CAPS_PER_PASS` fresh
/// what-if edits per circuit.
const WARM_GRIDS: [usize; 3] = [20, 24, 28];
const CAPS_PER_PASS: usize = 2;
const WARM_PASSES: usize = 120;
/// `serve_cold` structures per round, and the range of their sides.
const COLD_STRUCTURES: usize = 128;
const COLD_SIDES: (usize, usize) = (16, 36);
/// Max deviation of a what-if job from a full refactorization, volts.
const WHATIF_TOL: f64 = 1e-8;

/// One distinct job: how a client submits it, and the same job in
/// process for the standalone solve.
struct JobDef {
    label: String,
    /// The job's traffic class, for the per-class report.
    class: &'static str,
    load: LoadJob,
    spec: JobSpec,
    /// For a what-if edit: the index of its unedited base job.
    whatif_base: Option<usize>,
    /// Run once during set-up (`serve_warm`'s warm-up jobs).
    warm: bool,
    /// Harness-timed `parse_netlist` + `assemble` of the job's netlist
    /// text, ms (0 for jobs submitted as generator parameters).
    parse_ms: f64,
}

/// What a standalone solve of a job streams, plus its solver counters.
struct Expected {
    frames: Vec<WaveFrame>,
    hash: u64,
    stats: SolveStats,
    /// What-if jobs: max deviation from a full refactorization.
    dev: f64,
    /// Harness-timed symbolic analysis of the job's circuit, ms, and
    /// its LU fill (`fill_nnz / nnz(G)`).
    analyze_ms: f64,
    fill_ratio: f64,
}

fn rows_for(sys: &MnaSystem) -> Vec<usize> {
    (0..sys.num_nodes()).step_by(ROW_STRIDE).collect()
}

fn rows_field(rows: &[usize]) -> String {
    let list: Vec<String> = rows.iter().map(usize::to_string).collect();
    format!(", \"rows\": \"{}\"", list.join(","))
}

fn window_spec(rows: Vec<usize>) -> Result<TransientSpec, String> {
    Ok(TransientSpec::new(0.0, T_STOP, DT_OUT)
        .map_err(|e| e.to_string())?
        .observing(rows))
}

/// The `submit` request for `job` (the same line `run_load` sends).
fn submit_line(job: &LoadJob) -> String {
    let mut line = format!(
        "{{\"cmd\": \"submit\", {}, \"t_stop\": {:e}, \"dt_out\": {:e}",
        job.submit_fields, job.t_stop, job.dt_out
    );
    if let Some(k) = job.scale {
        line.push_str(&format!(", \"scale\": {k:e}"));
    }
    if let Some((row, factor)) = job.cap {
        line.push_str(&format!(", \"cap_row\": {row}, \"cap_scale\": {factor:e}"));
    }
    line.push('}');
    line
}

fn engine_options(store: Option<Arc<ArtifactStore>>, obs: &Obs) -> EngineOptions {
    EngineOptions {
        threads: Some(2),
        executors: 2,
        dist_workers: 2,
        store,
        obs: obs.clone(),
        ..EngineOptions::default()
    }
}

/// The service's frames for `result` (same chunking as `stream`).
fn frames_of(result: &TransientResult) -> Vec<WaveFrame> {
    let times = result.times();
    (0..times.len().div_ceil(CHUNK))
        .map(|f| {
            let (start, end) = (f * CHUNK, ((f + 1) * CHUNK).min(times.len()));
            WaveFrame {
                frame: f as u64,
                start: start as u64,
                times: times[start..end].to_vec(),
                series: result
                    .series()
                    .iter()
                    .map(|s| s[start..end].to_vec())
                    .collect(),
            }
        })
        .collect()
}

/// Standalone solves of the `wanted` jobs: the solver (monolithic) or
/// `run_distributed` (distributed) directly; what-if edits through an
/// in-process engine holding their base (the engine picks the base by
/// value, never by arrival order), each checked against a full
/// refactorization.
fn standalone(defs: &[JobDef], wanted: &[usize]) -> Result<BTreeMap<usize, Expected>, String> {
    let mut out = BTreeMap::new();
    let mut whatif_engines: BTreeMap<usize, ScenarioEngine> = BTreeMap::new();
    for &d in wanted {
        let def = &defs[d];
        let job = &def.spec;
        let circuit = job.effective_circuit().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let symbolic = MatexSymbolic::analyze(&circuit, &job.effective_options())
            .map_err(|e| e.to_string())?;
        let analyze_ms = ms(t0.elapsed());
        let fill_ratio = symbolic.g().fill_nnz() as f64 / circuit.g().nnz().max(1) as f64;
        let solve = || {
            MatexSolver::new(job.effective_options())
                .run(&circuit, &job.spec)
                .map_err(|e| e.to_string())
        };
        let (result, dev) = match (def.whatif_base, &job.mode) {
            (Some(base), _) => {
                let engine = match whatif_engines.entry(base) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let engine = ScenarioEngine::new(engine_options(None, &Obs::disabled()));
                        engine.run(&defs[base].spec).map_err(|e| e.to_string())?;
                        e.insert(engine)
                    }
                };
                let served = engine.run(job).map_err(|e| e.to_string())?;
                if !served.cache.is_whatif() {
                    return Err(format!("{} was not served by the what-if path", def.label));
                }
                let (dev, _) = served
                    .result
                    .error_vs(&solve()?)
                    .map_err(|e| e.to_string())?;
                (served.result, dev)
            }
            (None, ExecutionMode::Monolithic) => (solve()?, 0.0),
            (None, ExecutionMode::Distributed { strategy, workers }) => {
                let opts = DistributedOptions {
                    matex: job.effective_options(),
                    strategy: *strategy,
                    workers: *workers,
                    ..DistributedOptions::default()
                };
                let run = run_distributed(&circuit, &job.spec, &opts).map_err(|e| e.to_string())?;
                (run.result, 0.0)
            }
        };
        let frames = frames_of(&result);
        let mut h = Fnv64::new();
        frames.iter().for_each(|f| f.feed(&mut h));
        out.insert(
            d,
            Expected {
                hash: h.finish(),
                frames,
                stats: result.stats.clone(),
                dev,
                analyze_ms,
                fill_ratio,
            },
        );
    }
    Ok(out)
}

/// One protocol-v2 client connection with binary frames.
struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    bytes: u64,
}

/// A completed job as one client saw it.
struct Sample {
    def: usize,
    latency: Duration,
    hash: u64,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut c = Client {
            writer: BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?),
            reader: BufReader::new(stream),
            bytes: 0,
        };
        let ack = c.request("{\"cmd\": \"hello\", \"proto\": 2, \"frames\": \"binary\"}")?;
        if !ack.contains("\"frames\": \"binary\"") {
            return Err(format!("server refused binary frames: {ack}"));
        }
        Ok(c)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        self.bytes += n as u64;
        Ok(line.trim_end().to_string())
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        self.read_line()
    }

    /// Submit → wait → stream; returns the canonical hash of the frames.
    fn run(&mut self, submit: &str) -> Result<u64, String> {
        let reply = self.request(submit)?;
        let id = field_u64(&reply, "job").ok_or_else(|| format!("submit refused: {reply}"))?;
        let status = self.request(&format!("{{\"cmd\": \"wait\", \"job\": {id}}}"))?;
        if !status.contains("\"state\": \"done\"") {
            return Err(format!("job {id} did not complete: {status}"));
        }
        let meta = self.request(&format!("{{\"cmd\": \"stream\", \"job\": {id}}}"))?;
        let frames = field_u64(&meta, "frames").ok_or_else(|| format!("bad stream: {meta}"))?;
        let mut h = Fnv64::new();
        for _ in 0..frames {
            let mut prefix = [0u8; 8];
            self.reader
                .read_exact(&mut prefix)
                .map_err(|e| e.to_string())?;
            let (len, _) = WaveFrame::decode_len(&prefix).map_err(|e| e.0)?;
            let mut payload = vec![0u8; len];
            self.reader
                .read_exact(&mut payload)
                .map_err(|e| e.to_string())?;
            self.bytes += 8 + len as u64;
            WaveFrame::decode_payload(&payload)
                .map_err(|e| e.0)?
                .feed(&mut h);
        }
        Ok(h.finish())
    }
}

/// `"key": <unsigned>` from a flat JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The engine's returned stats and the service's `metrics` page.
struct ServerView {
    stats: EngineStats,
    metrics: String,
}

fn server_view(svc: &Service) -> Result<ServerView, String> {
    let stats = svc.engine.stats();
    let mut c = Client::connect(&svc.addr)?;
    let meta = c.request("{\"cmd\": \"metrics\"}")?;
    let n = field_u64(&meta, "lines").ok_or_else(|| format!("bad metrics reply: {meta}"))?;
    let lines: Result<Vec<String>, String> = (0..n).map(|_| c.read_line()).collect();
    Ok(ServerView {
        stats,
        metrics: lines?.join("\n"),
    })
}

/// A fresh, ready service and what getting it ready took.
struct Service {
    engine: Arc<ScenarioEngine>,
    handle: ServiceHandle,
    addr: String,
    setup: Duration,
    obs: Obs,
    /// Hashes of the warm-up jobs set-up ran, by job.
    warmup: Vec<(usize, u64)>,
}

/// What one measured phase produced.
struct Phase {
    setup: Duration,
    samples: Vec<Sample>,
    failures: Vec<String>,
    attempted: usize,
    wall: Duration,
    cpu: f64,
    bytes: u64,
    warmup: Vec<(usize, u64)>,
    /// Traced phases: the server's spans during the phase, the
    /// clients' spans, and the server's stats/metrics before and after.
    trace: Option<(Vec<Event>, Vec<Event>, ServerView, ServerView)>,
    /// The last round's `run_load` replay of the jobs it used.
    replay: Option<(Vec<usize>, LoadReport)>,
}

impl Phase {
    /// Distinct jobs the phase ran, in first-use order.
    fn used(&self) -> Vec<usize> {
        let mut used = Vec::new();
        for s in &self.samples {
            if !used.contains(&s.def) {
                used.push(s.def);
            }
        }
        used
    }
}

fn measure(
    svc: &Service,
    seq: &[usize],
    lines: &Arc<Vec<String>>,
    burst: bool,
    budget: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let before = if traced {
        Some(server_view(svc)?)
    } else {
        None
    };
    let client_obs = if traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let go = Arc::new(AtomicBool::new(true));
    let cpu0 = crate::cpu_seconds();
    let start = Instant::now();
    let deadline = start + budget;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let (addr, lines, seq) = (svc.addr.clone(), lines.clone(), seq.to_vec());
        let (barrier, go, obs) = (barrier.clone(), go.clone(), client_obs.clone());
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr)?;
            let mut samples = Vec::new();
            let mut failures = Vec::new();
            let mut attempted = 0usize;
            // Steady clients walk the sequence from their own offsets;
            // burst clients submit the same job at the same moment, one
            // wave per entry, until time or the sequence runs out.
            let offset = if burst { 0 } else { c * seq.len() / CLIENTS };
            for k in 0..seq.len() {
                if burst {
                    // The leader decides for both, so neither waits alone.
                    if barrier.wait().is_leader() {
                        go.store(Instant::now() < deadline, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if !go.load(Ordering::SeqCst) {
                        break;
                    }
                } else if Instant::now() >= deadline {
                    break;
                }
                let def = seq[(k + offset) % seq.len()];
                attempted += 1;
                let t0 = Instant::now();
                match client.run(&lines[def]) {
                    Ok(hash) => {
                        let latency = t0.elapsed();
                        obs.record_span("client.job", def as u64, t0, latency, &[]);
                        samples.push(Sample { def, latency, hash });
                    }
                    Err(e) => failures.push(e),
                }
            }
            Ok::<_, String>((samples, failures, attempted, client.bytes))
        }));
    }
    let mut phase = Phase {
        setup: svc.setup,
        samples: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        wall: Duration::ZERO,
        cpu: 0.0,
        bytes: 0,
        warmup: svc.warmup.clone(),
        trace: None,
        replay: None,
    };
    for h in handles {
        let (samples, failures, attempted, bytes) = h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        phase.samples.extend(samples);
        phase.failures.extend(failures);
        phase.attempted += attempted;
        phase.bytes += bytes;
    }
    phase.wall = start.elapsed();
    phase.cpu = crate::cpu_seconds() - cpu0;
    if let Some(before) = before {
        let after = server_view(svc)?;
        // Only the measured phase's server spans (set-up ran before).
        let epoch = svc.obs.recorder().ok_or("service obs disabled")?.epoch();
        let from_us = start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let mut c = Client::connect(&svc.addr)?;
        let server: Vec<Event> = ledger::parse_events(&c.request("{\"cmd\": \"trace\"}")?)
            .into_iter()
            .filter(|e| e.ts_us >= from_us)
            .collect();
        let client = ledger::parse_events(&client_obs.chrome_trace_events());
        phase.trace = Some((server, client, before, after));
    }
    Ok(phase)
}

/// Runs a workload's rounds: fresh service, set-up, timed phase. The
/// last round also replays its jobs through `run_load`.
fn run_rounds(
    args: &Args,
    seq: &[usize],
    defs: &[JobDef],
    burst: bool,
    start: &dyn Fn(&Obs) -> Result<Service, String>,
) -> Result<Vec<Phase>, String> {
    let lines: Arc<Vec<String>> = Arc::new(defs.iter().map(|d| submit_line(&d.load)).collect());
    let traced: Vec<bool> = if args.trace {
        vec![false, true]
    } else {
        vec![false; ROUNDS]
    };
    let budget = Duration::from_secs_f64(args.seconds / traced.len() as f64);
    let mut phases = Vec::new();
    for (i, &t) in traced.iter().enumerate() {
        let obs = if t { Obs::enabled() } else { Obs::disabled() };
        let svc = start(&obs)?;
        let mut phase = measure(&svc, seq, &lines, burst, budget, t)?;
        if i + 1 == traced.len() {
            let used = phase.used();
            let jobs = used.iter().map(|&d| defs[d].load.clone()).collect();
            let mode = if burst {
                LoadMode::Burst
            } else {
                LoadMode::Steady
            };
            let spec = LoadSpec::new(svc.addr.clone(), CLIENTS, jobs)
                .frames(vec![FrameMode::Binary])
                .mode(mode);
            phase.replay = Some((used, run_load(&spec).map_err(|e| e.to_string())?));
        }
        svc.handle.stop();
        phases.push(phase);
    }
    Ok(phases)
}

/// Every check on the rounds' outputs: warm-up and served hashes equal
/// the standalone solves, the `run_load` replay is deterministic and
/// streams the standalone frames, and what-if jobs stay within
/// `WHATIF_TOL` of a full refactorization.
fn check(out: &mut Outcome, phases: &[Phase], defs: &[JobDef], exp: &BTreeMap<usize, Expected>) {
    for (r, p) in phases.iter().enumerate() {
        out.attempted += p.attempted;
        out.failed += p.failures.len();
        for f in p.failures.iter().take(3) {
            out.line(format!("round {r}: job failed: {f}"));
        }
        let warm_bad = p.warmup.iter().filter(|(d, h)| exp[d].hash != *h).count();
        let bad: Vec<&str> = p
            .samples
            .iter()
            .filter(|s| exp[&s.def].hash != s.hash)
            .map(|s| defs[s.def].label.as_str())
            .collect();
        out.check(
            warm_bad == 0 && bad.is_empty(),
            format!(
                "round {r}: {} warm-up and {} timed jobs hash-equal to standalone solves{}",
                p.warmup.len(),
                p.samples.len(),
                if warm_bad + bad.len() > 0 {
                    format!(
                        " ({} differ, e.g. {})",
                        warm_bad + bad.len(),
                        bad.first().unwrap_or(&"a warm-up job")
                    )
                } else {
                    String::new()
                }
            ),
        );
        if let Some((used, report)) = &p.replay {
            let mut h = Fnv64::new();
            h.write_u8(1); // the binary frame-mode tag seeded into stream hashes
            for d in used {
                exp[d].frames.iter().for_each(|f| f.feed(&mut h));
            }
            let want = h.finish();
            out.check(
                report.deterministic
                    && report.failed == 0
                    && report.rejected == 0
                    && report.completed == CLIENTS * used.len()
                    && report.stream_hashes.iter().all(|&s| s == want),
                format!(
                    "run_load replay of {} jobs x {CLIENTS} clients: deterministic = {}, \
                     {} completed, {} failed, streams equal the standalone frames",
                    used.len(),
                    report.deterministic,
                    report.completed,
                    report.failed
                ),
            );
        }
    }
    out.check(
        out.failed == 0,
        format!("{} of {} jobs failed", out.failed, out.attempted),
    );
    let worst = exp.values().map(|e| e.dev).fold(0.0, f64::max);
    let whatifs = exp
        .keys()
        .filter(|&&d| defs[d].whatif_base.is_some())
        .count();
    out.check(
        worst <= WHATIF_TOL,
        format!(
            "{whatifs} what-if jobs within {WHATIF_TOL:e} V of a full refactorization \
             (max {worst:.2e} V)"
        ),
    );
}

/// Folds the traced phase into the ledger: client and server spans, the
/// stats and metrics-page deltas, and the standalone solver counters of
/// the jobs it ran.
fn fold(
    led: &mut Ledger,
    phase: &Phase,
    defs: &[JobDef],
    exp: &BTreeMap<usize, Expected>,
    structures: usize,
) -> Result<(), String> {
    let (server, client, before, after) = phase.trace.as_ref().ok_or("phase was not traced")?;
    let jobs = phase.samples.len().max(1) as f64;
    let per_job = |site: &str| ledger::site_total(server, site).0 / jobs;
    let delta = |f: fn(&EngineStats) -> u64| (f(&after.stats) - f(&before.stats)) as f64;
    let page_delta = |series: &str| {
        ledger::prom_sum(&after.metrics, series) - ledger::prom_sum(&before.metrics, series)
    };
    let mix = |f: &dyn Fn(&Expected) -> f64| {
        phase.samples.iter().map(|s| f(&exp[&s.def])).sum::<f64>() / jobs
    };
    led.set(
        "circuit.parse_assemble_ms",
        phase
            .samples
            .iter()
            .map(|s| defs[s.def].parse_ms)
            .sum::<f64>()
            / jobs,
    );
    // The engine's symbolic analyses carry no span: price each miss at
    // the harness-timed analysis of the same circuits.
    let analyze_each = exp.values().map(|e| e.analyze_ms).sum::<f64>() / exp.len().max(1) as f64;
    led.set(
        "sparse.analyze_ms",
        analyze_each * delta(|s| s.symbolic_misses) / jobs,
    );
    let (factor_ms, factors) = ledger::site_total(server, "solver.factor");
    led.set("sparse.factor_ms", factor_ms / jobs);
    led.set("sparse.factor_count", factors as f64 / jobs);
    led.set("sparse.fill_ratio", mix(&|e| e.fill_ratio));
    led.set("krylov.arnoldi_ms", per_job("solver.arnoldi"));
    led.set("krylov.bases", mix(&|e| e.stats.krylov_bases as f64));
    led.set("krylov.dim_avg", mix(&|e| e.stats.krylov_dim_avg()));
    led.set("krylov.dim_peak", mix(&|e| e.stats.krylov_dim_peak as f64));
    led.set(
        "krylov.accept_ratio",
        mix(&|e| e.stats.steps as f64 / (e.stats.steps + e.stats.rejected_steps).max(1) as f64),
    );
    led.set("dense.expm_ms", per_job("solver.expm"));
    led.set("dense.expm_evals", mix(&|e| e.stats.expm_evals as f64));
    led.set("dense.substeps", mix(&|e| e.stats.substeps as f64));
    led.set("core.combine_ms", per_job("solver.combine"));
    led.set("core.dc_ms", per_job("solver.dc"));
    led.set("dist.node_sum_ms", per_job("dist.node"));

    let queue_wait = per_job("engine.queue_wait");
    led.set("serve.queue_wait_ms", queue_wait);
    let runs: Vec<&Event> = server.iter().filter(|e| e.name == "engine.run").collect();
    for (path, run_key, hit_key) in [
        ("cold", "serve.run_ms.cold", "serve.hit.cold"),
        ("cache", "serve.run_ms.cache", "serve.hit.cache"),
        ("store", "serve.run_ms.store", "serve.hit.store"),
        ("whatif", "serve.run_ms.whatif", "serve.hit.whatif"),
    ] {
        let on: Vec<f64> = runs
            .iter()
            .filter(|e| e.label("path") == Some(path))
            .map(|e| e.dur_us / 1e3)
            .collect();
        led.set(run_key, on.iter().sum::<f64>() / on.len().max(1) as f64);
        led.set(hit_key, on.len() as f64 / runs.len().max(1) as f64);
    }
    led.set(
        "serve.setup_misses_per_structure",
        delta(|s| s.setup_misses) / structures.max(1) as f64,
    );
    let flush_ms = page_delta("matex_service_flush_seconds_sum") * 1e3 / jobs;
    led.set("serve.flush_ms", flush_ms);
    led.set("wire.bytes_per_job", phase.bytes as f64 / jobs);
    led.set("store.read_ms", per_job("store.read"));
    led.set("store.write_ms", per_job("store.write"));
    led.set("store.hits", delta(|s| s.store_hits) / jobs);
    led.set("store.writes", delta(|s| s.store_writes) / jobs);
    led.set("store.errors", delta(|s| s.store_errors) / jobs);

    // Client latency against the server spans that cover it.
    let client_ms = ledger::site_total(client, "client.job").0 / jobs;
    let run_ms = runs.iter().map(|e| e.dur_us / 1e3).sum::<f64>() / jobs;
    let covered = queue_wait + run_ms + flush_ms;
    led.set("serve.unaccounted_ms", client_ms - covered);
    led.set("ledger.coverage", covered / client_ms.max(1e-12));
    led.set(
        "proc.cpu_util",
        phase.cpu / (phase.wall.as_secs_f64() * crate::host_threads() as f64).max(1e-9),
    );
    led.set(
        "accuracy.max_err_v",
        exp.values().map(|e| e.dev).fold(0.0, f64::max),
    );
    led.set(
        "jobs.failed_frac",
        phase.failures.len() as f64 / phase.attempted.max(1) as f64,
    );
    Ok(())
}

/// Prints, per traffic class, the share of the timed jobs and their
/// median latency, so the mix behind `job_p50_ms` is on record.
fn class_report(out: &mut Outcome, phases: &[Phase], defs: &[JobDef]) {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in phases.iter().flat_map(|p| &p.samples) {
        by_class
            .entry(defs[s.def].class)
            .or_default()
            .push(ms(s.latency));
    }
    let total: usize = by_class.values().map(Vec::len).sum();
    out.line("job class         jobs  share    p50 ms");
    for (class, lat) in &by_class {
        out.line(format!(
            "{class:<14} {:>7} {:>5.1}% {:>9.3}",
            lat.len(),
            100.0 * lat.len() as f64 / total.max(1) as f64,
            crate::median(lat)
        ));
    }
}

/// Rounds, standalone solves of every job they ran, checks, then the
/// end-to-end metrics or (traced) the ledger.
fn run_workload(
    args: &Args,
    seq: &[usize],
    defs: &[JobDef],
    burst: bool,
    structures_of: &dyn Fn(&Phase) -> usize,
    start: &dyn Fn(&Obs) -> Result<Service, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    crate::reset_peak_rss();
    let phases = run_rounds(args, seq, defs, burst, start)?;
    let rss = crate::peak_rss_mb();
    let mut wanted: Vec<usize> = phases
        .iter()
        .flat_map(|p| p.used().into_iter().chain(p.warmup.iter().map(|w| w.0)))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let exp = standalone(defs, &wanted)?;
    check(out, &phases, defs, &exp);

    let latencies = |p: &Phase| p.samples.iter().map(|s| ms(s.latency)).collect::<Vec<_>>();
    if !args.trace {
        class_report(out, &phases, defs);
        let all: Vec<f64> = phases.iter().flat_map(latencies).collect();
        crate::latency_metrics(out, &all, phases.iter().map(|p| p.wall).sum());
        let setups: Vec<f64> = phases.iter().map(|p| p.setup.as_secs_f64()).collect();
        crate::setup_metrics(out, &setups, rss);
        return Ok(());
    }
    let (untraced, traced) = (&phases[0], &phases[1]);
    let mut led = Ledger::default();
    fold(&mut led, traced, defs, &exp, structures_of(traced))?;
    let p_u = crate::median(&latencies(untraced));
    let p_t = crate::median(&latencies(traced));
    out.line(format!(
        "traced {} jobs (p50 {p_t:.3} ms) vs untraced {} (p50 {p_u:.3} ms)",
        traced.samples.len(),
        untraced.samples.len()
    ));
    led.set(
        "obs.trace_overhead_pct",
        (p_t / p_u.max(1e-12) - 1.0) * 100.0,
    );
    led.set("host.calib_ms", crate::host_calib_ms());
    led.emit(out);
    Ok(())
}

/// `serve_warm`: a few mid-size circuits, warmed during set-up, then a
/// seeded mix of exact repeats, `scale` scenarios, same-decade `gamma`
/// overrides, `mono`/`dist` modes and fresh rank-1 `cap_row` what-if
/// edits (new each time, so each runs the SMW correction).
pub fn run_warm(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let mut defs: Vec<JobDef> = Vec::new();
    // Per circuit: its base job, capacitive rows, submit template, spec.
    let mut circuits = Vec::new();
    for (c, &d) in WARM_GRIDS.iter().enumerate() {
        let (loads, features, seed) = (d * d / 8, 4, rng.below(1 << 20) as u64 + 1);
        let sys = Arc::new(
            PdnBuilder::new(d, d)
                .num_loads(loads)
                .num_features(features)
                .seed(seed)
                .window(T_STOP)
                .build()
                .map_err(|e| e.to_string())?,
        );
        let rows = rows_for(&sys);
        let mut load = LoadJob::pdn(d, d, loads, features, seed).window(T_STOP, DT_OUT);
        load.submit_fields.push_str(&rows_field(&rows));
        let job = JobSpec::new(sys.clone(), window_spec(rows)?);
        // What-if edits target nodes that have a ground capacitance.
        let capped: Vec<usize> = (0..sys.num_nodes())
            .filter(|&r| sys.c().get(r, r) > 0.0)
            .collect();
        circuits.push((defs.len(), capped, load.clone(), job.clone()));
        let mut add = |class: &'static str, label: String, load: LoadJob, spec: JobSpec| {
            defs.push(JobDef {
                label: format!("c{c}/{label}"),
                class,
                load,
                spec,
                whatif_base: None,
                warm: true,
                parse_ms: 0.0,
            })
        };
        add("repeat", "repeat".into(), load.clone(), job.clone());
        for k in 0..2 {
            let s = rng.range(0.6, 1.4);
            add(
                "scale",
                format!("scale{k}"),
                load.clone().scaled(s),
                job.clone().source_scale(s),
            );
        }
        let gamma = 1e-10 * rng.range(1.5, 9.0);
        let mut g_load = load.clone();
        g_load
            .submit_fields
            .push_str(&format!(", \"gamma\": {gamma:e}"));
        add("gamma", "gamma".into(), g_load, job.clone().gamma(gamma));
        let dist = ExecutionMode::Distributed {
            strategy: GroupingStrategy::ByBumpFeature,
            workers: Some(2),
        };
        let mut d_load = load.clone();
        d_load
            .submit_fields
            .push_str(", \"mode\": \"dist\", \"workers\": 2");
        add(
            "dist",
            "dist".into(),
            d_load.clone(),
            job.clone().mode(dist.clone()),
        );
        let s = rng.range(0.6, 1.4);
        add(
            "dist_scale",
            "dist_scale".into(),
            d_load.scaled(s),
            job.clone().mode(dist).source_scale(s),
        );
    }
    let warmed = defs.len();
    // The sequence: shuffled passes over the warmed jobs plus fresh
    // what-if edits, which become jobs of their own.
    let mut seq = Vec::new();
    for _ in 0..WARM_PASSES {
        let mut pass: Vec<usize> = (0..warmed).collect();
        for (base, capped, load, job) in &circuits {
            for _ in 0..CAPS_PER_PASS {
                let row = capped[rng.below(capped.len())];
                let f = rng.range(1.5, 4.0);
                pass.push(defs.len());
                defs.push(JobDef {
                    label: format!("{}/cap{row}x{f:.3}", defs[*base].label),
                    class: "whatif",
                    load: load.clone().cap_scaled(row, f),
                    spec: job.clone().cap_scale(row, f),
                    whatif_base: Some(*base),
                    warm: false,
                    parse_ms: 0.0,
                });
            }
        }
        for i in (1..pass.len()).rev() {
            pass.swap(i, rng.below(i + 1));
        }
        seq.extend(pass);
    }
    out.line(format!(
        "serve_warm: {} circuits (n = {:?}), {warmed} warmed jobs + {} what-if edits per pass, \
         {CLIENTS} clients, binary frames",
        circuits.len(),
        circuits
            .iter()
            .map(|c| c.3.circuit.dim())
            .collect::<Vec<_>>(),
        circuits.len() * CAPS_PER_PASS
    ));
    let warm_lines: Vec<(usize, String)> = defs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.warm)
        .map(|(i, d)| (i, submit_line(&d.load)))
        .collect();
    let start = |obs: &Obs| -> Result<Service, String> {
        let t0 = Instant::now();
        let engine = Arc::new(ScenarioEngine::new(engine_options(None, obs)));
        let handle = serve(
            engine.clone(),
            &ServiceOptions::builder().stream_chunk(CHUNK).build(),
        )
        .map_err(|e| e.to_string())?;
        let addr = handle.addr().to_string();
        // The cold warm-up jobs: every warmed job once.
        let mut c = Client::connect(&addr)?;
        let mut warmup = Vec::new();
        for (d, line) in &warm_lines {
            warmup.push((*d, c.run(line)?));
        }
        Ok(Service {
            engine,
            handle,
            addr,
            setup: t0.elapsed(),
            obs: obs.clone(),
            warmup,
        })
    };
    let structures = circuits.len();
    let burst = false;
    run_workload(args, &seq, &defs, burst, &|_| structures, &start, &mut out)?;
    Ok(out)
}

/// `serve_cold`: every wave is a circuit structure the engine's memory
/// has not seen, submitted as netlist text by both clients at once;
/// even waves were written to a fresh artifact store during set-up
/// (they hydrate), odd waves are brand-new (miss, factor, write back).
pub fn run_cold(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The structures (grid sides) are one fixed shuffled list, so every
    // seed runs the same sizes; the seed sets their values and loads.
    let (lo, hi) = COLD_SIDES;
    let mut sides: Vec<(usize, usize)> = (lo..=hi)
        .flat_map(|x| (lo..=hi).map(move |y| (x, y)))
        .collect();
    let mut order = Rng::new(0);
    for i in (1..sides.len()).rev() {
        sides.swap(i, order.below(i + 1));
    }
    let mut rng = Rng::new(args.seed);
    let mut defs = Vec::new();
    for (s, &(nx, ny)) in sides.iter().take(COLD_STRUCTURES).enumerate() {
        let nl = PdnBuilder::new(nx, ny)
            .num_loads(nx * ny / 8)
            .num_features(4)
            .seed(rng.below(1 << 20) as u64 + 1)
            .window(T_STOP)
            .cap_spread(30.0)
            .build_netlist()
            .map_err(|e| e.to_string())?;
        let text = grid::render_spice(&format!("serve_cold structure {s}"), &nl, DT_OUT, T_STOP)?;
        let t0 = Instant::now();
        let parsed = parse_netlist(&text).map_err(|e| e.to_string())?;
        let sys = Arc::new(MnaSystem::assemble(&parsed.netlist).map_err(|e| e.to_string())?);
        let parse_ms = ms(t0.elapsed());
        let rows = rows_for(&sys);
        let mut load = LoadJob::netlist(&text).window(T_STOP, DT_OUT);
        load.submit_fields.push_str(&rows_field(&rows));
        defs.push(JobDef {
            label: format!("s{s} ({nx}x{ny})"),
            class: if s % 2 == 0 { "prefilled" } else { "new" },
            load,
            spec: JobSpec::new(sys, window_spec(rows)?),
            whatif_base: None,
            warm: false,
            parse_ms,
        });
    }
    out.line(format!(
        "serve_cold: {} structures per round ({lo}..{hi} sides, n = {}..{}), \
         {CLIENTS} clients in burst, binary frames",
        defs.len(),
        defs.iter().map(|d| d.spec.circuit.dim()).min().unwrap_or(0),
        defs.iter().map(|d| d.spec.circuit.dim()).max().unwrap_or(0),
    ));
    let seq: Vec<usize> = (0..defs.len()).collect();
    let work_dir = args
        .work_dir
        .join(format!("serve_cold-{}", std::process::id()));
    let round = AtomicUsize::new(0);
    let start = |obs: &Obs| -> Result<Service, String> {
        let t0 = Instant::now();
        let dir = work_dir.join(format!("round{}", round.fetch_add(1, Ordering::SeqCst)));
        let open = |obs: &Obs| -> Result<Arc<ArtifactStore>, String> {
            let opts = StoreOptions {
                obs: obs.clone(),
                ..StoreOptions::default()
            };
            Ok(Arc::new(
                ArtifactStore::open_with(&dir, opts).map_err(|e| e.to_string())?,
            ))
        };
        // Pre-fill: a separate engine writes the even structures.
        let off = Obs::disabled();
        let prefill = ScenarioEngine::new(engine_options(Some(open(&off)?), &off));
        for d in defs.iter().step_by(2) {
            prefill.run(&d.spec).map_err(|e| e.to_string())?;
        }
        drop(prefill);
        let engine = Arc::new(ScenarioEngine::new(engine_options(Some(open(obs)?), obs)));
        let handle = serve(
            engine.clone(),
            &ServiceOptions::builder().stream_chunk(CHUNK).build(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Service {
            engine,
            addr: handle.addr().to_string(),
            handle,
            setup: t0.elapsed(),
            obs: obs.clone(),
            warmup: Vec::new(),
        })
    };
    let burst = true;
    let result = run_workload(
        args,
        &seq,
        &defs,
        burst,
        &|p: &Phase| p.used().len(),
        &start,
        &mut out,
    );
    let _ = std::fs::remove_dir_all(&work_dir);
    result.map(|()| out)
}
