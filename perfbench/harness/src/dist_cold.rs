//! `dist_cold`: the paper's Table-3 case as a library user runs it.
//!
//! Each job hands the rendered SPICE text of a seeded RLC grid to
//! `parse_netlist` → `MnaSystem::assemble` →
//! `matex_dist::run_distributed` (two workers, groups by bump feature).
//! Nothing is reused between jobs: every job is cold.

use crate::grid::{self, Rng};
use crate::ledger::{self, Event, Ledger};
use crate::{ms, Args, Outcome};
use matex_circuit::{parse_netlist, MnaSystem};
use matex_core::{
    reference_solution, MatexOptions, MatexSolver, MatexSymbolic, ReferenceMethod, TransientEngine,
    TransientResult, TransientSpec,
};
use matex_dist::{run_distributed, DistributedOptions, DistributedRun, SpeedupModel};
use matex_obs::Obs;
use matex_waveform::GroupingStrategy;
use std::time::{Duration, Instant};

/// Fine-mesh side of the grid (≈ 1.1 d² unknowns).
const GRID: usize = 36;
/// Distinct bump shapes (≈ distributed groups).
const FEATURES: usize = 8;
/// Transient window and output samples.
const WINDOW: f64 = 2e-9;
const SAMPLES: usize = 50;
const WORKERS: usize = 2;
/// An untraced run repeats the set-up before every `SETUP_EVERY`-th
/// job (the median is reported).
const SETUP_EVERY: u64 = 4;
/// Accuracy gate on the max error of every job, volts.
const MAX_ERR_LIMIT: f64 = 1e-3;
/// A reference is an oracle only if its own uncertainty is below the
/// error it measures by this factor.
const ORACLE_MARGIN: f64 = 10.0;
/// Jobs an untraced run measures at least (100 leave ten beyond p90).
const MIN_JOBS: u64 = 100;
/// TR reference steps per output sample (coarse; fine is 4× this).
const TR_STEPS: usize = 10;

/// Set-up, generator to ready: build the seeded grid and render it as
/// SPICE text. It is repeated between timed jobs across the whole run,
/// so its median sees the same host as the jobs do. The rendering is
/// the benchmark's own code, so the report splits it out of `setup_s`.
struct Setup {
    grid_seed: u64,
    setup_s: Vec<f64>,
    build_ms: Vec<f64>,
    render_ms: Vec<f64>,
}

impl Setup {
    fn new(seed: u64) -> Setup {
        Setup {
            grid_seed: Rng::new(seed).next_u64(),
            setup_s: Vec::new(),
            build_ms: Vec::new(),
            render_ms: Vec::new(),
        }
    }

    /// One timed set-up; returns the rendered text.
    fn once(&mut self) -> Result<String, String> {
        let t0 = Instant::now();
        let builder = grid::pdn(GRID, FEATURES, WINDOW, true, self.grid_seed);
        let nl = builder.build_netlist().map_err(|e| e.to_string())?;
        let built = t0.elapsed();
        let text = grid::render_spice(
            &format!("dist_cold grid seed {}", self.grid_seed),
            &nl,
            WINDOW / SAMPLES as f64,
            WINDOW,
        )?;
        let total = t0.elapsed();
        self.build_ms.push(ms(built));
        self.render_ms.push(ms(total - built));
        self.setup_s.push(total.as_secs_f64());
        Ok(text)
    }

    /// The text must round-trip to the circuit the generator built.
    fn check(&self, text: &str, out: &mut Outcome) -> Result<(), String> {
        let direct = grid::pdn(GRID, FEATURES, WINDOW, true, self.grid_seed)
            .build()
            .map_err(|e| e.to_string())?;
        let parsed = assemble(text)?.0;
        out.check(
            parsed.g() == direct.g()
                && parsed.c() == direct.c()
                && parsed.b() == direct.b()
                && parsed.sources() == direct.sources(),
            format!(
                "rendered netlist ({} bytes) parses back to the generated grid (n = {})",
                text.len(),
                direct.dim()
            ),
        );
        Ok(())
    }
}

fn assemble(text: &str) -> Result<(MnaSystem, TransientSpec), String> {
    let parsed = parse_netlist(text).map_err(|e| e.to_string())?;
    let sys = MnaSystem::assemble(&parsed.netlist).map_err(|e| e.to_string())?;
    let tran = parsed.tran.ok_or("netlist has no .tran card")?;
    let rows: Vec<usize> = (0..sys.num_nodes()).step_by(13).collect();
    let spec = TransientSpec::new(0.0, tran.stop, tran.step)
        .map_err(|e| e.to_string())?
        .observing(rows);
    Ok((sys, spec))
}

/// One timed job and what it returned.
struct Job {
    latency: Duration,
    parse_assemble: Duration,
    run: DistributedRun,
}

fn job(text: &str, obs: &Obs) -> Result<Job, String> {
    let t0 = Instant::now();
    let (sys, spec) = assemble(text)?;
    let parse_assemble = t0.elapsed();
    let mut opts = DistributedOptions {
        strategy: GroupingStrategy::ByBumpFeature,
        workers: Some(WORKERS),
        obs: obs.clone(),
        ..DistributedOptions::default()
    };
    opts.matex.obs = obs.clone();
    let run = run_distributed(&sys, &spec, &opts).map_err(|e| e.to_string())?;
    Ok(Job {
        latency: t0.elapsed(),
        parse_assemble,
        run,
    })
}

/// A reference with its own refinement uncertainty.
struct Reference {
    result: TransientResult,
    uncertainty: f64,
    label: String,
}

/// Fixed-step TR at two refinements (the finer one is the reference;
/// Richardson's estimate for a second-order method bounds its error by
/// `|fine − coarse| / 15`).
fn tr_reference(sys: &MnaSystem, spec: &TransientSpec) -> Result<Reference, String> {
    let run = |steps| {
        reference_solution(sys, spec, ReferenceMethod::Trapezoidal, steps)
            .map_err(|e| e.to_string())
    };
    let coarse = run(TR_STEPS)?;
    let fine = run(4 * TR_STEPS)?;
    let (diff, _) = fine.error_vs(&coarse).map_err(|e| e.to_string())?;
    Ok(Reference {
        result: fine,
        uncertainty: diff / 15.0,
        label: format!(
            "TR at {} steps/sample (Richardson vs {})",
            4 * TR_STEPS,
            TR_STEPS
        ),
    })
}

/// Monolithic MATEX at two tight Krylov tolerances; the spread between
/// them is the uncertainty.
fn matex_reference(sys: &MnaSystem, spec: &TransientSpec) -> Result<Reference, String> {
    let run = |tol| {
        MatexSolver::new(MatexOptions::default().tol(tol))
            .run(sys, spec)
            .map_err(|e| e.to_string())
    };
    let loose = run(1e-10)?;
    let tight = run(1e-12)?;
    let (diff, _) = tight.error_vs(&loose).map_err(|e| e.to_string())?;
    Ok(Reference {
        result: tight,
        uncertainty: diff,
        label: "monolithic MATEX at tol 1e-12 (vs 1e-10), TR did not converge".into(),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Setup::new(args.seed);
    let text = setup.once()?;
    setup.check(&text, &mut out)?;
    let (sys, spec) = assemble(&text)?;
    out.line(format!(
        "grid: {GRID}x{GRID} RLC, n = {}, {} sources, {} samples, {} workers",
        sys.dim(),
        sys.num_sources(),
        SAMPLES + 1,
        WORKERS
    ));

    // Reference first, outside every timed region. A reference whose
    // own uncertainty is not below the error it measures is no oracle.
    let first = job(&text, &Obs::disabled())?;
    let tr = tr_reference(&sys, &spec)?;
    let (tr_err, _) = first
        .run
        .result
        .error_vs(&tr.result)
        .map_err(|e| e.to_string())?;
    let (reference, max_err) = if tr.uncertainty * ORACLE_MARGIN < tr_err {
        (tr, tr_err)
    } else {
        out.line(format!(
            "TR reference uncertainty {:.3e} V is not below max_err {tr_err:.3e} V / \
             {ORACLE_MARGIN}; falling back to monolithic MATEX",
            tr.uncertainty
        ));
        let m = matex_reference(&sys, &spec)?;
        let (e, _) = first
            .run
            .result
            .error_vs(&m.result)
            .map_err(|e| e.to_string())?;
        (m, e)
    };
    out.line(format!("reference: {}", reference.label));
    out.line(format!(
        "max_err     {max_err:>12.4e} V    reference uncertainty {:.3e} V",
        reference.uncertainty
    ));
    out.check(
        reference.uncertainty * ORACLE_MARGIN < max_err,
        format!(
            "reference uncertainty {:.3e} V < max_err {max_err:.3e} V / {ORACLE_MARGIN}",
            reference.uncertainty
        ),
    );
    out.check(
        max_err <= MAX_ERR_LIMIT,
        format!("max_err {max_err:.3e} V <= {MAX_ERR_LIMIT:e} V"),
    );
    let expected = first.run.result.series().to_vec();

    // Timed loop. With tracing, the first half runs untraced (the
    // overhead baseline) and the second half records into `obs`.
    let obs = Obs::enabled();
    let phases: &[(bool, f64)] = if args.trace {
        &[(false, 0.5), (true, 0.5)]
    } else {
        &[(false, 1.0)]
    };
    let mut untraced_ms = Vec::new();
    let mut traced: Vec<Job> = Vec::new();
    let mut wall = Duration::ZERO;
    let mut cpu = 0.0;
    let mut mismatched = 0usize;
    let mut setup_differs = 0usize;
    crate::reset_peak_rss();
    for &(trace, share) in phases {
        let budget = Duration::from_secs_f64(args.seconds * share);
        let cpu0 = crate::cpu_seconds();
        let t0 = Instant::now();
        let mut setup_time = Duration::ZERO;
        let mut n = 0u64;
        // An untraced run keeps going past its budget (up to 3x) until
        // it has the sample `job_p90_ms` needs.
        let min_jobs = if args.trace { 0 } else { MIN_JOBS };
        while t0.elapsed() < budget || (n < min_jobs && t0.elapsed() < 3 * budget) {
            if !trace && n % SETUP_EVERY == 0 {
                let s0 = Instant::now();
                if setup.once()? != text {
                    setup_differs += 1;
                }
                setup_time += s0.elapsed();
            }
            let handle = if trace {
                obs.tagged(n)
            } else {
                Obs::disabled()
            };
            out.attempted += 1;
            let j = match job(&text, &handle) {
                Ok(j) => j,
                Err(e) => {
                    out.failed += 1;
                    out.line(format!("job failed: {e}"));
                    continue;
                }
            };
            if j.run.result.series() != expected.as_slice() {
                mismatched += 1;
            }
            if trace {
                traced.push(j);
            } else {
                untraced_ms.push(ms(j.latency));
            }
            n += 1;
        }
        // The last phase (the traced one, when tracing) is reported.
        wall = t0.elapsed() - setup_time;
        cpu = crate::cpu_seconds() - cpu0;
    }
    out.check(
        setup_differs == 0,
        format!(
            "all {} set-ups rendered the same text ({setup_differs} differ)",
            setup.setup_s.len()
        ),
    );
    out.check(
        mismatched == 0,
        format!("all jobs bitwise identical to the first ({mismatched} differ)"),
    );
    out.check(out.failed == 0, format!("{} jobs failed", out.failed));

    if !args.trace {
        crate::latency_metrics(&mut out, &untraced_ms, wall);
        out.line(format!(
            "setup split (medians): PdnBuilder::build_netlist {:.3} ms, render_spice {:.3} ms",
            crate::median(&setup.build_ms),
            crate::median(&setup.render_ms)
        ));
        crate::setup_metrics(&mut out, &setup.setup_s, crate::peak_rss_mb());
        return Ok(out);
    }

    let mut led = Ledger::default();
    fold(
        &mut led,
        &mut out,
        &sys,
        &traced,
        &ledger::parse_events(&obs.chrome_trace_events()),
    )?;
    let traced_ms: Vec<f64> = traced.iter().map(|j| ms(j.latency)).collect();
    let (p_t, p_u) = (crate::median(&traced_ms), crate::median(&untraced_ms));
    led.set(
        "obs.trace_overhead_pct",
        (p_t / p_u.max(1e-12) - 1.0) * 100.0,
    );
    led.set(
        "proc.cpu_util",
        cpu / (wall.as_secs_f64() * crate::host_threads() as f64).max(1e-9),
    );
    led.set("host.calib_ms", crate::host_calib_ms());
    led.set("accuracy.max_err_v", max_err);
    led.set("accuracy.ref_uncertainty_v", reference.uncertainty);
    led.set(
        "jobs.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.line(format!(
        "traced {} jobs (p50 {p_t:.3} ms) vs untraced {} (p50 {p_u:.3} ms)",
        traced.len(),
        untraced_ms.len()
    ));
    led.emit(&mut out);
    Ok(out)
}

/// Per-job means of every layer the distributed run touches, from the
/// returned `DistributedRun`s and the recorded `dist.node` /
/// `solver.arnoldi` spans.
fn fold(
    led: &mut Ledger,
    out: &mut Outcome,
    sys: &MnaSystem,
    jobs: &[Job],
    events: &[Event],
) -> Result<(), String> {
    let n = jobs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Job) -> f64| jobs.iter().map(f).sum::<f64>() / n;
    let node_sum = |j: &Job| j.run.nodes.iter().map(|x| ms(x.wall)).sum::<f64>();
    let makespans: Vec<f64> = (0..jobs.len() as u64)
        .map(|id| {
            let nodes: Vec<&Event> = events
                .iter()
                .filter(|e| e.name == "dist.node" && e.job == id)
                .collect();
            let start = nodes.iter().map(|e| e.ts_us).fold(f64::INFINITY, f64::min);
            let end = nodes.iter().map(|e| e.end_us()).fold(0.0, f64::max);
            if nodes.is_empty() {
                0.0
            } else {
                (end - start) / 1e3
            }
        })
        .collect();
    let makespan = makespans.iter().sum::<f64>() / n;
    let stat = |f: &dyn Fn(&matex_core::SolveStats) -> f64| mean(&|j| f(&j.run.result.stats));

    let parse_assemble = mean(&|j| ms(j.parse_assemble));
    let analyze = mean(&|j| ms(j.run.stats.analyze_time));
    let latency = mean(&|j| ms(j.latency));
    led.set("circuit.parse_assemble_ms", parse_assemble);
    led.set("sparse.analyze_ms", analyze);
    led.set("sparse.factor_ms", stat(&|s| ms(s.factor_time)));
    led.set("sparse.factor_count", stat(&|s| s.factorizations as f64));
    let symbolic =
        MatexSymbolic::analyze(sys, &MatexOptions::default()).map_err(|e| e.to_string())?;
    led.set(
        "sparse.fill_ratio",
        symbolic.g().fill_nnz() as f64 / sys.g().nnz().max(1) as f64,
    );
    led.set(
        "krylov.arnoldi_ms",
        ledger::site_total(events, "solver.arnoldi").0 / n,
    );
    led.set("krylov.bases", stat(&|s| s.krylov_bases as f64));
    led.set("krylov.dim_avg", stat(&|s| s.krylov_dim_avg()));
    led.set("krylov.dim_peak", stat(&|s| s.krylov_dim_peak as f64));
    led.set(
        "krylov.accept_ratio",
        stat(&|s| s.steps as f64 / (s.steps + s.rejected_steps).max(1) as f64),
    );
    led.set("dense.expm_ms", stat(&|s| ms(s.expm_time)));
    led.set("dense.expm_evals", stat(&|s| s.expm_evals as f64));
    led.set("dense.substeps", stat(&|s| s.substeps as f64));
    led.set("core.combine_ms", stat(&|s| ms(s.combine_time)));
    led.set("core.dc_ms", stat(&|s| ms(s.dc_time)));
    let node_sum_ms = mean(&node_sum);
    led.set("dist.makespan_ms", makespan);
    led.set("dist.node_sum_ms", node_sum_ms);
    led.set(
        "dist.superposition_ms",
        mean(&|j| ms(j.run.superposition_time)),
    );
    led.set(
        "dist.balance",
        node_sum_ms / (WORKERS as f64 * makespan).max(1e-12),
    );
    led.set("dist.groups", mean(&|j| j.run.num_groups() as f64));
    led.set("dist.node_retries", mean(&|j| j.run.node_retries as f64));

    // The library caller's latency against the spans covering it:
    // parse + assemble, the master's analysis, and the node makespan.
    let covered = parse_assemble + analyze + makespan;
    led.set("serve.unaccounted_ms", latency - covered);
    led.set("ledger.coverage", covered / latency.max(1e-12));

    // Sec. 3.4 model, filled with this run's measured unit costs.
    let model_rows = jobs
        .iter()
        .map(|j| speedup_model(&j.run))
        .collect::<Vec<_>>();
    let pred = model_rows.iter().map(|m| m.pred_ms).sum::<f64>() / n;
    let meas = model_rows.iter().map(|m| m.meas_ms).sum::<f64>() / n;
    led.set("model.node_cost_pred_ms", pred);
    led.set("model.node_cost_meas_ms", meas);
    if let Some(m) = model_rows.first() {
        out.line(format!(
            "Sec. 3.4 model (busiest node, job 0): K = {}, k = {}, m = {:.1}, \
             T_bs = {:.3e} s, T_H = {:.3e} s, T_e = {:.3e} s",
            m.model.gts_points,
            m.model.lts_points,
            m.model.m,
            m.model.t_bs,
            m.model.t_h,
            m.model.t_e
        ));
        out.line(format!(
            "  node cost: predicted {:.3} ms, measured {:.3} ms",
            m.pred_ms, m.meas_ms
        ));
        for (name, p, q) in [
            ("factor", m.pred_share[0], m.meas_share[0]),
            ("T_H", m.pred_share[1], m.meas_share[1]),
            ("T_e", m.pred_share[2], m.meas_share[2]),
        ] {
            out.line(format!(
                "  {name:<6} share: predicted {:>6.1}%  measured {:>6.1}%",
                p * 100.0,
                q * 100.0
            ));
        }
    }
    // Node work is split over the workers, so it counts 1/WORKERS of
    // its CPU time against the caller's latency.
    let shares = [
        (
            "analyze+factor",
            analyze + mean(&|j| ms(j.run.result.stats.factor_time)) / WORKERS as f64,
        ),
        ("parse+assemble", parse_assemble),
        (
            "krylov+expm+combine",
            mean(&|j| ms(j.run.result.stats.transient_time)) / WORKERS as f64,
        ),
    ];
    for (name, v) in shares {
        out.line(format!(
            "job time share {name:<20} {v:>9.3} ms  {:>5.1}%",
            100.0 * v / latency.max(1e-12)
        ));
    }
    let largest = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |s| s.0);
    out.line(format!(
        "largest share of job time (node work split over {WORKERS} workers): {largest}"
    ));
    Ok(())
}

struct ModelRow {
    model: SpeedupModel,
    pred_ms: f64,
    meas_ms: f64,
    /// factor, T_H, T_e shares of the node's factor + transient time.
    pred_share: [f64; 3],
    meas_share: [f64; 3],
}

/// Fills the Sec. 3.4 model from the busiest node's measured costs:
/// `T_H` and `T_e` per small-exponential evaluation, `T_bs` per
/// substitution pair from the rest of its transient time.
fn speedup_model(run: &DistributedRun) -> ModelRow {
    let busy = run
        .nodes
        .iter()
        .max_by_key(|n| n.stats.transient_time)
        .expect("a distributed run has nodes");
    let st = &busy.stats;
    let evals = st.expm_evals.max(1) as f64;
    let t_h = st.expm_time.as_secs_f64() / evals;
    let t_e = st.combine_time.as_secs_f64() / evals;
    let rest = st.transient_time.as_secs_f64()
        - st.expm_time.as_secs_f64()
        - st.combine_time.as_secs_f64();
    let model = SpeedupModel {
        gts_points: run.gts.len(),
        lts_points: busy.num_lts.max(1),
        m: st.krylov_dim_avg().max(1.0),
        fixed_steps: 0,
        t_bs: rest.max(0.0) / st.substitution_pairs.max(1) as f64,
        t_h,
        t_e,
        t_serial: 0.0,
    };
    let factor = st.factor_time.as_secs_f64();
    let pred = model.node_cost();
    let meas = st.transient_time.as_secs_f64();
    let k = model.gts_points as f64;
    let pred_total = (factor + pred).max(1e-12);
    let meas_total = (factor + meas).max(1e-12);
    ModelRow {
        model,
        pred_ms: pred * 1e3,
        meas_ms: meas * 1e3,
        pred_share: [
            factor / pred_total,
            k * t_h / pred_total,
            k * t_e / pred_total,
        ],
        meas_share: [
            factor / meas_total,
            st.expm_time.as_secs_f64() / meas_total,
            st.combine_time.as_secs_f64() / meas_total,
        ],
    }
}
