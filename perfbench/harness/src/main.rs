//! MATEX repository benchmark harness.
//!
//! ```text
//! matex-perfbench --workload dist_cold|serve_warm|serve_cold \
//!                 --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run
//! measures the end-to-end metrics with observability off; with
//! `--trace 1` it measures a short untraced phase and then a traced
//! phase, and folds the spans, histograms and stats the stack emits into
//! the per-layer ledger. Every output is checked; a failed check prints
//! the reason to stderr and exits with code 1 before any result line.
//! Otherwise the last stdout line is the JSON result object.

mod dist_cold;
mod grid;
mod ledger;
mod serve;

use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for store files (inside the checkout).
    pub work_dir: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut work_dir = std::path::PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => trace = value == "1",
            "--work-dir" => work_dir = value.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: counts, checks, metrics and the
/// human-readable lines printed ahead of the result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Records a correctness check; a false `ok` fails the whole run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.lines.push(format!(
            "check {}: {what}",
            if ok { "ok  " } else { "FAIL" }
        ));
        if !ok {
            self.failures.push(what);
        }
    }
}

/// Linear-interpolated quantile of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Adds the latency metrics every workload reports, with sample counts.
/// `job_p90_ms` needs at least ten samples beyond the 90th percentile;
/// a smaller sample fails the run rather than report a noisy tail.
pub fn latency_metrics(out: &mut Outcome, latencies_ms: &[f64], wall: Duration) {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile(&sorted, 0.5);
    let p90 = quantile(&sorted, 0.9);
    let beyond = sorted.iter().filter(|&&l| l > p90).count();
    let rate = sorted.len() as f64 / wall.as_secs_f64().max(1e-9);
    out.line(format!("job_p50_ms  {p50:>12.4} ms   n={}", sorted.len()));
    out.line(format!(
        "job_p90_ms  {p90:>12.4} ms   n={} ({beyond} beyond p90)",
        sorted.len()
    ));
    out.line(format!(
        "jobs_per_s  {rate:>12.4} 1/s  n={} over {:.2} s",
        sorted.len(),
        wall.as_secs_f64()
    ));
    out.check(
        beyond >= 10,
        format!("{beyond} jobs beyond p90 (need >= 10 for job_p90_ms)"),
    );
    out.metric("job_p50_ms", p50, "ms");
    out.metric("job_p90_ms", p90, "ms");
    out.metric("jobs_per_s", rate, "1/s");
}

/// Adds `setup_s` (the median of the run's set-ups) and `peak_rss_mb`.
pub fn setup_metrics(out: &mut Outcome, setups: &[f64], rss: f64) {
    let setup_s = median(setups);
    out.line(format!(
        "setup_s     {setup_s:>12.6} s    n={}",
        setups.len()
    ));
    out.metric("setup_s", setup_s, "s");
    out.line(format!("peak_rss_mb {rss:>12.2} MB"));
    out.metric("peak_rss_mb", rss, "MB");
}

/// Restarts the peak-RSS high-water mark at the current resident set,
/// so `peak_rss_mb` covers the workload and not the harness's own
/// input generation or checks.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Process CPU time (user + system, all threads), seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host calibration: a fixed reference kernel (a 160×160 dense
/// matrix product in plain Rust, independent of the workspace code),
/// median of five timings, ms. Dividing a layer time by it makes a
/// uniform slowdown of the host visible apart from one of the code.
pub fn host_calib_ms() -> f64 {
    const N: usize = 160;
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 101) as f64 / 101.0)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|i| ((i * 104_729) % 97) as f64 / 97.0)
        .collect();
    let mut c = vec![0.0f64; N * N];
    let mut times = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        c.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&c);
        times.push(ms(t0.elapsed()));
    }
    median(&times)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("matex-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "dist_cold" => dist_cold::run(&args),
        "serve_warm" => serve::run_warm(&args),
        "serve_cold" => serve::run_cold(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("matex-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "== {} seed={} seconds={} trace={} nproc={} ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads()
    );
    for l in &out.lines {
        println!("{l}");
    }
    if !out.failures.is_empty() {
        for f in &out.failures {
            eprintln!("matex-perfbench: check failed: {f}");
        }
        std::process::exit(1);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
