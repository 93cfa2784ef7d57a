//! The per-layer ledger of a traced run: the fixed metric list, the
//! parsers for what the stack exports (Chrome-trace events, the
//! Prometheus page), and the table printed next to the result.

use crate::Outcome;
use std::collections::BTreeMap;

/// Every per-layer metric, in print order, with its unit. Each traced
/// run reports all of them; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.parse_assemble_ms", "ms"),
    ("sparse.analyze_ms", "ms"),
    ("sparse.factor_ms", "ms"),
    ("sparse.factor_count", "count"),
    ("sparse.fill_ratio", "ratio"),
    ("krylov.arnoldi_ms", "ms"),
    ("krylov.bases", "count"),
    ("krylov.dim_avg", "count"),
    ("krylov.dim_peak", "count"),
    ("krylov.accept_ratio", "ratio"),
    ("dense.expm_ms", "ms"),
    ("dense.expm_evals", "count"),
    ("dense.substeps", "count"),
    ("core.combine_ms", "ms"),
    ("core.dc_ms", "ms"),
    ("dist.makespan_ms", "ms"),
    ("dist.node_sum_ms", "ms"),
    ("dist.superposition_ms", "ms"),
    ("dist.balance", "ratio"),
    ("dist.groups", "count"),
    ("dist.node_retries", "count"),
    ("model.node_cost_pred_ms", "ms"),
    ("model.node_cost_meas_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms.cold", "ms"),
    ("serve.run_ms.cache", "ms"),
    ("serve.run_ms.store", "ms"),
    ("serve.run_ms.whatif", "ms"),
    ("serve.hit.cold", "ratio"),
    ("serve.hit.cache", "ratio"),
    ("serve.hit.store", "ratio"),
    ("serve.hit.whatif", "ratio"),
    ("serve.setup_misses_per_structure", "ratio"),
    ("serve.flush_ms", "ms"),
    ("wire.bytes_per_job", "bytes"),
    ("serve.unaccounted_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("store.errors", "count"),
    ("jobs.failed_frac", "ratio"),
    ("accuracy.max_err_v", "V"),
    ("accuracy.ref_uncertainty_v", "V"),
    ("proc.cpu_util", "ratio"),
    ("host.calib_ms", "ms"),
    ("ledger.coverage", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// Per-layer values of one traced run, keyed by metric name.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Prints the table (each time also divided by `host.calib_ms`) and
    /// moves every per-layer metric into `out`.
    pub fn emit(&self, out: &mut Outcome) {
        let calib = self.values.get("host.calib_ms").copied().unwrap_or(0.0);
        out.line(format!(
            "{:<34} {:>14} {:<6} {:>12}",
            "per-layer metric", "value", "unit", "/ host.calib"
        ));
        for &(name, unit) in PER_LAYER {
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            let v = self.values.get(name).copied().unwrap_or(0.0) + 0.0;
            let norm = if unit == "ms" && calib > 0.0 {
                format!("{:>12.4}", v / calib)
            } else {
                String::new()
            };
            out.line(format!("{name:<34} {v:>14.6} {unit:<6} {norm}"));
            out.metric(name, v, unit);
        }
    }
}

/// One complete (`"ph":"X"`) Chrome-trace event.
#[derive(Debug, Clone)]
pub struct Event {
    pub name: String,
    pub ts_us: f64,
    pub dur_us: f64,
    pub job: u64,
    pub labels: Vec<(String, String)>,
}

impl Event {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn end_us(&self) -> f64 {
        self.ts_us + self.dur_us
    }
}

/// Parses the event array `matex_obs` exports (fixed key order:
/// name, cat, ph, ts, dur, pid, tid, args{job, labels...}).
pub fn parse_events(json: &str) -> Vec<Event> {
    let mut events = Vec::new();
    for chunk in json.split("{\"name\":\"").skip(1) {
        let Some((name, rest)) = chunk.split_once('"') else {
            continue;
        };
        let num = |key: &str| -> Option<f64> {
            let at = rest.find(key)? + key.len();
            let tail = &rest[at..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            tail[..end].parse().ok()
        };
        let (Some(ts_us), Some(dur_us)) = (num("\"ts\":"), num("\"dur\":")) else {
            continue;
        };
        let job = num("\"job\":").unwrap_or(0.0) as u64;
        let mut labels = Vec::new();
        if let Some(at) = rest.find("\"args\":{") {
            let args = &rest[at + 8..];
            let args = &args[..args.find('}').unwrap_or(args.len())];
            for kv in args.split(",\"").skip(1) {
                if let Some((k, v)) = kv.split_once("\":\"") {
                    labels.push((k.to_string(), v.trim_end_matches('"').to_string()));
                }
            }
        }
        events.push(Event {
            name: name.to_string(),
            ts_us,
            dur_us,
            job,
            labels,
        });
    }
    events
}

/// Total duration (ms) and count of the events named `site`.
pub fn site_total(events: &[Event], site: &str) -> (f64, usize) {
    events
        .iter()
        .filter(|e| e.name == site)
        .fold((0.0, 0), |(t, n), e| (t + e.dur_us / 1e3, n + 1))
}

/// Sums every sample of `series` (all label sets) on a Prometheus page.
pub fn prom_sum(page: &str, series: &str) -> f64 {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let name = key.split('{').next()?;
            (name == series)
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exported_events() {
        let obs = matex_obs::Obs::enabled();
        {
            let mut s = obs.span_for("engine.run", 7);
            s.label("path", "cache");
        }
        obs.add("jobs_total", 3);
        let events = parse_events(&obs.chrome_trace_events());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "engine.run");
        assert_eq!(events[0].job, 7);
        assert_eq!(events[0].label("path"), Some("cache"));
        assert_eq!(prom_sum(&obs.prometheus_text(), "matex_jobs_total"), 3.0);
    }
}
