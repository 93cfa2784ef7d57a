//! Seeded inputs: the synthetic power grids every workload runs on, and
//! their rendering as SPICE text (the form a library user hands in).

use matex_circuit::{Element, Netlist, PdnBuilder};
use matex_waveform::Waveform;
use std::fmt::Write as _;

/// SplitMix64 — the benchmark's one randomness source, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A pg-suite style grid: `d × d` fine mesh, a load on every fourth
/// node sharing `features` bump shapes, log-spread decap and, for the
/// RLC variant, package inductance at the pads (singular `C`).
pub fn pdn(d: usize, features: usize, window: f64, rlc: bool, seed: u64) -> PdnBuilder {
    let mut b = PdnBuilder::new(d, d)
        .num_loads((d * d / 4).max(8))
        .num_features(features)
        .window(window)
        .cap_spread(30.0)
        .seed(seed);
    if rlc {
        b = b.pad_inductance(1e-11);
    }
    b
}

/// Renders `nl` as SPICE text with a `.tran` card. Values are written
/// with round-trip precision, so parsing the text back yields the same
/// circuit bit for bit. Element names are written as they are: the
/// generators start every name with its SPICE element letter.
pub fn render_spice(title: &str, nl: &Netlist, step: f64, stop: f64) -> Result<String, String> {
    let mut out = String::with_capacity(48 * nl.num_elements() + 64);
    let _ = writeln!(out, "* {title}");
    let node = |n| match nl.node_name(n) {
        "" => "0",
        name => name,
    };
    for el in nl.elements() {
        let (name, a, b, value) = match el {
            Element::Resistor { name, a, b, ohms } => (name, a, b, format!("{ohms:e}")),
            Element::Capacitor { name, a, b, farads } => (name, a, b, format!("{farads:e}")),
            Element::Inductor {
                name,
                a,
                b,
                henries,
            } => (name, a, b, format!("{henries:e}")),
            Element::VSource {
                name,
                pos,
                neg,
                waveform,
            } => (name, pos, neg, source(waveform)?),
            Element::ISource {
                name,
                from,
                to,
                waveform,
            } => (name, from, to, source(waveform)?),
            other => return Err(format!("cannot render element {}", other.name())),
        };
        let _ = writeln!(out, "{name} {} {} {value}", node(*a), node(*b));
    }
    let _ = writeln!(out, ".tran {step:e} {stop:e}\n.end");
    Ok(out)
}

fn source(w: &Waveform) -> Result<String, String> {
    Ok(match w {
        Waveform::Dc(v) => format!("{v:e}"),
        Waveform::Pulse(p) => {
            let mut s = format!(
                "PULSE({:e} {:e} {:e} {:e} {:e} {:e}",
                p.v1, p.v2, p.t_delay, p.t_rise, p.t_fall, p.t_width
            );
            if let Some(per) = p.t_period {
                let _ = write!(s, " {per:e}");
            }
            s.push(')');
            s
        }
        other => return Err(format!("cannot render waveform {other:?}")),
    })
}
