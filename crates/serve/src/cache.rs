//! The structure-fingerprint artifact cache.
//!
//! MATEX's economics: one circuit's expensive artifacts — the symbolic
//! LU analysis of its MNA patterns, the numeric factors of `G` and
//! `C + γG`, the DC operating point, and the source-group schedule —
//! are all reusable across the many transients the circuit spawns. This
//! cache keys them in two levels:
//!
//! * the **circuit level** is the MNA *pattern* fingerprint
//!   ([`MnaSystem::pattern_fingerprint`]): everything under one entry
//!   shares sparsity structure,
//! * within an entry, numeric artifacts key on the *value* fingerprint
//!   (and γ bits, and — for DC solutions and group plans — the source
//!   fingerprint and window), so a lookup hit is exactly a bitwise
//!   replay.
//!
//! Symbolic analyses are **γ-decade anchored** (the multi-anchor reuse
//! scheme): an R-MATEX analysis pins a pivot order chosen at its
//! anchor γ; sweeps spanning decades re-use the nearest anchor whose
//! pivots survive, and the engine plants a fresh anchor whenever a
//! replay fell back to full factorization. Replay success implies the
//! pinned order is exactly what a fresh factorization would choose
//! (`matex_sparse::SymbolicLu`'s re-verification contract), so anchor
//! reuse never changes a waveform bit.
//!
//! Whole circuit entries are evicted least-recently-used beyond
//! `max_circuits`. Within an entry, numeric setups, DC operating points
//! and group plans are each capped at [`MAX_VARIANTS`], least recently
//! used first: every distinct what-if edit or scale scenario adds one,
//! so without the cap a long-lived circuit would keep them all. The
//! setups of retained what-if bases are evicted last.

use matex_circuit::MnaSystem;
use matex_core::{KrylovKind, MatexSetup, MatexSymbolic};
use matex_dist::GroupPlan;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Most setups, DC operating points and group plans one circuit entry
/// keeps (each kind capped on its own). The working set of a circuit —
/// its base values, a few γ and source variants — fits well inside it;
/// one-off what-if edits age out.
pub(crate) const MAX_VARIANTS: usize = 16;

/// A capped artifact map: each value carries the cache clock of its
/// last use.
type Stamped<K, V> = HashMap<K, (Arc<V>, u64)>;

/// Key of a numeric setup: exact matrix values, variant, γ bits, and —
/// for MEXP, whose effective `C` depends on it — the regularization ε.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SetupKey {
    pub value_fp: u64,
    pub kind: KrylovKind,
    pub gamma_bits: u64,
    pub regularize_bits: u64,
    /// Whether the setup carries substitution schedules (pooled runs).
    pub scheduled: bool,
}

/// Key of a DC operating point: matrix values, sources, start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DcKey {
    pub value_fp: u64,
    pub source_fp: u64,
    pub t_start_bits: u64,
}

/// Key of a group plan: sources, strategy, window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub source_fp: u64,
    pub strategy: u64,
    pub t_start_bits: u64,
    pub t_stop_bits: u64,
}

/// One γ-decade symbolic anchor.
#[derive(Debug, Clone)]
struct Anchor {
    decade: i32,
    symbolic: Arc<MatexSymbolic>,
}

/// All cached artifacts of one circuit structure.
#[derive(Debug, Default)]
struct CircuitEntry {
    /// R-MATEX symbolic analyses, one anchor per γ decade.
    anchors: Vec<Anchor>,
    /// γ-independent analyses for the other variants, by kind.
    plain: HashMap<KrylovKind, Arc<MatexSymbolic>>,
    setups: Stamped<SetupKey, MatexSetup>,
    dcs: Stamped<DcKey, Vec<f64>>,
    plans: Stamped<PlanKey, GroupPlan>,
    /// What-if base candidates: the systems whose setups were *fully*
    /// prepared (never corrected), keyed by value fingerprint,
    /// insertion-ordered and bounded. A later same-pattern job diffs
    /// against these to find a small edit it can serve by SMW
    /// correction instead of refactoring.
    bases: Vec<(u64, Arc<MnaSystem>)>,
    /// LRU stamp (monotonic touch counter).
    touched: u64,
}

/// Sizes of the cache, for stats reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSizes {
    /// Distinct circuit structures.
    pub circuits: usize,
    /// Symbolic anchors (all decades and variants).
    pub symbolics: usize,
    /// Numeric setups.
    pub setups: usize,
    /// DC operating points.
    pub dcs: usize,
    /// Group plans.
    pub plans: usize,
}

/// γ decade of an anchor: `⌊log10 γ⌋`. Non-positive or non-finite γ
/// maps to a sentinel decade far outside the representable f64 range
/// (|decade| ≤ 308 for any finite positive γ) but small enough that
/// decade *differences* never overflow `i32`: such γs share one
/// anchor slot among themselves and never neighbor a real decade.
pub(crate) fn gamma_decade(gamma: f64) -> i32 {
    if gamma > 0.0 && gamma.is_finite() {
        gamma.log10().floor() as i32
    } else {
        -100_000
    }
}

/// The thread-safe two-level artifact cache.
///
/// Artifact construction happens outside the lock (two racing cold jobs
/// may both build; the first insert wins and the duplicate is dropped —
/// correctness is unaffected because every artifact is a pure function
/// of its key).
#[derive(Debug)]
pub(crate) struct ArtifactCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug)]
struct CacheInner {
    entries: HashMap<u64, CircuitEntry>,
    max_circuits: usize,
    clock: u64,
    /// Whole-circuit LRU evictions performed.
    evictions: u64,
}

impl ArtifactCache {
    pub fn new(max_circuits: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                max_circuits: max_circuits.max(1),
                clock: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a symbolic analysis for `(pattern, kind, γ)`. For
    /// R-MATEX, returns the anchor of γ's decade, or the nearest anchor
    /// within `span` decades (flagged `true`). Touches the entry.
    pub fn symbolic(
        &self,
        pattern: u64,
        kind: KrylovKind,
        gamma: f64,
        span: i32,
    ) -> Option<(Arc<MatexSymbolic>, bool)> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.entries.get_mut(&pattern)?;
        entry.touched = clock;
        if kind != KrylovKind::Rational {
            return entry.plain.get(&kind).map(|s| (s.clone(), false));
        }
        let decade = gamma_decade(gamma);
        let best = entry
            .anchors
            .iter()
            .min_by_key(|a| ((a.decade - decade).abs(), a.decade))?;
        let dist = (best.decade - decade).abs();
        if dist > span {
            return None;
        }
        Some((best.symbolic.clone(), dist != 0))
    }

    /// Inserts (or replaces) the symbolic analysis anchored at γ's
    /// decade.
    pub fn store_symbolic(
        &self,
        pattern: u64,
        kind: KrylovKind,
        gamma: f64,
        symbolic: Arc<MatexSymbolic>,
    ) {
        let mut inner = self.lock();
        let entry = inner.entry(pattern);
        if kind != KrylovKind::Rational {
            entry.plain.insert(kind, symbolic);
            return;
        }
        let decade = gamma_decade(gamma);
        match entry.anchors.iter_mut().find(|a| a.decade == decade) {
            Some(a) => a.symbolic = symbolic,
            None => entry.anchors.push(Anchor { decade, symbolic }),
        }
    }

    pub fn setup(&self, pattern: u64, key: &SetupKey) -> Option<Arc<MatexSetup>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.entries.get_mut(&pattern)?;
        entry.touched = clock;
        touch(&mut entry.setups, key, clock)
    }

    /// Caches a setup (the first insert wins). Beyond [`MAX_VARIANTS`],
    /// evicts the least recently used setup, sparing this one (the
    /// caller may be about to record it as a what-if base) and those of
    /// retained what-if bases while any other is left.
    pub fn store_setup(&self, pattern: u64, key: SetupKey, setup: Arc<MatexSetup>) {
        let mut inner = self.lock();
        let entry = inner.entry(pattern);
        entry.setups.entry(key).or_insert((setup, entry.touched));
        let bases = &entry.bases;
        evict_lru(&mut entry.setups, |k| {
            *k == key || bases.iter().any(|(fp, _)| *fp == k.value_fp)
        });
    }

    /// Quarantine eviction: drops the setup under `key` so the next job
    /// recomputes it instead of re-hitting an entry that just served a
    /// failed execution. Returns whether anything was evicted. Base
    /// candidates keep the *system* (pure input data), so what-if bases
    /// need no eviction — their corrected setups are keyed here too and
    /// leave with the setup.
    pub fn remove_setup(&self, pattern: u64, key: &SetupKey) -> bool {
        let mut inner = self.lock();
        inner
            .entries
            .get_mut(&pattern)
            .is_some_and(|e| e.setups.remove(key).is_some())
    }

    /// Quarantine eviction of a DC operating point; see
    /// [`ArtifactCache::remove_setup`].
    pub fn remove_dc(&self, pattern: u64, key: &DcKey) -> bool {
        let mut inner = self.lock();
        inner
            .entries
            .get_mut(&pattern)
            .is_some_and(|e| e.dcs.remove(key).is_some())
    }

    pub fn dc(&self, pattern: u64, key: &DcKey) -> Option<Arc<Vec<f64>>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        touch(&mut inner.entries.get_mut(&pattern)?.dcs, key, clock)
    }

    /// Caches a DC operating point (the first insert wins), evicting
    /// the least recently used beyond [`MAX_VARIANTS`].
    pub fn store_dc(&self, pattern: u64, key: DcKey, x0: Arc<Vec<f64>>) {
        let mut inner = self.lock();
        let entry = inner.entry(pattern);
        entry.dcs.entry(key).or_insert((x0, entry.touched));
        evict_lru(&mut entry.dcs, |_| false);
    }

    pub fn plan(&self, pattern: u64, key: &PlanKey) -> Option<Arc<GroupPlan>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        touch(&mut inner.entries.get_mut(&pattern)?.plans, key, clock)
    }

    /// Caches a group plan (the first insert wins), evicting the least
    /// recently used beyond [`MAX_VARIANTS`].
    pub fn store_plan(&self, pattern: u64, key: PlanKey, plan: Arc<GroupPlan>) {
        let mut inner = self.lock();
        let entry = inner.entry(pattern);
        entry.plans.entry(key).or_insert((plan, entry.touched));
        evict_lru(&mut entry.plans, |_| false);
    }

    /// Records a fully-prepared system as a what-if base candidate
    /// (deduplicated by value fingerprint; oldest dropped beyond `max`).
    pub fn record_base(&self, pattern: u64, value_fp: u64, sys: Arc<MnaSystem>, max: usize) {
        if max == 0 {
            return;
        }
        let mut inner = self.lock();
        let bases = &mut inner.entry(pattern).bases;
        if bases.iter().any(|(fp, _)| *fp == value_fp) {
            return;
        }
        bases.push((value_fp, sys));
        while bases.len() > max {
            bases.remove(0);
        }
    }

    /// The retained what-if base candidates for `pattern`.
    pub fn bases(&self, pattern: u64) -> Vec<(u64, Arc<MnaSystem>)> {
        self.lock()
            .entries
            .get(&pattern)
            .map(|e| e.bases.clone())
            .unwrap_or_default()
    }

    /// Whole-circuit LRU evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Current artifact counts.
    pub fn sizes(&self) -> CacheSizes {
        let inner = self.lock();
        let mut s = CacheSizes {
            circuits: inner.entries.len(),
            ..CacheSizes::default()
        };
        for e in inner.entries.values() {
            s.symbolics += e.anchors.len() + e.plain.len();
            s.setups += e.setups.len();
            s.dcs += e.dcs.len();
            s.plans += e.plans.len();
        }
        s
    }
}

/// Looks up `key`, stamping it as used at `clock`.
fn touch<K: Eq + Hash, V>(map: &mut Stamped<K, V>, key: &K, clock: u64) -> Option<Arc<V>> {
    let (value, used) = map.get_mut(key)?;
    *used = clock;
    Some(value.clone())
}

/// Evicts least-recently-used entries until at most [`MAX_VARIANTS`]
/// remain, taking entries that `spare` holds back only when no other is
/// left.
fn evict_lru<K: Copy + Eq + Hash, V>(map: &mut Stamped<K, V>, spare: impl Fn(&K) -> bool) {
    while map.len() > MAX_VARIANTS {
        let Some(victim) = map
            .iter()
            .min_by_key(|(k, (_, used))| (spare(k), *used))
            .map(|(k, _)| *k)
        else {
            return;
        };
        map.remove(&victim);
    }
}

impl CacheInner {
    /// The entry for `pattern`, creating it (and evicting the
    /// least-recently-touched circuit beyond capacity) as needed.
    fn entry(&mut self, pattern: u64) -> &mut CircuitEntry {
        self.clock += 1;
        let clock = self.clock;
        if !self.entries.contains_key(&pattern) && self.entries.len() >= self.max_circuits {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(&k, _)| k);
            if let Some(k) = oldest {
                self.entries.remove(&k);
                self.evictions += 1;
            }
        }
        let entry = self.entries.entry(pattern).or_default();
        entry.touched = clock;
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::RcMeshBuilder;
    use matex_core::MatexOptions;

    fn sample_symbolic() -> Arc<MatexSymbolic> {
        let sys = RcMeshBuilder::new(3, 3).build().unwrap();
        Arc::new(MatexSymbolic::analyze(&sys, &MatexOptions::default()).unwrap())
    }

    #[test]
    fn decade_math() {
        assert_eq!(gamma_decade(1e-10), -10);
        assert_eq!(gamma_decade(5e-10), -10);
        assert_eq!(gamma_decade(1e-9), -9);
        assert_eq!(gamma_decade(0.0), -100_000);
        assert_eq!(gamma_decade(-3.0), -100_000);
        assert_eq!(gamma_decade(f64::NAN), -100_000);
        // The sentinel keeps decade differences overflow-free.
        let d = gamma_decade(0.0);
        assert!((gamma_decade(1.0) - d).checked_abs().is_some());
    }

    #[test]
    fn degenerate_gamma_never_neighbors_a_real_anchor() {
        let cache = ArtifactCache::new(4);
        let sym = sample_symbolic();
        // An anchor at decade 0 (γ = 1.0) must not be handed to a γ = 0
        // job even with a huge span, and vice versa.
        cache.store_symbolic(9, KrylovKind::Rational, 1.0, sym.clone());
        assert!(cache.symbolic(9, KrylovKind::Rational, 0.0, 10).is_none());
        cache.store_symbolic(9, KrylovKind::Rational, 0.0, sym);
        let (_, neighbor) = cache.symbolic(9, KrylovKind::Rational, -2.0, 0).unwrap();
        assert!(!neighbor, "degenerate γs share one exact slot");
        assert!(cache.symbolic(9, KrylovKind::Rational, 1.0, 1).is_some());
    }

    #[test]
    fn anchors_by_decade_with_span() {
        let cache = ArtifactCache::new(4);
        let sym = sample_symbolic();
        cache.store_symbolic(7, KrylovKind::Rational, 1e-10, sym.clone());
        // Same decade: exact hit.
        let (_, neighbor) = cache.symbolic(7, KrylovKind::Rational, 3e-10, 1).unwrap();
        assert!(!neighbor);
        // One decade off, within span: neighbor hit.
        let (_, neighbor) = cache.symbolic(7, KrylovKind::Rational, 1e-9, 1).unwrap();
        assert!(neighbor);
        // Two decades off, span 1: miss.
        assert!(cache.symbolic(7, KrylovKind::Rational, 1e-8, 1).is_none());
        // Unknown circuit: miss.
        assert!(cache.symbolic(8, KrylovKind::Rational, 1e-10, 1).is_none());
        // Non-rational analyses are keyed by kind, not γ.
        cache.store_symbolic(7, KrylovKind::Inverted, 0.0, sym);
        assert!(cache.symbolic(7, KrylovKind::Inverted, 123.0, 0).is_some());
        assert!(cache.symbolic(7, KrylovKind::Standard, 1e-10, 0).is_none());
    }

    #[test]
    fn lru_evicts_whole_circuits() {
        let cache = ArtifactCache::new(2);
        let sym = sample_symbolic();
        cache.store_symbolic(1, KrylovKind::Rational, 1e-10, sym.clone());
        cache.store_symbolic(2, KrylovKind::Rational, 1e-10, sym.clone());
        // Touch circuit 1 so circuit 2 is the LRU.
        assert!(cache.symbolic(1, KrylovKind::Rational, 1e-10, 0).is_some());
        cache.store_symbolic(3, KrylovKind::Rational, 1e-10, sym);
        let sizes = cache.sizes();
        assert_eq!(sizes.circuits, 2);
        assert!(cache.symbolic(2, KrylovKind::Rational, 1e-10, 0).is_none());
        assert!(cache.symbolic(1, KrylovKind::Rational, 1e-10, 0).is_some());
    }
}
