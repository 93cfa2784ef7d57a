//! Shared symbolic-factorization cache for the MATEX engines.
//!
//! Every [`MatexSolver`](crate::MatexSolver) run factors `G` (for the DC
//! condition and the input terms) and — on the rational variant — the
//! shifted system `C + γG`. Across a γ sweep, across the engine
//! comparisons of Table 1, and across the scenario engine's repeated
//! jobs, those matrices keep one nonzero pattern: only the values
//! change. A [`MatexSymbolic`] performs the sparsity analysis once and
//! lets every subsequent run replay cheap numeric refactorizations,
//! skipping the AMD ordering and the Gilbert–Peierls reach DFS entirely.
//!
//! The object is immutable after [`MatexSymbolic::analyze`], so a single
//! `Arc<MatexSymbolic>` can be shared read-only across threads. Its two
//! analyses are independent ([`MatexSymbolic::analyze_g`],
//! [`MatexSymbolic::analyze_shifted`]): the distributed master
//! (`matex_dist::run_distributed`) runs each on its own thread, next to
//! the one numeric replay of the same matrix that every node then
//! shares.

use crate::CoreError;
use matex_circuit::MnaSystem;
use matex_krylov::KrylovKind;
use matex_sparse::{CsrMatrix, LuOptions, SymbolicLu};
use matex_sparse::{WireError, WireReader, WireWriter};

/// One system's reusable symbolic factorizations.
///
/// # Example
///
/// ```
/// use matex_circuit::RcMeshBuilder;
/// use matex_core::{MatexOptions, MatexSolver, MatexSymbolic, TransientEngine, TransientSpec};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RcMeshBuilder::new(4, 4).build()?;
/// let spec = TransientSpec::new(0.0, 1e-9, 1e-11)?;
/// let opts = MatexOptions::default();
/// // Analyze once, then sweep γ with numeric-replay factorizations.
/// let symbolic = Arc::new(MatexSymbolic::analyze(&sys, &opts)?);
/// for gamma in [5e-11, 1e-10, 2e-10] {
///     let solver = MatexSolver::new(opts.clone().gamma(gamma))
///         .with_symbolic(symbolic.clone());
///     let result = solver.run(&sys, &spec)?;
///     // Both factorizations replayed the shared analysis.
///     assert_eq!(result.stats.refactorizations, 2);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MatexSymbolic {
    lu_opts: LuOptions,
    g: SymbolicLu,
    shifted: Option<SymbolicLu>,
}

impl MatexSymbolic {
    /// Analyzes `G` and — for the rational variant — the shifted system
    /// `C + γG` of the given options: [`MatexSymbolic::analyze_g`]
    /// followed by [`MatexSymbolic::analyze_shifted`].
    ///
    /// # Errors
    ///
    /// Propagates sparse analysis failures ([`CoreError::Sparse`]).
    pub fn analyze(sys: &MnaSystem, opts: &crate::MatexOptions) -> Result<Self, CoreError> {
        Ok(MatexSymbolic {
            lu_opts: LuOptions::default(),
            g: Self::analyze_g(sys)?,
            shifted: Self::analyze_shifted(sys, opts)?,
        })
    }

    /// Analyzes `G` alone. The two analyses of [`MatexSymbolic::analyze`]
    /// are independent, so a caller may run them on separate threads.
    ///
    /// # Errors
    ///
    /// Propagates sparse analysis failures ([`CoreError::Sparse`]).
    pub fn analyze_g(sys: &MnaSystem) -> Result<SymbolicLu, CoreError> {
        Ok(SymbolicLu::analyze(sys.g(), &LuOptions::default())?)
    }

    /// Analyzes the shifted system `C + γG` alone — `None` off the
    /// rational variant: the inverted variant factors only `G`, and the
    /// standard variant factors a (possibly regularized) `C` with its own
    /// pattern.
    ///
    /// # Errors
    ///
    /// Propagates sparse analysis failures ([`CoreError::Sparse`]).
    pub fn analyze_shifted(
        sys: &MnaSystem,
        opts: &crate::MatexOptions,
    ) -> Result<Option<SymbolicLu>, CoreError> {
        if opts.kind != KrylovKind::Rational {
            return Ok(None);
        }
        let m = CsrMatrix::linear_combination(1.0, sys.c(), opts.gamma, sys.g())?;
        Ok(Some(SymbolicLu::analyze(&m, &LuOptions::default())?))
    }

    /// The symbolic analysis of `G`.
    pub fn g(&self) -> &SymbolicLu {
        &self.g
    }

    /// The symbolic analysis of the shifted pattern `C + γG`, when the
    /// analyzed options used the rational variant.
    pub fn shifted(&self) -> Option<&SymbolicLu> {
        self.shifted.as_ref()
    }

    /// The LU options the analyses were performed with.
    pub fn lu_options(&self) -> &LuOptions {
        &self.lu_opts
    }

    /// Appends the full analysis bundle to `w` for the artifact store.
    /// A decoded bundle drives the same bitwise numeric replays as the
    /// one that was encoded.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        self.lu_opts.wire_encode(w);
        self.g.wire_encode(w);
        w.u8(self.shifted.is_some() as u8);
        if let Some(sh) = &self.shifted {
            sh.wire_encode(w);
        }
    }

    /// Decodes a bundle previously written by
    /// [`MatexSymbolic::wire_encode`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or structurally invalid analyses.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let lu_opts = LuOptions::wire_decode(r)?;
        let g = SymbolicLu::wire_decode(r)?;
        let shifted = match r.u8()? {
            0 => None,
            _ => Some(SymbolicLu::wire_decode(r)?),
        };
        Ok(MatexSymbolic {
            lu_opts,
            g,
            shifted,
        })
    }
}
