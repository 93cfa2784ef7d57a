//! Service-layer errors.

use matex_circuit::CircuitError;
use matex_core::CoreError;
use matex_dist::DistError;
use std::fmt;

/// Errors from the scenario engine and the TCP job service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Circuit construction or scenario override failed.
    Circuit(CircuitError),
    /// A monolithic solver run failed.
    Core(CoreError),
    /// A distributed run failed.
    Dist(DistError),
    /// The job specification is invalid (before any solve started).
    InvalidJob(String),
    /// A protocol request could not be parsed or served.
    Protocol(String),
    /// Socket or file I/O failed (message carries the `io::Error` text).
    Io(String),
    /// The referenced job id was never submitted.
    UnknownJob(u64),
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
    /// Admission refused the job at submit time (queue full or deadline
    /// predicted unmeetable). `retry_after` estimates when the queued
    /// predicted cost will have drained enough for a resubmit to stand
    /// a chance.
    Rejected {
        /// Why admission refused the job.
        reason: String,
        /// Suggested back-off before resubmitting.
        retry_after: std::time::Duration,
    },
    /// The job was cancelled (while queued, or cooperatively while
    /// running).
    Cancelled(u64),
    /// The job's deadline passed before it could run to completion.
    DeadlineMissed(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Circuit(e) => write!(f, "circuit error: {e}"),
            ServeError::Core(e) => write!(f, "solver error: {e}"),
            ServeError::Dist(e) => write!(f, "distributed run error: {e}"),
            ServeError::InvalidJob(m) => write!(f, "invalid job: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Io(m) => write!(f, "i/o error: {m}"),
            ServeError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Rejected {
                reason,
                retry_after,
            } => write!(
                f,
                "rejected: {reason} (retry after {}ms)",
                retry_after.as_millis()
            ),
            ServeError::Cancelled(id) => write!(f, "job {id} cancelled"),
            ServeError::DeadlineMissed(m) => write!(f, "deadline missed: {m}"),
        }
    }
}

impl ServeError {
    /// The stable machine-readable code of this error — the `"code"`
    /// field of every wire response envelope. This is the single place
    /// the `ServeError → code` mapping lives; clients branch on these
    /// strings, so they are part of the protocol contract and never
    /// change meaning.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Circuit(_) => "circuit",
            ServeError::Core(_) => "solver",
            ServeError::Dist(_) => "dist",
            ServeError::InvalidJob(_) => "invalid_job",
            ServeError::Protocol(_) => "protocol",
            ServeError::Io(_) => "io",
            ServeError::UnknownJob(_) => "unknown_job",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Rejected { .. } => "rejected",
            ServeError::Cancelled(_) => "cancelled",
            ServeError::DeadlineMissed(_) => "deadline_missed",
        }
    }

    /// `true` when the error is any flavor of cooperative cancellation
    /// (engine-level, solver-level, or distributed-run-level).
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            ServeError::Cancelled(_)
                | ServeError::Core(CoreError::Cancelled)
                | ServeError::Dist(DistError::Cancelled)
        )
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Circuit(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Dist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for ServeError {
    fn from(e: CircuitError) -> Self {
        ServeError::Circuit(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<DistError> for ServeError {
    fn from(e: DistError) -> Self {
        ServeError::Dist(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_stable_code() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::InvalidJob("x".into()), "invalid_job"),
            (ServeError::Protocol("x".into()), "protocol"),
            (ServeError::Io("x".into()), "io"),
            (ServeError::UnknownJob(1), "unknown_job"),
            (ServeError::ShuttingDown, "shutting_down"),
            (
                ServeError::Rejected {
                    reason: "full".into(),
                    retry_after: std::time::Duration::from_millis(5),
                },
                "rejected",
            ),
            (ServeError::Cancelled(2), "cancelled"),
            (ServeError::DeadlineMissed("late".into()), "deadline_missed"),
            (
                ServeError::Core(CoreError::InvalidSpec("x".into())),
                "solver",
            ),
        ];
        for (e, code) in cases {
            assert_eq!(e.code(), code, "{e}");
        }
    }

    #[test]
    fn display_and_source() {
        let e = ServeError::from(CoreError::InvalidSpec("x".into()));
        assert!(e.to_string().contains("solver error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ServeError::UnknownJob(3)).is_none());
        assert_eq!(ServeError::UnknownJob(3).to_string(), "unknown job id 3");
    }
}
