//! The engine error type.

use hidap::HidapError;
use std::fmt;

/// An error produced by the placement engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The job was cancelled while still queued (see
    /// [`crate::PlacementService::cancel_queued`]).
    Cancelled,
    /// The request is malformed (bad λ, empty grid, ...).
    InvalidRequest(String),
    /// Admission control rejected a submit: the referenced (unevictable)
    /// designs already exceed the store's memory budget, so accepting more
    /// work against them could only grow the resident set further. The
    /// remedy is in the message: release designs that are no longer needed,
    /// or raise the budget.
    AdmissionRejected {
        /// Handle index of the design the rejected job named.
        design: u32,
        /// Bytes pinned by referenced resident designs (the unevictable
        /// floor of the store's accounting).
        pinned_bytes: usize,
        /// The store's configured total-byte budget.
        budget_bytes: usize,
    },
    /// A client hit its per-client quota of queued jobs.
    QuotaExceeded {
        /// The client that submitted the job.
        client: String,
        /// The client's configured quota.
        quota: usize,
    },
    /// The requested flow name is not registered.
    UnknownFlow {
        /// The name that failed to resolve.
        requested: String,
        /// The names the registry knows about.
        known: Vec<String>,
    },
    /// The underlying flow failed.
    Flow(HidapError),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Cancelled => write!(f, "placement run was cancelled"),
            PlaceError::InvalidRequest(msg) => write!(f, "invalid placement request: {msg}"),
            PlaceError::AdmissionRejected { design, pinned_bytes, budget_bytes } => write!(
                f,
                "admission rejected for design {design}: referenced designs pin {pinned_bytes} \
                 bytes, over the {budget_bytes}-byte memory budget; release designs you no \
                 longer need (or raise the budget) and resubmit"
            ),
            PlaceError::QuotaExceeded { client, quota } => write!(
                f,
                "client '{client}' already has {quota} queued jobs (its quota); drain or cancel \
                 before submitting more"
            ),
            PlaceError::UnknownFlow { requested, known } => {
                write!(f, "unknown flow '{requested}' (known flows: {})", known.join(", "))
            }
            PlaceError::Flow(e) => write!(f, "flow failed: {e}"),
        }
    }
}

impl std::error::Error for PlaceError {}

impl From<HidapError> for PlaceError {
    fn from(e: HidapError) -> Self {
        PlaceError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PlaceError::Cancelled.to_string().contains("cancelled"));
        let e = PlaceError::UnknownFlow { requested: "x".into(), known: vec!["hidap".into()] };
        assert!(e.to_string().contains("hidap"));
        let e = PlaceError::AdmissionRejected { design: 3, pinned_bytes: 900, budget_bytes: 512 };
        assert!(e.to_string().contains("design 3"), "{e}");
        assert!(e.to_string().contains("release designs"), "the remedy is named: {e}");
        let e = PlaceError::QuotaExceeded { client: "alice".into(), quota: 2 };
        assert!(e.to_string().contains("alice"), "{e}");
        assert!(e.to_string().contains("drain or cancel"), "the remedy is named: {e}");
        assert!(PlaceError::from(HidapError::EmptyDie).to_string().contains("empty die"));
    }
}
