//! Per-run context: observer wiring, cancellation and the shared evaluation
//! session.

use crate::error::PlaceError;
use crate::observer::{FlowObserver, StageEvent};
use eval::{ArtifactCache, EvalConfig, Evaluator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable cancellation flag; clone it, hand it to another thread, and
/// call [`CancelToken::cancel`] to stop an in-flight run at its next stage
/// boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates an un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Execution context threaded through every [`crate::Placer::place`] call.
///
/// Carries the observer, the cancellation token and the artifact cache.
/// Flows poll [`PlaceContext::interrupted`] at stage boundaries and abort
/// with [`PlaceError::Cancelled`].
#[derive(Default)]
pub struct PlaceContext {
    observer: Option<Arc<dyn FlowObserver>>,
    cancel: CancelToken,
    /// Artifact cache (`Gnet`, `Gseq`) shared by every flow run and
    /// evaluation of this context and its children, so a seed×λ sweep builds
    /// each derived graph once, not per run. Contexts created by a
    /// [`crate::DesignStore`] borrow the store's byte-budgeted cache instead
    /// of owning a private one, so artifacts survive across jobs.
    artifacts: ArtifactCache,
}

impl PlaceContext {
    /// A context with no observer and a fresh cancel token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observer receiving this run's stage events.
    pub fn with_observer(mut self, observer: Arc<dyn FlowObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Uses an existing cancel token (e.g. shared with a controlling thread).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Borrows an existing artifact cache instead of the context's private
    /// one. This is how multi-design front ends share per-design artifacts
    /// across jobs: every context handed out by a [`crate::DesignStore`]
    /// points at the store's byte-budgeted cache.
    pub fn with_artifacts(mut self, cache: ArtifactCache) -> Self {
        self.artifacts = cache;
        self
    }

    /// The artifact cache (`Gnet`, `Gseq`) flow runs and evaluations of this
    /// context share.
    pub fn artifacts(&self) -> &ArtifactCache {
        &self.artifacts
    }

    /// The run's cancel token; clone it to cancel from elsewhere.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Emits an event to the attached observer, if any.
    pub fn emit(&self, event: StageEvent) {
        if let Some(obs) = &self.observer {
            obs.on_event(&event);
        }
    }

    /// Checks cancellation; `Some(error)` means the flow must abort now.
    pub fn interrupted(&self) -> Option<PlaceError> {
        self.cancel.is_cancelled().then_some(PlaceError::Cancelled)
    }

    /// An evaluation session with the given configuration, sharing this
    /// context's artifact cache: every flow evaluating through the same
    /// context (or a [`PlaceContext::child`]) reuses one `Gseq` per design
    /// instead of rebuilding it per candidate.
    pub fn evaluator(&self, config: EvalConfig) -> Evaluator {
        Evaluator::with_cache(config, self.artifacts.clone())
    }

    /// A child context for one run of a batch: shares the observer, cancel
    /// token and artifact cache of the parent.
    pub fn child(&self) -> PlaceContext {
        PlaceContext {
            observer: self.observer.clone(),
            cancel: self.cancel.clone(),
            artifacts: self.artifacts.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_context_is_not_interrupted() {
        assert!(PlaceContext::new().interrupted().is_none());
    }

    #[test]
    fn cancel_token_interrupts() {
        let ctx = PlaceContext::new();
        let token = ctx.cancel_token();
        assert!(ctx.interrupted().is_none());
        token.cancel();
        assert_eq!(ctx.interrupted(), Some(PlaceError::Cancelled));
    }

    #[test]
    fn children_share_cancellation() {
        let ctx = PlaceContext::new();
        let child = ctx.child();
        ctx.cancel_token().cancel();
        assert_eq!(child.interrupted(), Some(PlaceError::Cancelled));
    }
}
