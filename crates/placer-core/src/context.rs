//! Per-run context: observer wiring and the shared evaluation session.

use crate::observer::{FlowObserver, StageEvent};
use eval::{ArtifactCache, EvalConfig, Evaluator};
use std::sync::Arc;

/// Execution context threaded through every [`crate::Placer::place`] call.
///
/// Carries the observer and the artifact cache.
#[derive(Default)]
pub struct PlaceContext {
    observer: Option<Arc<dyn FlowObserver>>,
    /// Artifact cache (`Gnet`, `Gseq`) shared by every flow run and
    /// evaluation of this context and its children, so a seed×λ sweep builds
    /// each derived graph once, not per run. Contexts created by a
    /// [`crate::DesignStore`] borrow the store's byte-budgeted cache instead
    /// of owning a private one, so artifacts survive across jobs.
    artifacts: ArtifactCache,
}

impl PlaceContext {
    /// A context with no observer and a private artifact cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observer receiving this run's stage events.
    pub fn with_observer(mut self, observer: Arc<dyn FlowObserver>) -> Self {
        self.observer = Some(observer);
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

    /// Emits an event to the attached observer, if any.
    pub fn emit(&self, event: StageEvent) {
        if let Some(obs) = &self.observer {
            obs.on_event(&event);
        }
    }

    /// An evaluation session with the given configuration, sharing this
    /// context's artifact cache: every flow evaluating through the same
    /// context (or a [`PlaceContext::child`]) reuses one `Gseq` per design
    /// instead of rebuilding it per candidate.
    pub fn evaluator(&self, config: EvalConfig) -> Evaluator {
        Evaluator::with_cache(config, self.artifacts.clone())
    }

    /// A child context for one run of a batch: shares the observer and the
    /// artifact cache of the parent.
    pub fn child(&self) -> PlaceContext {
        PlaceContext { observer: self.observer.clone(), artifacts: self.artifacts.clone() }
    }
}
