//! Typed stage events and the observer callback interface.

use std::sync::Mutex;

/// A typed event emitted as a flow moves through its stages.
///
/// Events carry owned data (they are low-frequency — one per stage or per
/// hierarchy level) so observers can queue them across threads.
#[derive(Debug, Clone, PartialEq)]
pub enum StageEvent {
    /// A flow run started.
    FlowStarted {
        /// Flow name as registered (`hidap`, `indeda`, `handfp`, ...).
        flow: String,
        /// RNG seed of this run.
        seed: u64,
        /// λ value of this run, when the flow has a λ knob.
        lambda: Option<f64>,
    },
    /// The hierarchy tree was built.
    HierarchyBuilt {
        /// Number of hierarchy levels.
        nodes: usize,
        /// Number of macros in the design.
        macros: usize,
    },
    /// Shape curves were generated for every hierarchy level.
    ShapeCurvesReady {
        /// Number of shape curves.
        curves: usize,
    },
    /// One hierarchy level's block floorplan was accepted.
    LevelFloorplanned {
        /// Recursion depth (0 = top).
        depth: usize,
        /// Hierarchy path of the floorplanned node (empty for the top).
        node: String,
        /// Number of blocks laid out at this level.
        blocks: usize,
    },
    /// Macro flipping chose final orientations.
    FlippingDone {
        /// Number of macros whose orientation changed from the default.
        flipped: usize,
    },
    /// Legalization finished.
    LegalizationDone {
        /// Number of macros legalization had to move.
        moved: usize,
    },
    /// A flow run finished successfully.
    FlowFinished {
        /// Wall-clock seconds of the run.
        wall_s: f64,
        /// Whether the resulting placement is legal.
        legal: bool,
    },
    /// One cell of a batch grid started.
    BatchRunStarted {
        /// Grid index (row-major over seeds×λ).
        index: usize,
        /// Total number of grid cells.
        total: usize,
        /// Seed of this cell.
        seed: u64,
        /// λ of this cell.
        lambda: f64,
    },
    /// One cell of a batch grid finished.
    BatchRunFinished {
        /// Grid index (row-major over seeds×λ).
        index: usize,
        /// Measured wirelength in meters (lower is better); `None` when the
        /// cell failed.
        score: Option<f64>,
    },
}

/// Receives stage events; implementations must be thread-safe because batch
/// runs emit from worker threads.
pub trait FlowObserver: Send + Sync {
    /// Called once per event, in the emitting run's stage order.
    fn on_event(&self, event: &StageEvent);
}

/// An observer that records every event, for tests and progress inspection.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    events: Mutex<Vec<StageEvent>>,
}

impl CollectingObserver {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events received so far.
    pub fn events(&self) -> Vec<StageEvent> {
        self.events.lock().expect("observer lock").clone()
    }

    /// Number of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&StageEvent) -> bool) -> usize {
        self.events.lock().expect("observer lock").iter().filter(|e| pred(e)).count()
    }
}

impl FlowObserver for CollectingObserver {
    fn on_event(&self, event: &StageEvent) {
        self.events.lock().expect("observer lock").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_records_in_order() {
        let obs = CollectingObserver::new();
        obs.on_event(&StageEvent::HierarchyBuilt { nodes: 3, macros: 2 });
        obs.on_event(&StageEvent::ShapeCurvesReady { curves: 3 });
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], StageEvent::HierarchyBuilt { .. }));
        assert_eq!(obs.count(|e| matches!(e, StageEvent::ShapeCurvesReady { .. })), 1);
    }
}
