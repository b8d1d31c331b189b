//! The multi-design store: interned designs behind cheap handles, with every
//! design-derived artifact owned centrally under one memory budget.
//!
//! A [`DesignStore`] turns the "one design per context" shape of the
//! single-design stack into a service-grade boundary:
//!
//! * designs are **interned** — inserting the same design (same
//!   [`DesignKey`] plus geometry fingerprint) twice returns the same dense,
//!   copyable [`DesignHandle`],
//! * the CSR [`netlist::Connectivity`] is the design's own wiring, packed
//!   when the design was built and stored with it, so interning computes no
//!   wiring and every job placing or evaluating through the store reads the
//!   same arrays,
//! * the derived graphs (`Gnet`, `Gseq`) live in one **byte-budgeted**
//!   [`ArtifactCache`] shared by every context the store hands out — a warm
//!   design skips both the hidap flow's graph constructions and the dominant
//!   evaluation setup cost, regardless of which job touches it,
//! * handles are **refcounted** — every [`DesignStore::intern`] adds a
//!   reference, [`DesignStore::release`] drops one, and only designs with zero live references are eligible for
//!   eviction, so a handle a caller still holds always resolves.
//!
//! # Ownership model
//!
//! The **store owns** the designs and their artifacts; **contexts borrow**.
//! [`DesignStore::context`] hands out [`PlaceContext`]s whose artifact cache
//! is a cheap clone (shared `Arc`) of the store's — flows and evaluators
//! running in those contexts fetch `Gnet`/`Gseq` from the store's pool and
//! hold plain `Arc`s while they run. Eviction (of an artifact or of a whole
//! design) only drops the *store's* reference: in-flight borrowers finish on
//! the graphs they hold, and the next fetch rebuilds bit-identically from
//! the design. Results therefore never depend on cache state — eviction
//! changes timing, never outcomes.
//!
//! # Memory budget
//!
//! [`DesignStore::with_memory_budget`] bounds the store's total resident
//! bytes — interned designs (their wiring included) *plus* cached artifacts,
//! both measured through [`netlist::HeapSize`]. The artifact cache enforces
//! its share continuously; designs are evicted least-recently-interned
//! first, but **only when unreferenced**, whenever an intern or release
//! leaves the store over budget. An evicted design keeps its handle and its
//! slot: re-interning an equal design revives the same handle, and later
//! fetches rebuild its artifacts on demand. With live
//! references everywhere, the budget is a soft target — the store never
//! invalidates a handle a caller still holds.

use crate::context::PlaceContext;
use eval::{ArtifactCache, DesignKey};
use netlist::dense::DenseId;
use netlist::design::Design;
use netlist::HeapSize;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A cheap, copyable reference to a design interned in a [`DesignStore`].
///
/// Handles are dense indices (`0..store.len()`), so per-design bookkeeping
/// in front ends can live in flat arrays keyed by handle. A handle stays
/// valid for the lifetime of the store: eviction empties the slot but never
/// reassigns it, and re-interning an equal design revives the same handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DesignHandle(pub u32);

impl DenseId for DesignHandle {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

/// One entry of the store's design-eviction log: which design left, how many
/// bytes it freed, and when (on the store's monotonic intern/release clock).
///
/// The log is bounded ([`DesignStore::EVICTION_LOG_CAP`] most recent
/// entries) so a long-lived service can expose it over a stats surface
/// without growing without bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionRecord {
    /// The evicted design's handle (still valid: re-interning revives it).
    pub handle: DesignHandle,
    /// The evicted design's name.
    pub name: String,
    /// Bytes the eviction freed (the design's [`HeapSize`] accounting; its
    /// purged artifacts are counted by the artifact cache's own counters).
    pub bytes: usize,
    /// Value of the store's recency clock when the eviction happened.
    pub at: u64,
}

/// One interned identity: the design (present while resident), its keys,
/// and the refcount/recency bookkeeping driving eviction.
#[derive(Debug, Clone)]
struct DesignSlot {
    /// `None` while the design is evicted.
    design: Option<Arc<Design>>,
    /// The identity key (the geometry half of the interning identity lives
    /// only in the index map — artifacts are keyed geometry-free).
    key: DesignKey,
    /// Live references: intern adds one, release drops one. Only
    /// zero-reference designs may be evicted.
    refs: usize,
    /// [`HeapSize`] bytes of the stored design (0 while evicted).
    bytes: usize,
    /// Recency stamp (from the store's clock) of the last intern or
    /// release, ordering eviction candidates.
    last_use: u64,
}

/// The store: interned designs plus their shared derived artifacts. See the
/// [module docs](crate::store) for the ownership and budget model.
#[derive(Debug, Clone)]
pub struct DesignStore {
    slots: Vec<DesignSlot>,
    /// Identity → handle, the interning index. A [`DesignKey`] covers name,
    /// counts, wiring and sequential names but no geometry (the artifacts it
    /// keys are die-independent), so interning pairs it with
    /// [`Design::geometry_fingerprint`]: the same netlist under different
    /// LEF footprints, die or port placement interns separately. Entries
    /// survive eviction so a revived design gets its old handle back.
    index: HashMap<(DesignKey, u64), DesignHandle>,
    /// The byte-budgeted artifact cache every job shares.
    artifacts: ArtifactCache,
    /// Total-resident-bytes target (designs + artifacts); `None` = unbounded
    /// designs (the artifact cache still enforces its own default budget).
    memory_budget: Option<usize>,
    /// Monotonic recency clock for [`DesignSlot::last_use`].
    clock: u64,
    /// Designs evicted so far (artifact evictions are counted separately by
    /// the [`ArtifactCache`]).
    evictions: u64,
    /// High-water mark of [`DesignStore::resident_bytes`], sampled at every
    /// accounting event the store sees (intern/release/reclaim/evict
    /// and service drains). Under a memory budget the *current* resident
    /// bytes tell only the post-eviction tail; the peak tells what the run
    /// actually needed.
    peak_bytes: usize,
    /// The most recent design evictions, newest last (bounded to
    /// [`DesignStore::EVICTION_LOG_CAP`] entries).
    eviction_log: VecDeque<EvictionRecord>,
}

impl Default for DesignStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DesignStore {
    /// An empty store: unbounded designs, artifacts under the cache's
    /// default byte budget ([`ArtifactCache::DEFAULT_BUDGET_BYTES`]).
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            index: HashMap::new(),
            artifacts: ArtifactCache::new(),
            memory_budget: None,
            clock: 0,
            evictions: 0,
            eviction_log: VecDeque::new(),
            peak_bytes: 0,
        }
    }

    /// An empty store bounding its **total** resident bytes — interned
    /// designs plus cached artifacts — to `budget`. The artifact cache gets
    /// the same budget (artifacts alone never exceed it); unreferenced
    /// designs are evicted, least recently used first, whenever the total
    /// is above budget after an intern or release.
    pub fn with_memory_budget(budget: usize) -> Self {
        Self {
            artifacts: ArtifactCache::with_budget(budget),
            memory_budget: Some(budget),
            ..Self::new()
        }
    }

    /// Interns a design and adds one reference to it.
    ///
    /// Returns the existing handle when a design with the same identity
    /// ([`DesignKey`] plus geometry fingerprint) was interned before —
    /// reviving the slot (re-storing the design) if it had been evicted.
    /// Otherwise stores the design under a new dense handle. Callers that
    /// are done with a handle pair each `intern` with a
    /// [`DesignStore::release`].
    pub fn intern(&mut self, design: Design) -> DesignHandle {
        let key = DesignKey::of(&design);
        let geometry = design.geometry_fingerprint();
        self.clock += 1;
        let clock = self.clock;
        if let Some(&handle) = self.index.get(&(key.clone(), geometry)) {
            let slot = &mut self.slots[handle.index()];
            slot.refs += 1;
            slot.last_use = clock;
            if slot.design.is_none() {
                // revival: the evicted identity comes back under its old
                // handle; artifacts rebuild lazily on the next fetch
                slot.bytes = design.heap_bytes();
                slot.design = Some(Arc::new(design));
            }
            self.note_peak();
            self.enforce_budget();
            return handle;
        }
        let handle = DesignHandle(self.slots.len() as u32);
        self.slots.push(DesignSlot {
            bytes: design.heap_bytes(),
            design: Some(Arc::new(design)),
            key: key.clone(),
            refs: 1,
            last_use: clock,
        });
        self.index.insert((key, geometry), handle);
        self.note_peak();
        self.enforce_budget();
        handle
    }

    /// Drops one reference to an interned design and returns the remaining
    /// count. At zero the design becomes eligible for budget-driven
    /// eviction (and is evicted immediately if the store is over budget);
    /// its handle stays valid and re-interning revives it.
    ///
    /// Releasing an already-unreferenced design is a true no-op returning 0
    /// — it touches neither the refcount nor the slot's eviction recency.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this store.
    pub fn release(&mut self, handle: DesignHandle) -> usize {
        if self.slots[handle.index()].refs == 0 {
            return 0;
        }
        self.clock += 1;
        let clock = self.clock;
        let slot = &mut self.slots[handle.index()];
        slot.refs -= 1;
        slot.last_use = clock;
        let refs = slot.refs;
        if refs == 0 {
            self.note_peak();
            self.enforce_budget();
        }
        refs
    }

    /// Live references to a design.
    pub fn ref_count(&self, handle: DesignHandle) -> usize {
        self.slots[handle.index()].refs
    }

    /// Whether the design behind a handle is currently resident (interned
    /// and not evicted).
    pub fn is_resident(&self, handle: DesignHandle) -> bool {
        self.slots.get(handle.index()).is_some_and(|s| s.design.is_some())
    }

    /// Re-applies the memory budget right now, evicting unreferenced
    /// designs while the total resident bytes exceed it, and returns how
    /// many designs were evicted. The store enforces the budget on every
    /// intern and release by itself; call this after work that grows the
    /// *artifact* side of the accounting (flow runs, evaluations) to keep
    /// the peak — not just the post-release tail — under the budget.
    pub fn reclaim(&mut self) -> usize {
        let before = self.evictions;
        self.note_peak();
        self.enforce_budget();
        (self.evictions - before) as usize
    }

    /// Evicts every unreferenced design right now, regardless of budget,
    /// purging their artifacts too. Returns how many designs were evicted.
    pub fn evict_unreferenced(&mut self) -> usize {
        self.note_peak();
        let mut evicted = 0;
        for i in 0..self.slots.len() {
            if self.slots[i].refs == 0 && self.slots[i].design.is_some() {
                self.evict_slot(i);
                evicted += 1;
            }
        }
        evicted
    }

    /// The design behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this store, or if the design
    /// was evicted (use [`DesignStore::get_design`] to probe, or re-intern
    /// to revive it).
    pub fn design(&self, handle: DesignHandle) -> &Design {
        self.get_design(handle)
            .unwrap_or_else(|| panic!("design handle {} was evicted; re-intern it", handle.0))
    }

    /// The design behind a handle, or `None` while it is evicted.
    pub fn get_design(&self, handle: DesignHandle) -> Option<&Design> {
        self.slots[handle.index()].design.as_deref()
    }

    /// The identity key a handle was interned under (valid even while the
    /// design is evicted).
    pub fn key(&self, handle: DesignHandle) -> &DesignKey {
        &self.slots[handle.index()].key
    }

    /// Number of distinct design identities interned (resident or evicted).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no design identity.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of identities whose design is currently resident.
    pub fn resident_designs(&self) -> usize {
        self.slots.iter().filter(|s| s.design.is_some()).count()
    }

    /// The shared artifact cache (per-kind statistics included).
    pub fn artifacts(&self) -> &ArtifactCache {
        &self.artifacts
    }

    /// Resident bytes of the interned designs (their wiring included).
    pub fn design_bytes(&self) -> usize {
        self.slots.iter().filter(|s| s.design.is_some()).map(|s| s.bytes).sum()
    }

    /// Resident bytes of one design (0 while it is evicted).
    pub fn design_bytes_of(&self, handle: DesignHandle) -> usize {
        self.slots[handle.index()].bytes
    }

    /// Bytes pinned by *referenced* resident designs — the part of the
    /// accounting budget enforcement can never reclaim (live handles are
    /// never evicted). Admission control compares this floor against the
    /// budget: once it exceeds the budget, accepting more work cannot be
    /// served within it until something is released.
    pub fn pinned_design_bytes(&self) -> usize {
        self.slots.iter().filter(|s| s.refs > 0 && s.design.is_some()).map(|s| s.bytes).sum()
    }

    /// Total resident bytes: interned designs plus cached artifacts.
    pub fn resident_bytes(&self) -> usize {
        self.design_bytes() + self.artifacts.resident_bytes()
    }

    /// High-water mark of [`DesignStore::resident_bytes`] over the store's
    /// lifetime, as observed at accounting events (intern/release/reclaim/
    /// evict and service drains) plus the current residency. Under a memory
    /// budget this is the honest cost of the run: `resident_bytes` only
    /// shows the post-eviction tail.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_bytes.max(self.resident_bytes())
    }

    /// Folds the current residency into the high-water mark. Called at every
    /// `&mut` accounting point; [`DesignStore::peak_resident_bytes`] also
    /// samples the live residency so `&self` readers stay fresh between
    /// events (artifact caches grow behind shared handles).
    pub fn note_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes());
    }

    /// The configured total-byte budget, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// Designs evicted so far (by budget pressure or
    /// [`DesignStore::evict_unreferenced`]).
    pub fn design_evictions(&self) -> u64 {
        self.evictions
    }

    /// Maximum number of entries [`DesignStore::eviction_log`] retains.
    pub const EVICTION_LOG_CAP: usize = 64;

    /// The most recent design evictions, oldest first (at most
    /// [`DesignStore::EVICTION_LOG_CAP`] entries — older ones are dropped,
    /// the total count stays in [`DesignStore::design_evictions`]).
    pub fn eviction_log(&self) -> impl Iterator<Item = &EvictionRecord> + '_ {
        self.eviction_log.iter()
    }

    /// A fresh [`PlaceContext`] borrowing this store's artifact cache:
    /// every flow run and evaluation through it fetches `Gnet`/`Gseq` from
    /// the shared pool instead of a context-private cache.
    pub fn context(&self) -> PlaceContext {
        PlaceContext::new().with_artifacts(self.artifacts.clone())
    }

    /// Applies an ECO edit script to an interned design **in place** and
    /// invalidates selectively: the store consumes the edit log's
    /// [`netlist::FingerprintDiff`] and purges the design's `Gnet`/`Gseq`
    /// only when the artifact identity (wiring or sequential names) actually
    /// changed. A pure-geometry batch — macro resize, master swap, port
    /// move, die change — keeps every cached artifact warm, because
    /// artifacts are keyed geometry-free.
    ///
    /// The interning index is re-keyed to the edited identity, so the
    /// handle stays valid and re-interning the edited design resolves to
    /// it. If another handle already held the post-edit identity, the edited
    /// handle takes over that index entry (the interning invariant is
    /// per-identity-at-intern-time; edits may create duplicates knowingly).
    /// A clone of the store shares its designs and keeps the unedited one:
    /// the edit copies a shared design before changing it.
    ///
    /// Returns the [`netlist::EditLog`]; a rejected script (unknown id, bad
    /// dimensions) is a [`crate::PlaceError::InvalidRequest`] and leaves design,
    /// index and artifacts untouched.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this store.
    pub fn apply_edits(
        &mut self,
        handle: DesignHandle,
        edits: &[netlist::DesignEdit],
    ) -> Result<netlist::EditLog, crate::error::PlaceError> {
        use crate::error::PlaceError;
        self.clock += 1;
        let clock = self.clock;
        let (old_key, old_geometry, new_key, log) = {
            let slot = &mut self.slots[handle.index()];
            let Some(arc) = slot.design.as_mut() else {
                return Err(PlaceError::InvalidRequest(format!(
                    "cannot edit design handle {}: it was evicted; re-intern it first",
                    handle.0
                )));
            };
            let old_key = slot.key.clone();
            let old_geometry = arc.geometry_fingerprint();
            // a clone of the store keeps its pre-edit snapshot: make_mut
            // clones only when the Arc is shared
            let design = Arc::make_mut(arc);
            let log = design
                .apply_edits(edits)
                .map_err(|e| PlaceError::InvalidRequest(format!("edit rejected: {e}")))?;
            let new_key = DesignKey::of(design);
            slot.bytes = design.heap_bytes();
            slot.key = new_key.clone();
            slot.last_use = clock;
            (old_key, old_geometry, new_key, log)
        };
        let new_geometry = log.diff.geometry_after;
        if self.index.get(&(old_key.clone(), old_geometry)) == Some(&handle) {
            self.index.remove(&(old_key.clone(), old_geometry));
        }
        self.index.insert((new_key, new_geometry), handle);
        if log.diff.identity_changed() {
            // the old identity's artifacts are stale for this design; purge
            // them unless another resident design still answers to the key
            let key_still_used = self.slots.iter().any(|s| s.design.is_some() && s.key == old_key);
            if !key_still_used {
                self.artifacts.evict_design(&old_key);
            }
        }
        self.note_peak();
        self.enforce_budget();
        Ok(log)
    }

    /// Evicts unreferenced designs (least recently used first) while the
    /// total resident bytes exceed the budget.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.memory_budget else { return };
        while self.resident_bytes() > budget {
            let candidate = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.refs == 0 && s.design.is_some())
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i);
            match candidate {
                Some(i) => self.evict_slot(i),
                None => break, // everything left is live: soft target
            }
        }
    }

    /// Drops slot `i`'s design and purges its artifacts (unless another
    /// resident geometry variant still shares the same identity key),
    /// logging the eviction.
    fn evict_slot(&mut self, i: usize) {
        let bytes = self.slots[i].bytes;
        self.slots[i].design = None;
        self.slots[i].bytes = 0;
        self.evictions += 1;
        if self.eviction_log.len() == Self::EVICTION_LOG_CAP {
            self.eviction_log.pop_front();
        }
        self.eviction_log.push_back(EvictionRecord {
            handle: DesignHandle::from_index(i),
            name: self.slots[i].key.name().to_string(),
            bytes,
            at: self.clock,
        });
        let key = self.slots[i].key.clone();
        let key_still_used = self.slots.iter().any(|s| s.design.is_some() && s.key == key);
        if !key_still_used {
            self.artifacts.evict_design(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval::ArtifactKind;
    use geometry::Rect;
    use netlist::design::DesignBuilder;

    fn design(name: &str, flop: &str) -> Design {
        let mut b = DesignBuilder::new(name);
        let m = b.add_macro(format!("{name}/ram"), "RAM", 200, 150, name);
        let f = b.add_flop(flop, "");
        let n = b.add_net("n");
        b.connect_driver(n, f);
        b.connect_sink(n, m);
        b.set_die(Rect::new(0, 0, 2000, 1500));
        b.build()
    }

    #[test]
    fn duplicate_designs_intern_to_the_same_handle() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let same = store.intern(design("alpha", "r_reg[0]"));
        assert_eq!(a, same);
        assert_eq!(store.len(), 1);
        assert_eq!(store.ref_count(a), 2, "each intern adds a reference");
        let b = store.intern(design("beta", "r_reg[0]"));
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        assert_eq!(store.design(a).name(), "alpha");
        assert_eq!(store.design(b).name(), "beta");
    }

    #[test]
    fn same_netlist_different_geometry_gets_a_new_handle() {
        // identical wiring and names — only the die differs (the shape a
        // --manifest produces when one netlist is listed with two DEFs)
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let mut resized = design("alpha", "r_reg[0]");
        resized.set_die(Rect::new(0, 0, 4000, 3000));
        let b = store.intern(resized);
        assert_ne!(a, b, "geometry is part of the interning identity");
        assert_eq!(store.len(), 2);
        assert_eq!(store.design(a).die(), Rect::new(0, 0, 2000, 1500));
        assert_eq!(store.design(b).die(), Rect::new(0, 0, 4000, 3000));
    }

    #[test]
    fn same_name_different_content_gets_a_new_handle() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let rewired = store.intern(design("alpha", "other_reg[0]"));
        assert_ne!(a, rewired, "identity is content, not just the name");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn handles_are_dense_and_lookup_roundtrips() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let b = store.intern(design("beta", "r_reg[0]"));
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(store.design(a).name(), "alpha");
        assert_eq!(store.design(b).name(), "beta");
    }

    #[test]
    fn store_contexts_share_one_artifact_cache() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let ctx1 = store.context();
        let ctx2 = store.context();
        let g1 = ctx1.evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        let g2 = ctx2.evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        assert!(std::sync::Arc::ptr_eq(&g1, &g2), "both contexts hit the store's cache");
        assert_eq!(store.artifacts().stats().seq.misses, 1);
        assert_eq!(store.artifacts().stats().seq.hits, 1);
    }

    #[test]
    fn release_then_evict_unreferenced_frees_the_design_and_its_artifacts() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let b = store.intern(design("beta", "r_reg[0]"));
        store.context().evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        assert!(store.artifacts().contains(ArtifactKind::SeqGraph, store.key(a)));

        assert_eq!(store.release(a), 0);
        assert_eq!(store.evict_unreferenced(), 1, "only the released design leaves");
        assert!(!store.is_resident(a));
        assert!(store.is_resident(b), "the live handle is untouched");
        assert_eq!(store.resident_designs(), 1);
        assert_eq!(store.len(), 2, "the identity slot survives eviction");
        assert_eq!(store.design_evictions(), 1);
        assert!(
            !store.artifacts().contains(ArtifactKind::SeqGraph, store.key(a)),
            "design eviction purges the design's artifacts"
        );
        assert!(store.get_design(a).is_none());
    }

    #[test]
    fn reintern_revives_the_same_handle() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        store.release(a);
        store.evict_unreferenced();
        assert!(!store.is_resident(a));
        let revived = store.intern(design("alpha", "r_reg[0]"));
        assert_eq!(revived, a, "an equal design revives its old handle");
        assert!(store.is_resident(a));
        assert_eq!(store.ref_count(a), 1);
        assert_eq!(store.design(a).name(), "alpha");
        // a fresh store (the daemon-restart case) keys an equal design alike
        let mut other = DesignStore::new();
        let b = other.intern(design("alpha", "r_reg[0]"));
        assert_eq!(other.key(b), store.key(a), "identity keys match across stores");
    }

    #[test]
    #[should_panic(expected = "was evicted")]
    fn accessing_an_evicted_design_panics_with_a_clear_message() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        store.release(a);
        store.evict_unreferenced();
        let _ = store.design(a);
    }

    #[test]
    fn budget_pressure_evicts_unreferenced_designs_lru_first() {
        // a budget of 0 forces every unreferenced design out immediately
        let mut store = DesignStore::with_memory_budget(0);
        let a = store.intern(design("alpha", "r_reg[0]"));
        assert!(store.is_resident(a), "live references keep a design resident over budget");
        let b = store.intern(design("beta", "r_reg[0]"));
        store.release(a);
        assert!(!store.is_resident(a), "a release under budget pressure evicts immediately");
        assert!(store.is_resident(b));
        store.release(b);
        assert!(!store.is_resident(b));
        assert_eq!(store.design_evictions(), 2);
    }

    #[test]
    fn peak_resident_bytes_survives_eviction() {
        let mut store = DesignStore::with_memory_budget(0);
        let a = store.intern(design("alpha", "r_reg[0]"));
        let pinned = store.resident_bytes();
        assert!(pinned > 0);
        assert_eq!(store.peak_resident_bytes(), pinned);
        store.release(a);
        assert_eq!(store.resident_bytes(), 0, "the budget evicted the released design");
        assert_eq!(
            store.peak_resident_bytes(),
            pinned,
            "the high-water mark remembers the pre-eviction residency"
        );
    }

    #[test]
    fn redundant_release_does_not_perturb_eviction_recency() {
        use netlist::HeapSize;
        let [da, db, dc] = ["alpha", "beta", "gamma"].map(|name| design(name, "r_reg[0]"));
        // room for two of the three designs: interning the third must evict
        // exactly one unreferenced design
        let budget = da.heap_bytes() + db.heap_bytes() + dc.heap_bytes() - 1;
        let mut store = DesignStore::with_memory_budget(budget);
        let a = store.intern(da);
        let b = store.intern(db);
        store.release(a); // a is now the least-recently-used candidate
        store.release(b);
        assert_eq!(store.release(a), 0, "redundant release is a no-op");
        store.intern(dc);
        // a redundant release that refreshed recency would evict b here
        assert!(!store.is_resident(a), "the true LRU design is evicted");
        assert!(store.is_resident(b));
        assert_eq!(store.design_evictions(), 1);
    }

    #[test]
    fn eviction_log_records_name_bytes_and_order() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let b = store.intern(design("beta", "r_reg[0]"));
        let a_bytes = store.design_bytes_of(a);
        store.release(a);
        store.release(b);
        store.evict_unreferenced();
        let log: Vec<_> = store.eviction_log().cloned().collect();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].handle, a);
        assert_eq!(log[0].name, "alpha");
        assert_eq!(log[0].bytes, a_bytes);
        assert_eq!(log[1].name, "beta");
        assert!(log[0].at <= log[1].at);
        assert_eq!(store.design_bytes_of(a), 0, "evicted designs account zero bytes");
        // revival starts a fresh accounting but keeps the log
        store.intern(design("alpha", "r_reg[0]"));
        assert_eq!(store.design_bytes_of(a), a_bytes);
        assert_eq!(store.eviction_log().count(), 2);
    }

    #[test]
    fn pinned_bytes_track_referenced_designs_only() {
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let b = store.intern(design("beta", "r_reg[0]"));
        assert_eq!(store.pinned_design_bytes(), store.design_bytes());
        store.release(a);
        assert_eq!(
            store.pinned_design_bytes(),
            store.design_bytes_of(b),
            "an unreferenced design is reclaimable, not pinned"
        );
        store.release(b);
        assert_eq!(store.pinned_design_bytes(), 0);
        assert_eq!(store.design_bytes(), store.design_bytes_of(a) + store.design_bytes_of(b));
    }

    #[test]
    fn pure_geometry_edit_keeps_artifacts_warm() {
        use netlist::DesignEdit;
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let ram = store.design(a).find_cell("alpha/ram").unwrap();
        // warm both graphs
        store.context().evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        let before = store.artifacts().stats();
        assert_eq!((before.seq.misses, before.net.misses), (1, 1));

        let log = store
            .apply_edits(a, &[DesignEdit::ResizeCell { cell: ram, width: 300, height: 200 }])
            .unwrap();
        assert!(log.diff.is_pure_geometry());
        assert_eq!(store.design(a).cell(ram).width, 300, "the edit landed in place");

        // the artifact identity is unchanged: the next fetch is a pure hit
        store.context().evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        let after = store.artifacts().stats();
        assert_eq!(
            (after.seq.misses, after.net.misses),
            (1, 1),
            "a pure-geometry edit rebuilds zero Gnet/Gseq"
        );
        assert!(after.seq.hits > before.seq.hits);
        // the index was re-keyed: re-interning the edited design revives
        // the same handle instead of allocating a new identity
        let edited = store.design(a).clone();
        assert_eq!(store.intern(edited), a);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn rewire_edit_drops_the_stale_artifacts() {
        use netlist::DesignEdit;
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let old_key = store.key(a).clone();
        let ram = store.design(a).find_cell("alpha/ram").unwrap();
        let flop = store.design(a).find_cell("r_reg[0]").unwrap();
        let net = store.design(a).find_net("n").unwrap();
        store.context().evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        assert!(store.artifacts().contains(ArtifactKind::SeqGraph, &old_key));

        let log = store
            .apply_edits(a, &[DesignEdit::RewireNet { net, driver: Some(ram), sinks: vec![flop] }])
            .unwrap();
        assert!(log.diff.wiring_changed());
        assert_ne!(store.key(a), &old_key, "the slot key follows the edited identity");
        assert!(
            !store.artifacts().contains(ArtifactKind::SeqGraph, &old_key),
            "a wiring edit purges the old identity's artifacts"
        );
        // the next fetch is a miss under the new identity
        store.context().evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        assert_eq!(store.artifacts().stats().seq.misses, 2);
        store.design(a).validate().unwrap();
    }

    #[test]
    fn editing_an_evicted_design_is_a_structured_error() {
        use netlist::DesignEdit;
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let ram = store.design(a).find_cell("alpha/ram").unwrap();
        store.release(a);
        store.evict_unreferenced();
        let err = store
            .apply_edits(a, &[DesignEdit::ResizeCell { cell: ram, width: 1, height: 1 }])
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("evicted"), "unexpected message: {msg}");
    }

    #[test]
    fn rejected_edit_script_leaves_the_store_untouched() {
        use netlist::design::CellId;
        use netlist::DesignEdit;
        let mut store = DesignStore::new();
        let a = store.intern(design("alpha", "r_reg[0]"));
        let key = store.key(a).clone();
        let ram = store.design(a).find_cell("alpha/ram").unwrap();
        let err = store
            .apply_edits(
                a,
                &[
                    DesignEdit::ResizeCell { cell: ram, width: 5, height: 5 },
                    DesignEdit::ResizeCell { cell: CellId(999), width: 1, height: 1 },
                ],
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown cell"));
        assert_eq!(store.key(a), &key);
        assert_eq!(store.design(a).cell(ram).width, 200, "nothing was applied");
    }

    #[test]
    fn resident_bytes_account_designs_and_artifacts() {
        let mut store = DesignStore::new();
        assert_eq!(store.resident_bytes(), 0);
        let a = store.intern(design("alpha", "r_reg[0]"));
        let designs_only = store.resident_bytes();
        assert!(designs_only > 0);
        assert_eq!(designs_only, store.design_bytes());
        store.context().evaluator(eval::EvalConfig::standard()).seq_graph(store.design(a));
        assert!(store.resident_bytes() > designs_only, "artifacts add to the total");
        store.release(a);
        store.evict_unreferenced();
        assert_eq!(store.resident_bytes(), 0, "eviction returns the accounting to zero");
    }
}
