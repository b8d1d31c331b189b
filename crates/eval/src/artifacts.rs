//! The typed, byte-budgeted cache of design-derived artifacts.
//!
//! Every expensive structure the flow derives from a design — the bit-level
//! netlist graph `Gnet` ([`graphs::NetGraph`]) and the clustered sequential
//! graph `Gseq` ([`graphs::SeqGraph`]) — lives in one [`ArtifactCache`],
//! keyed by **design identity × artifact kind × construction config** and
//! bounded by a **byte budget** instead of an entry count (one SoC-sized
//! design can out-weigh a hundred small ones, so counting entries bounds
//! nothing). Artifact sizes come from [`netlist::HeapSize`].
//!
//! Ownership model: the cache *owns* its artifacts (`Arc`-shared); callers
//! *borrow* them. Eviction drops the cache's reference only — a flow holding
//! an `Arc<SeqGraph>` keeps using it unchanged, and the next fetch of an
//! evicted artifact rebuilds it from the design, bit-identically (every
//! construction is a pure function of the keyed inputs). Eviction therefore
//! affects timing, never results.
//!
//! The `Gseq` path layers on the `Gnet` path: a sequential-graph miss first
//! fetches the netlist graph through the same cache (building and caching it
//! on a miss) and derives `Gseq` from it — so one warm `NetGraph` serves
//! both the hidap flow's dataflow analysis and every `Gseq` variant, and a
//! "zero NetGraph builds" CI gate can watch a single per-kind miss counter.
//!
//! Per-kind hit/miss/eviction counters and resident-byte totals are exposed
//! through [`ArtifactCache::stats`] for benchmarks, CI gates and the CLI's
//! `--manifest` summary.
//!
//! # Eviction
//!
//! A graph is either resident or rebuilt (see `docs/MEMORY.md`): nothing
//! writes one to disk. Both graphs are pure functions of the design,
//! rebuilding `Gnet` costs less than writing it out and reading it back,
//! and the graphs the benchmark's ECO session evicts belong to identities
//! no later job asks for. When an insert pushes the resident bytes over the
//! budget, the least recently used entries are evicted until the cache
//! fits, never the entry just touched. The victim order depends only on the
//! sequence of fetches, not on the clock, so the eviction counters of a
//! fixed workload are the same on every run.

use crate::metrics::DesignKey;
use graphs::seqgraph::SeqGraphConfig;
use graphs::{NetGraph, SeqGraph};
use netlist::design::Design;
use netlist::HeapSize;
use std::sync::{Arc, Mutex};

/// The kinds of design-derived artifacts the cache can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// The bit-level netlist connectivity graph `Gnet`.
    NetGraph,
    /// The clustered sequential graph `Gseq`.
    SeqGraph,
}

impl ArtifactKind {
    /// Human-readable kind name (`Gnet` / `Gseq`), for reports.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::NetGraph => "Gnet",
            ArtifactKind::SeqGraph => "Gseq",
        }
    }
}

/// Hit/miss/eviction counters of one artifact kind. A *miss* is a build:
/// `misses` counts how many times this kind's constructor actually ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Fetches served from the cache.
    pub hits: u64,
    /// Fetches that had to build the artifact.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget (or by explicit
    /// design eviction).
    pub evictions: u64,
}

/// A point-in-time snapshot of the cache: per-kind counters plus the
/// resident-byte accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Sequential-graph (`Gseq`) counters.
    pub seq: KindStats,
    /// Netlist-graph (`Gnet`) counters.
    pub net: KindStats,
    /// Artifacts currently held.
    pub entries: usize,
    /// Bytes currently held ([`netlist::HeapSize`] accounting).
    pub resident_bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

impl ArtifactCacheStats {
    /// Total fetches served from the cache, across kinds.
    pub fn hits(&self) -> u64 {
        self.seq.hits + self.net.hits
    }

    /// Total fetches that had to build, across kinds.
    pub fn misses(&self) -> u64 {
        self.seq.misses + self.net.misses
    }

    /// Total evictions, across kinds.
    pub fn evictions(&self) -> u64 {
        self.seq.evictions + self.net.evictions
    }
}

/// One cache slot identity: the design, the kind, and (for `Gseq`) the
/// construction config — a flow requesting a pruned graph and the evaluation
/// requesting the full one cache independently.
#[derive(Debug, Clone, PartialEq)]
struct ArtifactKey {
    design: DesignKey,
    kind: ArtifactKind,
    /// `Some` for sequential graphs, `None` for the config-less `Gnet`.
    seq_config: Option<SeqGraphConfig>,
}

/// A cached artifact (the cache's owning reference).
#[derive(Debug, Clone)]
enum ArtifactValue {
    Net(Arc<NetGraph>),
    Seq(Arc<SeqGraph>),
}

#[derive(Debug)]
struct Entry {
    key: ArtifactKey,
    value: ArtifactValue,
    /// [`HeapSize`] bytes of the artifact plus its key, fixed at insert.
    bytes: usize,
    /// The cache's recency clock at the entry's insert or latest hit.
    last_use: u64,
}

/// The guarded LRU state: entries in insertion order, each stamped with the
/// recency clock at its last use.
#[derive(Debug)]
struct ArtifactLru {
    entries: Vec<Entry>,
    budget: usize,
    resident: usize,
    seq: KindStats,
    net: KindStats,
    /// Monotonic recency clock for [`Entry::last_use`]: one tick per insert
    /// and per hit, never the wall clock.
    clock: u64,
}

/// A cheap-clone, thread-safe, byte-budgeted LRU of design-derived
/// artifacts. See the [module docs](self) for the ownership model.
///
/// Clones share the same cache (an `Arc` around the guarded state), which is
/// how a [`crate::Evaluator`], the per-worker clones of a parallel sweep,
/// and every context of a multi-design store end up fetching from one pool.
///
/// The first fetch of an artifact builds it while holding the lock, so
/// concurrent workers wait for one build instead of duplicating it. When an
/// insert pushes the resident bytes over the budget, least-recently-used
/// entries are evicted until the cache fits again — except the entry just
/// touched, so a single artifact larger than the whole budget still serves
/// its design (the budget degenerates to "keep the hottest artifact only").
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    inner: Arc<Mutex<ArtifactLru>>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// The default byte budget (256 MiB) — roomy for test fleets, small
    /// enough that a long-lived service cannot grow without bound.
    pub const DEFAULT_BUDGET_BYTES: usize = 256 << 20;

    /// An empty cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget(Self::DEFAULT_BUDGET_BYTES)
    }

    /// An empty cache bounded by `budget` bytes of resident artifacts.
    ///
    /// A budget of 0 keeps exactly the most-recently-used artifact.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(ArtifactLru {
                entries: Vec::new(),
                budget,
                resident: 0,
                seq: KindStats::default(),
                net: KindStats::default(),
                clock: 0,
            })),
        }
    }

    /// The netlist graph `Gnet` of `design`, built on first use and cached.
    pub fn get_or_build_net(&self, design: &Design) -> Arc<NetGraph> {
        let key = DesignKey::of(design);
        let mut lru = self.inner.lock().expect("artifact cache lock");
        let net = lru.net_graph(&key, design);
        lru.enforce_budget();
        net
    }

    /// The sequential graph `Gseq` of `design` under an explicit
    /// construction config. A miss first fetches `Gnet` through this cache
    /// (counting a `net` hit or miss), then derives `Gseq` from it —
    /// bit-identical to `SeqGraph::from_design`, one `NetGraph` build per
    /// design instead of one per variant.
    pub fn get_or_build_seq(&self, design: &Design, config: &SeqGraphConfig) -> Arc<SeqGraph> {
        let key = DesignKey::of(design);
        let mut lru = self.inner.lock().expect("artifact cache lock");
        let seq_key = ArtifactKey {
            design: key.clone(),
            kind: ArtifactKind::SeqGraph,
            seq_config: Some(*config),
        };
        if let Some(ArtifactValue::Seq(gseq)) = lru.touch(&seq_key) {
            lru.seq.hits += 1;
            return gseq;
        }
        let gnet = lru.net_graph(&key, design);
        let gseq = Arc::new(SeqGraph::from_netgraph(design, &gnet, config));
        lru.seq.misses += 1;
        lru.insert(seq_key, ArtifactValue::Seq(gseq.clone()));
        lru.enforce_budget();
        gseq
    }

    /// The sequential graph of `design` under the default construction
    /// config (the evaluation pipeline's graph).
    pub fn get_or_build(&self, design: &Design) -> Arc<SeqGraph> {
        self.get_or_build_seq(design, &SeqGraphConfig::default())
    }

    /// Drops every artifact of the design behind `key` (all kinds, all
    /// configs) and returns how many entries were removed. Used by design
    /// stores when they evict the design itself.
    pub fn evict_design(&self, key: &DesignKey) -> usize {
        let mut lru = self.inner.lock().expect("artifact cache lock");
        let mut removed = 0;
        let mut i = 0;
        while i < lru.entries.len() {
            if lru.entries[i].key.design == *key {
                let entry = lru.entries.remove(i);
                lru.evict(entry);
                removed += 1;
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Whether any artifact of this kind is cached for the design behind
    /// `key` (any config). Does not touch recency or the counters.
    pub fn contains(&self, kind: ArtifactKind, key: &DesignKey) -> bool {
        self.inner
            .lock()
            .expect("artifact cache lock")
            .entries
            .iter()
            .any(|e| e.key.kind == kind && e.key.design == *key)
    }

    /// A snapshot of the per-kind counters and byte accounting.
    pub fn stats(&self) -> ArtifactCacheStats {
        let lru = self.inner.lock().expect("artifact cache lock");
        ArtifactCacheStats {
            seq: lru.seq,
            net: lru.net,
            entries: lru.entries.len(),
            resident_bytes: lru.resident,
            budget_bytes: lru.budget,
        }
    }

    /// Number of artifacts currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("artifact cache lock").entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently held.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("artifact cache lock").resident
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.inner.lock().expect("artifact cache lock").budget
    }
}

impl ArtifactLru {
    /// Advances the recency clock and returns its new value.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks a key up; on a hit, refreshes recency and returns the value.
    fn touch(&mut self, key: &ArtifactKey) -> Option<ArtifactValue> {
        let pos = self.entries.iter().position(|e| e.key == *key)?;
        let last_use = self.tick();
        let entry = &mut self.entries[pos];
        entry.last_use = last_use;
        Some(entry.value.clone())
    }

    /// The `Gnet` of `design` (counting a hit or a miss), inserted when
    /// absent. Shared by the public `Gnet` fetch and the `Gseq` miss
    /// path.
    fn net_graph(&mut self, key: &DesignKey, design: &Design) -> Arc<NetGraph> {
        let net_key =
            ArtifactKey { design: key.clone(), kind: ArtifactKind::NetGraph, seq_config: None };
        if let Some(ArtifactValue::Net(gnet)) = self.touch(&net_key) {
            self.net.hits += 1;
            return gnet;
        }
        let gnet = Arc::new(NetGraph::from_design(design));
        self.net.misses += 1;
        self.insert(net_key, ArtifactValue::Net(gnet.clone()));
        gnet
    }

    /// Appends an entry stamped as the most recently used, accounting its
    /// bytes.
    fn insert(&mut self, key: ArtifactKey, value: ArtifactValue) {
        let bytes = std::mem::size_of::<Entry>()
            + key.design.name().len()
            + match &value {
                ArtifactValue::Net(g) => g.resident_bytes(),
                ArtifactValue::Seq(g) => g.resident_bytes(),
            };
        self.resident += bytes;
        let last_use = self.tick();
        self.entries.push(Entry { key, value, bytes, last_use });
    }

    /// Evicts least-recently-used entries until the cache fits its budget.
    /// The entry used last holds the highest stamp, so it is never the
    /// victim: it stays even when it alone is over budget.
    fn enforce_budget(&mut self) {
        while self.resident > self.budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map_or(0, |(i, _)| i);
            let entry = self.entries.remove(victim);
            self.evict(entry);
        }
    }

    /// Books an eviction: the byte accounting and the per-kind eviction
    /// counter. The entry's graph is dropped; its next fetch rebuilds it.
    fn evict(&mut self, entry: Entry) {
        self.resident -= entry.bytes;
        match entry.key.kind {
            ArtifactKind::NetGraph => self.net.evictions += 1,
            ArtifactKind::SeqGraph => self.seq.evictions += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Rect;
    use netlist::design::DesignBuilder;

    /// Small designs with distinct identities, for LRU tests.
    fn keyed_designs() -> Vec<Design> {
        ["da", "db", "dc"]
            .iter()
            .map(|name| {
                let mut b = DesignBuilder::new(*name);
                let m = b.add_macro(format!("{name}_ram"), "RAM", 50_000, 50_000, "");
                let f = b.add_flop(format!("{name}_reg[0]"), "");
                let n = b.add_net("n");
                b.connect_driver(n, f);
                b.connect_sink(n, m);
                b.set_die(Rect::new(0, 0, 400_000, 400_000));
                b.build()
            })
            .collect()
    }

    #[test]
    fn seq_fetch_counts_hits_and_misses_and_caches_the_net_graph() {
        let designs = keyed_designs();
        let cache = ArtifactCache::new();
        assert!(cache.is_empty());
        let first = cache.get_or_build(&designs[0]);
        let stats = cache.stats();
        assert_eq!((stats.seq.hits, stats.seq.misses), (0, 1));
        // the Gseq build pulled Gnet through the cache: one net miss
        assert_eq!((stats.net.hits, stats.net.misses), (0, 1));
        assert_eq!(stats.entries, 2);
        let again = cache.get_or_build(&designs[0]);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.stats().seq.hits, 1);
        // a seq hit does not touch the net counters
        assert_eq!(cache.stats().net.hits, 0);
        // fetching the net graph explicitly is a hit now
        let key = DesignKey::of(&designs[0]);
        assert!(cache.contains(ArtifactKind::NetGraph, &key));
        cache.get_or_build_net(&designs[0]);
        assert_eq!(cache.stats().net.hits, 1);
    }

    #[test]
    fn seq_variants_cache_independently_but_share_one_net_graph() {
        let designs = keyed_designs();
        let cache = ArtifactCache::new();
        let full = cache.get_or_build_seq(&designs[0], &SeqGraphConfig { min_register_bits: 1 });
        let pruned = cache.get_or_build_seq(&designs[0], &SeqGraphConfig { min_register_bits: 8 });
        assert!(!Arc::ptr_eq(&full, &pruned), "distinct configs are distinct entries");
        let stats = cache.stats();
        assert_eq!(stats.seq.misses, 2);
        // the second variant reused the first's Gnet
        assert_eq!((stats.net.misses, stats.net.hits), (1, 1));
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn cached_seq_graph_is_bit_identical_to_a_direct_build() {
        let designs = keyed_designs();
        let cache = ArtifactCache::new();
        let cfg = SeqGraphConfig::default();
        let cached = cache.get_or_build_seq(&designs[0], &cfg);
        assert_eq!(*cached, SeqGraph::from_design(&designs[0], &cfg));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let designs = keyed_designs();
        let cache = ArtifactCache::with_budget(usize::MAX);
        cache.get_or_build(&designs[0]);
        cache.get_or_build(&designs[1]);
        // a Gseq hit refreshes design 0's Gseq only: recency is now
        // Gnet 0, Gnet 1, Gseq 1, Gseq 0 (least recent first)
        cache.get_or_build(&designs[0]);
        let (k0, k1) = (DesignKey::of(&designs[0]), DesignKey::of(&designs[1]));
        // shrink the budget one byte below the resident total: each round
        // sheds exactly one entry, the least recently used
        let shrink = || {
            let mut lru = cache.inner.lock().expect("artifact cache lock");
            lru.budget = lru.resident - 1;
            lru.enforce_budget();
        };
        shrink();
        assert!(!cache.contains(ArtifactKind::NetGraph, &k0), "the oldest entry goes first");
        assert!(cache.contains(ArtifactKind::SeqGraph, &k0), "a hit keeps design 0's Gseq");
        shrink();
        assert!(!cache.contains(ArtifactKind::NetGraph, &k1), "then the next oldest");
        shrink();
        assert!(!cache.contains(ArtifactKind::SeqGraph, &k1), "then design 1's Gseq");
        // the entry touched last stays, even over budget
        shrink();
        assert!(cache.contains(ArtifactKind::SeqGraph, &k0));
        assert_eq!((cache.len(), cache.stats().evictions()), (1, 3));
        // re-requesting an evicted design rebuilds it (a fresh miss)
        let misses = cache.stats().seq.misses;
        cache.get_or_build(&designs[1]);
        assert_eq!(cache.stats().seq.misses, misses + 1);
    }

    #[test]
    fn zero_budget_keeps_only_the_most_recent_artifact() {
        let designs = keyed_designs();
        let cache = ArtifactCache::with_budget(0);
        let a = cache.get_or_build(&designs[0]);
        // the Gseq insert evicted the Gnet that preceded it
        assert_eq!(cache.len(), 1);
        let again = cache.get_or_build(&designs[0]);
        assert!(Arc::ptr_eq(&a, &again), "the hottest artifact still serves its design");
        cache.get_or_build(&designs[1]);
        assert_eq!(cache.len(), 1);
        assert!(!cache.contains(ArtifactKind::SeqGraph, &DesignKey::of(&designs[0])));
    }

    #[test]
    fn evict_design_removes_every_kind_and_config() {
        let designs = keyed_designs();
        let cache = ArtifactCache::new();
        cache.get_or_build_seq(&designs[0], &SeqGraphConfig { min_register_bits: 1 });
        cache.get_or_build_seq(&designs[0], &SeqGraphConfig { min_register_bits: 8 });
        cache.get_or_build(&designs[1]);
        let key = DesignKey::of(&designs[0]);
        assert_eq!(cache.evict_design(&key), 3, "two Gseq variants + one Gnet");
        assert!(!cache.contains(ArtifactKind::SeqGraph, &key));
        assert!(!cache.contains(ArtifactKind::NetGraph, &key));
        assert!(cache.contains(ArtifactKind::SeqGraph, &DesignKey::of(&designs[1])));
        let stats = cache.stats();
        assert_eq!(stats.evictions(), 3);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn clones_share_one_pool() {
        let designs = keyed_designs();
        let cache = ArtifactCache::new();
        let clone = cache.clone();
        let a = cache.get_or_build(&designs[0]);
        let b = clone.get_or_build(&designs[0]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(clone.stats().seq.hits, 1);
    }

    #[test]
    fn resident_bytes_track_inserts_and_evictions() {
        let designs = keyed_designs();
        let cache = ArtifactCache::new();
        assert_eq!(cache.resident_bytes(), 0);
        cache.get_or_build(&designs[0]);
        let after_one = cache.resident_bytes();
        assert!(after_one > 0);
        cache.get_or_build(&designs[1]);
        assert!(cache.resident_bytes() > after_one);
        cache.evict_design(&DesignKey::of(&designs[0]));
        cache.evict_design(&DesignKey::of(&designs[1]));
        assert_eq!(cache.resident_bytes(), 0, "accounting returns to zero when emptied");
    }
}
