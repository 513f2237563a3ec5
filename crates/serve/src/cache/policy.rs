//! Replacement policies: the live cache's selectable policy plus the
//! offline replay models the `cache_replay` tool sweeps over recorded
//! traces.
//!
//! # Live policies
//!
//! [`CachePolicy`] is what a running [`GridCache`](super::GridCache)
//! uses to pick eviction victims:
//!
//! - **`lru`** — classic least-recently-used over all resident entries.
//! - **`slru`** (default) — segmented LRU: a new entry lands in a
//!   *probation* segment; its first hit promotes it to a *protected*
//!   segment holding at most half the capacity. Victims come from
//!   probation first, so a burst of one-shot receptors cannot flush the
//!   proven-hot ones. At capacity 1 the protected segment is empty and
//!   `slru` degenerates to exactly `lru` — which is why switching the
//!   default did not move the gated `multi.{spills,reloads}` bench
//!   fields (that leg runs a capacity-1 cache).
//!
//! Policies only reorder *evictions*; every lookup still lands in the
//! same shared-`OnceLock` entry, so the bit-identity and
//! build-once-per-key invariants of the cache are policy-independent.
//!
//! # Replay models
//!
//! [`replay`] drives a [`ModelConfig`] over the events of a recorded
//! trace (see [`super::trace`]). The LRU resident set reuses
//! `mudock-archsim`'s set-associative cache scaffolding ([`ArchCache`])
//! configured as one fully-associative set with one-byte lines, so the
//! grid key *is* the address and archsim's true-LRU stamp machinery is
//! the model; SLRU and the TinyLFU-style admission filter extend it.
//! The models mirror the live cache's bookkeeping exactly — same
//! file-table touch order, same spill-once-per-key rule — which is what
//! lets a proptest assert that replaying a live-recorded trace under
//! the matching model reproduces the live hit/miss/spill counters
//! bit-for-bit.

use std::collections::HashMap;

use mudock_archsim::Cache as ArchCache;

use super::trace::{TraceEvent, TraceEventKind, TraceKey};
use mudock_obs::GridSource;

/// Replacement policy of a live [`GridCache`](super::GridCache).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-recently-used over all resident entries.
    Lru,
    /// Segmented LRU: probation + protected halves, victims from
    /// probation first. The shipped default.
    #[default]
    Slru,
}

impl CachePolicy {
    /// Every live policy, in sweep order.
    pub const ALL: [CachePolicy; 2] = [CachePolicy::Lru, CachePolicy::Slru];

    /// The policy's canonical (CLI / trace-header / `/stats`) name.
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Slru => "slru",
        }
    }

    /// Parse a canonical name (case-insensitive).
    pub fn parse(name: &str) -> Option<CachePolicy> {
        match name.to_ascii_lowercase().as_str() {
            "lru" => Some(CachePolicy::Lru),
            "slru" => Some(CachePolicy::Slru),
            _ => None,
        }
    }

    /// Size of the protected segment for a cache of `capacity` entries
    /// (0 under plain LRU — and at capacity 1, where SLRU ≡ LRU).
    pub fn protected_capacity(self, capacity: usize) -> usize {
        match self {
            CachePolicy::Lru => 0,
            CachePolicy::Slru => capacity / 2,
        }
    }
}

/// Map a trace key (fingerprint, SIMD level) onto the single `u64`
/// address space the models operate in. The level is folded in with a
/// Fibonacci-hash mix so per-level entries stay distinct, exactly as
/// the live cache keeps them distinct; `u64::MAX` is remapped because
/// archsim's scaffolding uses it as the invalid-way sentinel.
pub fn model_key(key: TraceKey) -> u64 {
    let mixed = key.0
        ^ ((key.1 as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if mixed == u64::MAX {
        u64::MAX - 1
    } else {
        mixed
    }
}

/// One policy configuration the replayer can drive over a trace.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Display label (`lru`, `slru+prefetch`, ...).
    pub label: String,
    /// Resident capacity (0 disables caching, as live).
    pub capacity: usize,
    /// Protected-segment size; 0 = plain LRU.
    pub protected_capacity: usize,
    /// Spill-tier file capacity; 0 = no spill tier.
    pub spill_capacity: usize,
    /// TinyLFU-style admission: a miss only evicts the victim when the
    /// candidate's estimated frequency is at least the victim's.
    pub admission_filter: bool,
    /// Act on recorded router hints: reload a spilled key into the
    /// resident set when it is hinted, before its demand access.
    pub prefetch: bool,
}

impl ModelConfig {
    /// Build the configuration for a policy `name` — a base policy
    /// (`lru`, `slru`, `tinylfu`) with an optional `+prefetch` suffix —
    /// over a cache of `capacity` entries and `spill_capacity` files.
    pub fn for_policy(name: &str, capacity: usize, spill_capacity: usize) -> Option<ModelConfig> {
        let (base, prefetch) = match name.strip_suffix("+prefetch") {
            Some(base) => (base, true),
            None => (name, false),
        };
        let (protected, admission) = match base {
            "lru" => (0, false),
            "slru" => (CachePolicy::Slru.protected_capacity(capacity), false),
            "tinylfu" => (0, true),
            _ => return None,
        };
        Some(ModelConfig {
            label: name.to_string(),
            capacity,
            protected_capacity: protected,
            spill_capacity,
            admission_filter: admission,
            prefetch,
        })
    }
}

/// Counters a model accumulates over one replay. Field meanings match
/// [`CacheStats`](super::CacheStats); `stall_ns` is the modeled
/// grid-acquisition wall-clock the *jobs* would have waited (prefetch
/// hides the part of a reload that overlaps the previous job).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Total accesses replayed.
    pub accesses: u64,
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Misses filled by a full grid build.
    pub builds: u64,
    /// Misses (and prefetches) filled from the spill tier.
    pub reloads: u64,
    /// New spill files written.
    pub spills: u64,
    /// Resident entries displaced.
    pub evictions: u64,
    /// Spill files pruned by the tier's capacity bound.
    pub spill_drops: u64,
    /// Hints acted on (spilled key reloaded ahead of demand).
    pub prefetches: u64,
    /// Modeled nanoseconds jobs spent waiting for grids.
    pub stall_ns: u64,
}

impl ModelStats {
    /// Hits as a fraction of all accesses (0 when nothing was replayed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Per-key grid acquisition costs learned from the trace, used when a
/// model's outcome diverges from the recorded one (e.g. the model
/// rebuilds what the live cache reloaded).
struct Costs {
    build: HashMap<u64, (u64, u64)>,
    reload: HashMap<u64, (u64, u64)>,
    global_build: (u64, u64),
    global_reload: (u64, u64),
}

fn mean(sum_n: (u64, u64)) -> Option<u64> {
    (sum_n.1 > 0).then(|| sum_n.0 / sum_n.1)
}

impl Costs {
    fn learn(events: &[TraceEvent]) -> Costs {
        let mut c = Costs {
            build: HashMap::new(),
            reload: HashMap::new(),
            global_build: (0, 0),
            global_reload: (0, 0),
        };
        let add = |map: &mut HashMap<u64, (u64, u64)>, global: &mut (u64, u64), k, ns| {
            let e = map.entry(k).or_insert((0, 0));
            e.0 += ns;
            e.1 += 1;
            global.0 += ns;
            global.1 += 1;
        };
        for ev in events {
            match ev.kind {
                TraceEventKind::Access {
                    key,
                    source: GridSource::Built,
                    dur_ns,
                    ..
                } => add(&mut c.build, &mut c.global_build, model_key(key), dur_ns),
                TraceEventKind::Access {
                    key,
                    source: GridSource::Reloaded,
                    dur_ns,
                    ..
                } => add(&mut c.reload, &mut c.global_reload, model_key(key), dur_ns),
                TraceEventKind::Prefetch { key, dur_ns } => {
                    add(&mut c.reload, &mut c.global_reload, model_key(key), dur_ns)
                }
                _ => {}
            }
        }
        c
    }

    fn build_ns(&self, k: u64) -> u64 {
        self.build
            .get(&k)
            .copied()
            .and_then(mean)
            .or(mean(self.global_build))
            .unwrap_or(0)
    }

    fn reload_ns(&self, k: u64) -> u64 {
        self.reload
            .get(&k)
            .copied()
            .and_then(mean)
            .or(mean(self.global_reload))
            // No reload ever recorded: assume a reload costs a fifth of
            // a build.
            .unwrap_or_else(|| self.build_ns(k) / 5)
    }
}

/// The resident-set half of a model. Plain LRU rides on archsim's
/// cache scaffolding (one fully-associative set, 1-byte lines, true-LRU
/// stamps); SLRU keeps its own probation/protected entries mirroring
/// the live cache exactly.
enum Resident {
    Arch(ArchCache),
    Slru(SlruSet),
}

impl Resident {
    fn new(capacity: usize, protected_capacity: usize) -> Resident {
        if protected_capacity == 0 {
            Resident::Arch(ArchCache::new(capacity, capacity, 1))
        } else {
            Resident::Slru(SlruSet {
                entries: Vec::new(),
                clock: 0,
                capacity,
                protected_capacity,
            })
        }
    }

    /// `(hit, evicted key)` — mutating.
    fn access(&mut self, k: u64) -> (bool, Option<u64>) {
        match self {
            Resident::Arch(c) => c.access_evicting(k),
            Resident::Slru(s) => s.access(k),
        }
    }

    /// `(would hit, would-be victim)` — non-mutating.
    fn peek(&self, k: u64) -> (bool, Option<u64>) {
        match self {
            Resident::Arch(c) => c.peek(k),
            Resident::Slru(s) => s.peek(k),
        }
    }
}

struct SlruEntry {
    key: u64,
    stamp: u64,
    protected: bool,
}

struct SlruSet {
    entries: Vec<SlruEntry>,
    clock: u64,
    capacity: usize,
    protected_capacity: usize,
}

impl SlruSet {
    fn victim_index(&self) -> Option<usize> {
        let probation = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.protected)
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i);
        probation.or_else(|| {
            self.entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
        })
    }

    fn peek(&self, k: u64) -> (bool, Option<u64>) {
        if self.entries.iter().any(|e| e.key == k) {
            return (true, None);
        }
        if self.entries.len() < self.capacity {
            return (false, None);
        }
        (false, self.victim_index().map(|i| self.entries[i].key))
    }

    fn access(&mut self, k: u64) -> (bool, Option<u64>) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == k) {
            e.stamp = clock;
            if self.protected_capacity > 0 && !e.protected {
                e.protected = true;
                while self.entries.iter().filter(|e| e.protected).count() > self.protected_capacity
                {
                    if let Some(d) = self
                        .entries
                        .iter_mut()
                        .filter(|e| e.protected)
                        .min_by_key(|e| e.stamp)
                    {
                        d.protected = false;
                    }
                }
            }
            return (true, None);
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.victim_index().map(|i| self.entries.swap_remove(i).key)
        } else {
            None
        };
        self.entries.push(SlruEntry {
            key: k,
            stamp: clock,
            protected: false,
        });
        (false, evicted)
    }
}

/// One policy model mid-replay; feed it events with [`CacheModel::step`].
pub struct CacheModel {
    cfg: ModelConfig,
    resident: Resident,
    /// Spill-tier file table, oldest first — same touch/refresh/prune
    /// order as the live cache's tick-stamped table.
    files: Vec<u64>,
    freq: HashMap<u64, u32>,
    freq_samples: u32,
    /// Keys prefetched but not yet demanded: key → hint timestamp.
    prefetched: HashMap<u64, u64>,
    costs: Costs,
    stats: ModelStats,
}

impl CacheModel {
    /// A fresh model with costs learned from `events` (a pre-pass; the
    /// same slice is then replayed through [`CacheModel::step`]).
    pub fn new(cfg: ModelConfig, events: &[TraceEvent]) -> CacheModel {
        CacheModel {
            resident: Resident::new(cfg.capacity.max(1), cfg.protected_capacity),
            files: Vec::new(),
            freq: HashMap::new(),
            freq_samples: 0,
            prefetched: HashMap::new(),
            costs: Costs::learn(events),
            stats: ModelStats::default(),
            cfg,
        }
    }

    fn freq_of(&self, k: u64) -> u32 {
        self.freq.get(&k).copied().unwrap_or(0)
    }

    fn note_freq(&mut self, k: u64) {
        *self.freq.entry(k).or_insert(0) += 1;
        self.freq_samples += 1;
        // TinyLFU-style aging: periodically halve every estimate so the
        // sketch tracks the recent past, not all history.
        if self.freq_samples >= 64 {
            self.freq_samples = 0;
            self.freq.values_mut().for_each(|v| *v /= 2);
            self.freq.retain(|_, v| *v > 0);
        }
    }

    fn files_touch(&mut self, k: u64) -> bool {
        match self.files.iter().position(|&f| f == k) {
            Some(i) => {
                self.files.remove(i);
                self.files.push(k);
                true
            }
            None => false,
        }
    }

    fn files_register(&mut self, k: u64) {
        if self.cfg.spill_capacity == 0 {
            return;
        }
        if self.files_touch(k) {
            return; // already spilled: content is immutable, no rewrite
        }
        self.files.push(k);
        self.stats.spills += 1;
        while self.files.len() > self.cfg.spill_capacity {
            self.files.remove(0);
            self.stats.spill_drops += 1;
        }
    }

    fn fill(&mut self, k: u64, reload: bool, live: Option<GridSource>, dur_ns: u64) {
        if reload {
            self.stats.reloads += 1;
            self.stats.stall_ns += if live == Some(GridSource::Reloaded) {
                dur_ns
            } else {
                self.costs.reload_ns(k)
            };
        } else {
            self.stats.builds += 1;
            self.stats.stall_ns += if live == Some(GridSource::Built) {
                dur_ns
            } else {
                self.costs.build_ns(k)
            };
        }
    }

    /// Replay one recorded event.
    pub fn step(&mut self, ev: &TraceEvent) {
        match &ev.kind {
            TraceEventKind::Access {
                key,
                source,
                dur_ns,
                ..
            } => self.access(model_key(*key), *source, *dur_ns, ev.t_ns),
            TraceEventKind::Hint { key } => self.hint(model_key(*key), ev.t_ns),
            // A restored spill tier (warm restart) pre-populates the
            // file table in recorded (oldest-first) order.
            TraceEventKind::Restore { key } if self.cfg.spill_capacity > 0 => {
                self.files.push(model_key(*key));
            }
            // Informational: the model derives its own evictions/spills.
            _ => {}
        }
    }

    fn access(&mut self, k: u64, live: GridSource, dur_ns: u64, t_ns: u64) {
        self.stats.accesses += 1;
        if self.cfg.capacity == 0 {
            self.stats.misses += 1;
            self.fill(k, false, Some(live), dur_ns);
            return;
        }
        if self.cfg.admission_filter {
            self.note_freq(k);
            let (would_hit, victim) = self.resident.peek(k);
            if !would_hit {
                if let Some(v) = victim {
                    if self.freq_of(k) < self.freq_of(v) {
                        // Bypass: serve the job without admitting the
                        // key — the victim has earned its residency.
                        self.stats.misses += 1;
                        let reload = self.files_touch(k);
                        self.fill(k, reload, Some(live), dur_ns);
                        self.prefetched.remove(&k);
                        return;
                    }
                }
            }
        }
        let (hit, evicted) = self.resident.access(k);
        if hit {
            self.stats.hits += 1;
            if let Some(t_hint) = self.prefetched.remove(&k) {
                // The prefetch hid the part of the reload overlapping
                // the gap between hint and demand; the rest stalls.
                let gap = t_ns.saturating_sub(t_hint);
                self.stats.stall_ns += self.costs.reload_ns(k).saturating_sub(gap);
            }
            return;
        }
        self.stats.misses += 1;
        self.prefetched.remove(&k);
        let reload = self.files_touch(k);
        if let Some(v) = evicted {
            self.stats.evictions += 1;
            self.files_register(v);
        }
        self.fill(k, reload, Some(live), dur_ns);
    }

    fn hint(&mut self, k: u64, t_ns: u64) {
        if !self.cfg.prefetch || self.resident.peek(k).0 || !self.files.contains(&k) {
            return;
        }
        self.files_touch(k);
        let (_, evicted) = self.resident.access(k);
        if let Some(v) = evicted {
            self.stats.evictions += 1;
            self.files_register(v);
        }
        self.stats.reloads += 1;
        self.stats.prefetches += 1;
        self.prefetched.insert(k, t_ns);
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &ModelStats {
        &self.stats
    }
}

/// Replay `events` under `cfg` and return the model's counters.
pub fn replay(events: &[TraceEvent], cfg: ModelConfig) -> ModelStats {
    let mut model = CacheModel::new(cfg, events);
    for ev in events {
        model.step(ev);
    }
    model.stats.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_grids::SimdLevel;

    fn acc(t: u64, key: u64) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            kind: TraceEventKind::Access {
                key: (key, SimdLevel::Scalar),
                source: GridSource::Built,
                bytes: 0,
                dur_ns: 1000,
            },
        }
    }

    fn hint(t: u64, key: u64) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            kind: TraceEventKind::Hint {
                key: (key, SimdLevel::Scalar),
            },
        }
    }

    fn cfg(name: &str, capacity: usize, spill: usize) -> ModelConfig {
        ModelConfig::for_policy(name, capacity, spill).unwrap()
    }

    #[test]
    fn policy_names_round_trip() {
        for p in CachePolicy::ALL {
            assert_eq!(CachePolicy::parse(p.name()), Some(p));
        }
        assert_eq!(CachePolicy::parse("LRU"), Some(CachePolicy::Lru));
        assert_eq!(CachePolicy::parse("fifo"), None);
        assert_eq!(CachePolicy::default(), CachePolicy::Slru);
        assert_eq!(CachePolicy::Slru.protected_capacity(1), 0, "slru@1 ≡ lru");
    }

    #[test]
    fn model_keys_keep_levels_distinct() {
        let a = model_key((7, SimdLevel::Scalar));
        let b = model_key((7, SimdLevel::detect()));
        if SimdLevel::detect() != SimdLevel::Scalar {
            assert_ne!(a, b);
        }
        assert_ne!(model_key((u64::MAX, SimdLevel::Scalar)), u64::MAX);
    }

    #[test]
    fn lru_model_reloads_from_the_spill_tier() {
        // Two keys ping-ponging through capacity 1: first touches build,
        // the rest reload; each key spills once.
        let evs: Vec<TraceEvent> = [1, 2, 1, 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &k)| acc(i as u64, k))
            .collect();
        let s = replay(&evs, cfg("lru", 1, 4));
        assert_eq!((s.accesses, s.hits, s.misses), (5, 0, 5));
        assert_eq!((s.builds, s.reloads, s.spills), (2, 3, 2));
        assert_eq!(s.evictions, 4);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn slru_resists_a_scan_that_flushes_lru() {
        // A proven-hot key, then a scan of one-shot keys, then the hot
        // key again. LRU lets the scan evict it; SLRU protects it.
        let mut evs = vec![acc(0, 100), acc(1, 100)]; // 100 becomes hot
        for (i, k) in (200..205).enumerate() {
            evs.push(acc(2 + i as u64, k));
        }
        evs.push(acc(50, 100));
        let lru = replay(&evs, cfg("lru", 2, 0));
        let slru = replay(&evs, cfg("slru", 2, 0));
        assert_eq!(lru.hits, 1, "lru: the scan flushed the hot key");
        assert_eq!(slru.hits, 2, "slru: the protected segment kept it");
        assert!(slru.hit_rate() > lru.hit_rate());
    }

    #[test]
    fn tinylfu_admission_defends_the_hot_key() {
        // Hot key accessed repeatedly, cold keys scanning through a
        // capacity-1 cache: the admission filter refuses to evict the
        // frequent key for one-hit wonders.
        let mut evs = vec![acc(0, 1), acc(1, 1), acc(2, 1)];
        for (t, k) in (3..).zip([50, 1, 60, 1, 70, 1]) {
            evs.push(acc(t, k));
        }
        let lru = replay(&evs, cfg("lru", 1, 0));
        let tiny = replay(&evs, cfg("tinylfu", 1, 0));
        assert!(
            tiny.hits > lru.hits,
            "tinylfu {} vs lru {}",
            tiny.hits,
            lru.hits
        );
    }

    #[test]
    fn prefetch_converts_spill_misses_into_hits() {
        // Alternating keys through capacity 1 with hints ahead of each
        // access: once both keys are spilled, every hinted access hits.
        let evs = vec![
            acc(0, 1),
            acc(10, 2), // spills 1
            hint(11, 1),
            acc(20, 1), // prefetched → hit (spills 2)
            hint(21, 2),
            acc(30, 2), // prefetched → hit
        ];
        let plain = replay(&evs, cfg("lru", 1, 4));
        let pf = replay(&evs, cfg("lru+prefetch", 1, 4));
        assert_eq!(plain.hits, 0);
        assert_eq!(pf.hits, 2, "hinted accesses hit");
        assert_eq!(pf.prefetches, 2);
        assert_eq!(
            plain.reloads, pf.reloads,
            "prefetch moves reloads earlier, it does not add any"
        );
        assert!(pf.stall_ns < plain.stall_ns, "prefetch hides reload time");
    }

    #[test]
    fn restore_events_warm_the_file_table() {
        let evs = vec![
            TraceEvent {
                t_ns: 0,
                kind: TraceEventKind::Restore {
                    key: (1, SimdLevel::Scalar),
                },
            },
            acc(1, 1),
        ];
        let s = replay(&evs, cfg("lru", 1, 4));
        assert_eq!(
            (s.reloads, s.builds),
            (1, 0),
            "a warm-restored file serves the first miss"
        );
    }
}
