//! The offline replayer: [`Directory`] driven from a recorded trace.
//!
//! [`replay`] feeds the accesses and restores of a trace (see
//! [`super::trace`]) to the same [`Directory`] the live
//! [`GridCache`](super::GridCache) holds, so replaying a trace at the
//! geometry it was recorded under reproduces the live counters — there
//! is no second implementation to drift. What this module adds is only
//! what is genuinely offline:
//!
//! - **what-if rows** — other capacities, and other protected bounds:
//!   `lru` is the directory with a protected segment of 0, `slru` the
//!   shipped half-capacity bound. Every row runs the directory's
//!   frequency admission to the spill tier, as the live cache does;
//! - **the stall model** — per-key build and reload costs learned from
//!   the trace, charged where a row's outcome diverges from the
//!   recorded one.

use std::collections::HashMap;

use super::directory::{default_protected, Admission, Directory, Lookup};
use super::trace::{TraceEvent, TraceEventKind, TraceKey};
use mudock_obs::GridSource;

/// One configuration the replayer can drive over a trace.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Display label (`lru`, `slru`).
    pub label: String,
    /// Resident capacity (0 disables caching, as live).
    pub capacity: usize,
    /// Protected-segment size; 0 = plain LRU.
    pub protected_capacity: usize,
    /// Spill-tier file capacity; 0 = no spill tier.
    pub spill_capacity: usize,
}

impl ModelConfig {
    /// Build the configuration for a row `name` (`lru`, `slru`) over a
    /// cache of `capacity` entries and `spill_capacity` files.
    pub fn for_policy(name: &str, capacity: usize, spill_capacity: usize) -> Option<ModelConfig> {
        let protected = match name {
            "lru" => 0,
            "slru" => default_protected(capacity),
            _ => return None,
        };
        Some(ModelConfig {
            label: name.to_string(),
            capacity,
            protected_capacity: protected,
            spill_capacity,
        })
    }
}

/// Counters a model accumulates over one replay. Field meanings match
/// [`CacheStats`](super::CacheStats); `stall_ns` is the modeled
/// grid-acquisition wall-clock the *jobs* would have waited.
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
    /// Misses filled from the spill tier.
    pub reloads: u64,
    /// New spill files written.
    pub spills: u64,
    /// Resident entries displaced.
    pub evictions: u64,
    /// Spill files pruned by the tier's capacity bound.
    pub spill_drops: u64,
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

/// `(sum, count)` of one kind of grid acquisition.
type Cost = (u64, u64);

/// Per-key grid acquisition costs learned from the trace, used when a
/// model's outcome diverges from the recorded one (e.g. the model
/// rebuilds what the live cache reloaded).
#[derive(Default)]
struct Costs {
    build: HashMap<TraceKey, Cost>,
    reload: HashMap<TraceKey, Cost>,
    global_build: Cost,
    global_reload: Cost,
}

fn mean(cost: Cost) -> Option<u64> {
    (cost.1 > 0).then(|| cost.0 / cost.1)
}

impl Costs {
    fn learn(events: &[TraceEvent]) -> Costs {
        let mut c = Costs::default();
        let add = |map: &mut HashMap<TraceKey, Cost>, global: &mut Cost, k, ns| {
            let e = map.entry(k).or_insert((0, 0));
            *e = (e.0 + ns, e.1 + 1);
            *global = (global.0 + ns, global.1 + 1);
        };
        for ev in events {
            match ev.kind {
                TraceEventKind::Access {
                    key,
                    source: GridSource::Built,
                    dur_ns,
                    ..
                } => add(&mut c.build, &mut c.global_build, key, dur_ns),
                TraceEventKind::Access {
                    key,
                    source: GridSource::Reloaded,
                    dur_ns,
                    ..
                } => add(&mut c.reload, &mut c.global_reload, key, dur_ns),
                _ => {}
            }
        }
        c
    }

    fn build_ns(&self, k: TraceKey) -> u64 {
        let own = self.build.get(&k).copied().and_then(mean);
        own.or(mean(self.global_build)).unwrap_or(0)
    }

    fn reload_ns(&self, k: TraceKey) -> u64 {
        let own = self.reload.get(&k).copied().and_then(mean);
        // No reload ever recorded: assume a reload costs a fifth of a
        // build.
        own.or(mean(self.global_reload))
            .unwrap_or_else(|| self.build_ns(k) / 5)
    }
}

/// One configuration mid-replay, stepped by [`replay`] alone.
struct CacheModel {
    cfg: ModelConfig,
    dir: Directory<TraceKey>,
    costs: Costs,
    stats: ModelStats,
}

impl CacheModel {
    /// A fresh model with costs learned from `events` (a pre-pass; the
    /// same slice is then replayed through [`CacheModel::step`]).
    fn new(cfg: ModelConfig, events: &[TraceEvent]) -> CacheModel {
        CacheModel {
            dir: Directory::new(
                cfg.capacity.max(1),
                cfg.protected_capacity,
                cfg.spill_capacity,
            ),
            costs: Costs::learn(events),
            stats: ModelStats::default(),
            cfg,
        }
    }

    fn admitted(&mut self, plan: &Admission<TraceKey>) {
        self.stats.evictions += plan.evicted.is_some() as u64;
        self.stats.spills += plan.spill as u64;
        self.stats.spill_drops += plan.pruned.is_some() as u64;
    }

    fn fill(&mut self, k: TraceKey, reload: bool, live: GridSource, dur_ns: u64) {
        if reload {
            self.stats.reloads += 1;
            self.stats.stall_ns += if live == GridSource::Reloaded {
                dur_ns
            } else {
                self.costs.reload_ns(k)
            };
        } else {
            self.stats.builds += 1;
            self.stats.stall_ns += if live == GridSource::Built {
                dur_ns
            } else {
                self.costs.build_ns(k)
            };
        }
    }

    /// Replay one recorded event.
    fn step(&mut self, ev: &TraceEvent) {
        match ev.kind {
            TraceEventKind::Access {
                key,
                source,
                dur_ns,
                ..
            } => self.access(key, source, dur_ns),
            // A restored spill tier (warm restart) pre-populates the
            // file table in recorded (oldest-first) order.
            TraceEventKind::Restore { key } => {
                self.dir.restore(key);
            }
            // Informational: the directory derives its own evictions
            // and spills.
            _ => {}
        }
    }

    fn access(&mut self, k: TraceKey, live: GridSource, dur_ns: u64) {
        self.stats.accesses += 1;
        if self.cfg.capacity == 0 {
            self.stats.misses += 1;
            return self.fill(k, false, live, dur_ns);
        }
        match self.dir.lookup(k, |_| true) {
            Lookup::Hit => self.stats.hits += 1,
            Lookup::Miss(plan) => {
                self.stats.misses += 1;
                self.admitted(&plan);
                self.fill(k, plan.reload, live, dur_ns);
            }
        }
    }
}

/// Replay `events` under `cfg` and return the model's counters. The
/// accesses step in the order the recording cache's directory resolved
/// them (their `seq`), after every other event: the restores, all
/// written at startup, and the rest, which a replay reads nothing from.
pub fn replay(events: &[TraceEvent], cfg: ModelConfig) -> ModelStats {
    let mut model = CacheModel::new(cfg, events);
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by_key(|ev| match ev.kind {
        TraceEventKind::Access { seq, .. } => (1, seq),
        _ => (0, 0),
    });
    for ev in order {
        model.step(ev);
    }
    model.stats
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
                seq: t,
                source: GridSource::Built,
                bytes: 0,
                dur_ns: 1000,
            },
        }
    }

    fn cfg(name: &str, capacity: usize, spill: usize) -> ModelConfig {
        ModelConfig::for_policy(name, capacity, spill).unwrap()
    }

    #[test]
    fn row_names_select_the_protected_bound() {
        assert_eq!(cfg("lru", 4, 2).protected_capacity, 0);
        assert_eq!(cfg("slru", 4, 2).protected_capacity, 2);
        assert_eq!(cfg("slru", 1, 0).protected_capacity, 0, "slru@1 ≡ lru");
        assert!(ModelConfig::for_policy("fifo", 4, 2).is_none());
        assert!(ModelConfig::for_policy("tinylfu", 4, 2).is_none());
    }

    /// The table in docs/OPERATIONS.md ("How victims are chosen"): 40
    /// passes of `bench_ladder`'s `serve_churn` order (24 jobs, Zipf(1)
    /// over six receptors) over a two-file spill tier.
    #[test]
    fn churn_order_rows() {
        const CHURN_RANKS: [u64; 24] = [
            0, 0, 1, 0, 2, 0, 1, 3, 0, 0, 1, 4, 0, 2, 1, 5, 0, 0, 3, 1, 0, 2, 4, 5,
        ];
        let passes = (0..40).flat_map(|_| CHURN_RANKS);
        let evs: Vec<TraceEvent> = passes.enumerate().map(|(t, k)| acc(t as u64, k)).collect();
        let row = |name, capacity| {
            let s = replay(&evs, cfg(name, capacity, 2));
            assert_eq!(s.accesses, 960);
            (s.hits, s.reloads, s.builds, s.spills)
        };
        // What the node runs, and what `serve_churn` measures: 42 % hits,
        // 33 % reloads, 25 % rebuilds; after the first pass fills the
        // tier, no spills.
        assert_eq!(row("slru", 2), (399, 318, 243, 2));
        assert_eq!(row("lru", 2), (200, 398, 362, 3));
        assert_eq!(row("slru", 4), (598, 198, 164, 3));
        assert_eq!(row("lru", 4), (559, 159, 242, 3));
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
