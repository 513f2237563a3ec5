//! Trace-driven cache hierarchy simulator.
//!
//! Set-associative, true-LRU, write-allocate caches assembled from an
//! [`ArchConfig`]'s level descriptions: private levels get one instance
//! per core, shared levels one instance per sharing domain (SPR: one L3
//! for the socket; Genoa: one per 8-core CCD; A64FX: the CMG L2 *is* the
//! LLC). This machinery regenerates the paper's Table IV (LLC miss rates)
//! and feeds DRAM-traffic numbers into Table V and the multi-core model.

use crate::arch::ArchConfig;

/// One cache instance.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    pub accesses: u64,
    pub misses: u64,
}

impl Cache {
    /// Build from size/associativity/line size. Panics unless the set
    /// count works out to a power-of-two positive integer.
    pub fn new(size_bytes: usize, assoc: usize, line_bytes: usize) -> Cache {
        assert!(assoc >= 1 && line_bytes.is_power_of_two());
        let lines = size_bytes / line_bytes;
        let sets = (lines / assoc).max(1);
        Cache {
            sets,
            ways: assoc,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * assoc],
            stamps: vec![0; sets * assoc],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Access a byte address; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line % self.sets as u64) as usize;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(w) = slots.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            return true;
        }
        self.misses += 1;
        // Fill an invalid way, else evict the LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    pub fn miss_rate(&self) -> f64 {
        if self.accesses > 0 {
            self.misses as f64 / self.accesses as f64
        } else {
            0.0
        }
    }

    /// Zero the counters but keep the contents (for warm measurement).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

/// Per-level outcome of a trace replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LevelStats {
    pub accesses: u64,
    pub misses: u64,
}

impl LevelStats {
    pub fn miss_rate(&self) -> f64 {
        if self.accesses > 0 {
            self.misses as f64 / self.accesses as f64
        } else {
            0.0
        }
    }

    /// Zero the counters but keep the contents (for warm measurement).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

/// Outcome of replaying a workload through a hierarchy.
#[derive(Clone, Debug, Default)]
pub struct CacheOutcome {
    /// Stats per level, nearest first (last = LLC).
    pub levels: Vec<LevelStats>,
    /// Bytes fetched from DRAM (LLC misses × line size).
    pub dram_bytes: u64,
    /// Total demand accesses issued.
    pub total_accesses: u64,
}

impl CacheOutcome {
    /// LLC miss rate relative to *total demand accesses* — the paper's
    /// Table IV metric (which is why its values are 1e-7…1e-2: most
    /// accesses never reach the LLC at all).
    pub fn llc_miss_rate(&self) -> f64 {
        let misses = self.levels.last().map(|l| l.misses).unwrap_or(0);
        if self.total_accesses > 0 {
            misses as f64 / self.total_accesses as f64
        } else {
            0.0
        }
    }
}

/// A full multi-core cache hierarchy for one architecture.
pub struct Hierarchy {
    /// `instances[level][instance]`.
    instances: Vec<Vec<Cache>>,
    /// `owner[level]` maps a core to its instance index.
    sharing: Vec<usize>,
    line_bytes: Vec<usize>,
    cores: usize,
}

impl Hierarchy {
    /// Build the hierarchy for `cores` active cores of an architecture.
    pub fn new(arch: &ArchConfig, cores: usize) -> Hierarchy {
        assert!(cores >= 1);
        let mut instances = Vec::new();
        let mut sharing = Vec::new();
        let mut line_bytes = Vec::new();
        for level in &arch.caches {
            let domains = cores.div_ceil(level.shared_by);
            instances.push(
                (0..domains)
                    .map(|_| Cache::new(level.size_kib * 1024, level.assoc, level.line_bytes))
                    .collect(),
            );
            sharing.push(level.shared_by);
            line_bytes.push(level.line_bytes);
        }
        Hierarchy {
            instances,
            sharing,
            line_bytes,
            cores,
        }
    }

    /// Issue one demand load from `core` for `addr`, walking the levels.
    /// Returns the level index that hit (`levels.len()` = DRAM).
    pub fn access(&mut self, core: usize, addr: u64) -> usize {
        debug_assert!(core < self.cores);
        for (li, level) in self.instances.iter_mut().enumerate() {
            let inst = core / self.sharing[li];
            if level[inst].access(addr) {
                return li;
            }
        }
        self.instances.len()
    }

    /// Zero all counters, keeping cache contents (warm measurement, like
    /// the paper's discarded warm-up runs).
    pub fn reset_stats(&mut self) {
        for level in &mut self.instances {
            for c in level {
                c.reset_stats();
            }
        }
    }

    /// Aggregate statistics across instances.
    pub fn outcome(&self) -> CacheOutcome {
        let mut levels = Vec::new();
        let mut dram_bytes = 0;
        for (li, insts) in self.instances.iter().enumerate() {
            let mut s = LevelStats::default();
            for c in insts {
                s.accesses += c.accesses;
                s.misses += c.misses;
            }
            if li == self.instances.len() - 1 {
                dram_bytes = s.misses * self.line_bytes[li] as u64;
            }
            levels.push(s);
        }
        let total = levels.first().map(|l| l.accesses).unwrap_or(0);
        CacheOutcome {
            levels,
            dram_bytes,
            total_accesses: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(32 * 1024, 8, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004), "same line");
        assert!(!c.access(0x2000));
        assert_eq!(c.misses, 2);
        assert_eq!(c.accesses, 4);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, 1 set: 128-byte cache with 64-byte lines.
        let mut c = Cache::new(128, 2, 64);
        assert_eq!(c.sets, 1);
        c.access(0x000); // A
        c.access(0x100); // B
        c.access(0x000); // A again (B becomes LRU)
        c.access(0x200); // C evicts B
        assert!(c.access(0x000), "A survives");
        assert!(!c.access(0x100), "B was evicted");
    }

    #[test]
    fn working_set_behaviour() {
        // A working set larger than the cache thrashes; smaller one hits.
        let mut small = Cache::new(4 * 1024, 4, 64);
        for _ in 0..4 {
            for a in (0..(2 * 1024)).step_by(64) {
                small.access(a as u64);
            }
        }
        // 2 KiB set fits in 4 KiB: first pass misses, rest hit.
        assert!(small.miss_rate() < 0.3, "{}", small.miss_rate());

        let mut big = Cache::new(4 * 1024, 4, 64);
        for _ in 0..4 {
            for a in (0..(64 * 1024)).step_by(64) {
                big.access(a as u64);
            }
        }
        // 64 KiB streaming over 4 KiB: everything misses.
        assert!(big.miss_rate() > 0.95, "{}", big.miss_rate());
    }

    #[test]
    fn hierarchy_levels_filter() {
        let spr = arch::spr();
        let mut h = Hierarchy::new(&spr, 1);
        // First touch goes to DRAM, second hits L1.
        assert_eq!(h.access(0, 0x5000), 3);
        assert_eq!(h.access(0, 0x5000), 0);
        let out = h.outcome();
        assert_eq!(out.levels.len(), 3);
        assert_eq!(out.levels[0].accesses, 2);
        assert_eq!(out.levels[0].misses, 1);
        assert_eq!(out.levels[2].misses, 1);
        assert_eq!(out.dram_bytes, 64);
    }

    #[test]
    fn shared_llc_lets_cores_reuse() {
        // On SPR, core 1 finds lines loaded by core 0 in the shared L3.
        let spr = arch::spr();
        let mut h = Hierarchy::new(&spr, 2);
        h.access(0, 0x9000);
        let lvl = h.access(1, 0x9000);
        assert_eq!(lvl, 2, "hit in shared L3, not DRAM");
    }

    #[test]
    fn genoa_ccd_llc_is_private_across_domains() {
        // Cores 0 and 8 sit in different CCDs on Genoa: no LLC sharing.
        let genoa = arch::genoa();
        let mut h = Hierarchy::new(&genoa, 16);
        h.access(0, 0x9000);
        let lvl = h.access(8, 0x9000);
        assert_eq!(lvl, 3, "different CCD must go to DRAM");
        // Same CCD does share.
        let lvl2 = h.access(1, 0x9000);
        assert_eq!(lvl2, 2);
    }

    #[test]
    fn a64fx_two_level_hierarchy() {
        let a = arch::a64fx();
        let mut h = Hierarchy::new(&a, 12);
        assert_eq!(h.access(0, 0x40), 2, "DRAM on first touch (2 levels)");
        assert_eq!(h.access(11, 0x40), 1, "CMG-mates share the L2");
        let out = h.outcome();
        assert_eq!(out.dram_bytes, 256, "A64FX lines are 256 B");
    }
}
